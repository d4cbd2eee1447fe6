// Package config parses JSON scenario descriptions into runnable
// core.Scenario values — the configuration surface of cmd/lsbench. The
// schema mirrors §V-B of the paper: data distributions, operation mixes,
// drift processes, arrival processes, training settings, and phase
// sequencing are all declarative.
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/driftctl"
	"repro/internal/workload"
)

// Scenario is the JSON document root.
type Scenario struct {
	Name        string  `json:"name"`
	Seed        uint64  `json:"seed"`
	InitialData GenSpec `json:"initialData"`
	InitialSize int     `json:"initialSize"`
	TrainBefore bool    `json:"trainBefore"`
	IntervalNs  int64   `json:"intervalNs"`
	SLANs       int64   `json:"slaNs"`
	Phases      []Phase `json:"phases"`
	// Session segments the run into interactive sessions with a
	// per-session budget (see core.Scenario.Session).
	Session *SessionSpec `json:"session,omitempty"`
}

// SessionSpec is the JSON form of workload.SessionSpec: gaps at or above
// GapNs begin a new session; BudgetNs is the per-session SLA budget.
type SessionSpec struct {
	GapNs    int64 `json:"gapNs"`
	BudgetNs int64 `json:"budgetNs,omitempty"`
}

// Phase is one workload segment.
type Phase struct {
	Name          string       `json:"name"`
	Ops           int          `json:"ops"`
	Mix           MixSpec      `json:"mix"`
	Access        DriftSpec    `json:"access"`
	InsertKeys    *DriftSpec   `json:"insertKeys,omitempty"`
	MixEnd        *MixSpec     `json:"mixEnd,omitempty"`
	Arrival       *ArrivalSpec `json:"arrival,omitempty"`
	RetrainBefore bool         `json:"retrainBefore"`
	// Source selects where the phase's op stream comes from. Absent (or
	// kind "generator") means the Mix/Access/Arrival specs above; kinds
	// "trace" and "synth" draw from a recorded trace instead, and the
	// spec fields may then be omitted entirely.
	Source *SourceSpec `json:"source,omitempty"`
}

// SourceSpec selects a non-generator operation source for a phase.
type SourceSpec struct {
	// Kind is "generator" (default), "trace" (replay a recorded trace
	// verbatim), or "synth" (fit the trace's statistics and generate
	// unbounded seeded lookalike load).
	Kind string `json:"kind"`
	// Path is the trace file to replay or fit.
	Path string `json:"path,omitempty"`
	// Data inlines the trace bytes (base64 in JSON) — how service
	// submitters attach a trace without a shared filesystem. Takes
	// precedence over Path.
	Data []byte `json:"data,omitempty"`
	// Phase selects one phase of the trace; nil uses the whole trace:
	// flattened (replay), or fitted phase by phase so the synthesized
	// stream walks the recorded phases in order (synth).
	Phase *int `json:"phase,omitempty"`
	// RepeatFrac is the synth repetition knob: the fraction of keys
	// re-drawn from the recently issued window (Redbench-style temporal
	// locality). 0 ≤ RepeatFrac < 1.
	RepeatFrac float64 `json:"repeatFrac,omitempty"`
}

// build resolves the spec into a Source. The returned length is the
// source's bounded op count (0 for unbounded synth), used to default the
// phase's Ops. traces caches decoded files so several phases replaying
// from one recording parse it once.
func (sp SourceSpec) build(base uint64, traces map[string]*workload.Trace) (workload.Source, int, error) {
	tr, err := sp.trace(traces)
	if err != nil {
		return nil, 0, err
	}
	switch sp.Kind {
	case "trace":
		if sp.Phase != nil {
			pi := *sp.Phase
			if pi < 0 || pi >= len(tr.Phases) {
				return nil, 0, fmt.Errorf("config: trace has %d phases, no phase %d", len(tr.Phases), pi)
			}
			r := tr.PhaseReader(pi)
			return r, r.Len(), nil
		}
		r := tr.Reader()
		return r, r.Len(), nil
	case "synth":
		if sp.RepeatFrac < 0 || sp.RepeatFrac >= 1 {
			return nil, 0, fmt.Errorf("config: repeatFrac %v outside [0,1)", sp.RepeatFrac)
		}
		var st *workload.TraceStats
		if sp.Phase != nil {
			pi := *sp.Phase
			if pi < 0 || pi >= len(tr.Phases) {
				return nil, 0, fmt.Errorf("config: trace has %d phases, no phase %d", len(tr.Phases), pi)
			}
			ph := tr.Phases[pi]
			st = workload.FitStream(ph.Ops, ph.Gaps, workload.FitOptions{})
		} else {
			st = workload.FitTrace(tr, workload.FitOptions{})
		}
		if st.Ops == 0 {
			return nil, 0, fmt.Errorf("config: trace is empty, nothing to fit")
		}
		// The runner reseeds the synthesizer per phase; base is only
		// the fallback for direct use.
		return workload.NewSynthesizer(st, base, sp.RepeatFrac), 0, nil
	default:
		return nil, 0, fmt.Errorf("config: unknown source kind %q", sp.Kind)
	}
}

// trace loads the referenced trace from inline data or the path cache.
func (sp SourceSpec) trace(traces map[string]*workload.Trace) (*workload.Trace, error) {
	if len(sp.Data) > 0 {
		tr, err := workload.ReadTrace(bytes.NewReader(sp.Data))
		if err != nil {
			return nil, fmt.Errorf("config: inline trace: %w", err)
		}
		return tr, nil
	}
	if sp.Path == "" {
		return nil, fmt.Errorf("config: %s source requires path or data", sp.Kind)
	}
	if tr, ok := traces[sp.Path]; ok {
		return tr, nil
	}
	tr, err := workload.ReadTraceFile(sp.Path)
	if err != nil {
		return nil, err
	}
	traces[sp.Path] = tr
	return tr, nil
}

// MixSpec is an operation mix.
type MixSpec struct {
	Get       float64 `json:"get"`
	Put       float64 `json:"put"`
	Delete    float64 `json:"delete"`
	Scan      float64 `json:"scan"`
	ScanLimit int     `json:"scanLimit"` // 0 means the default, 100
}

func (m MixSpec) build() workload.Mix {
	return workload.Mix{
		GetFrac: m.Get, PutFrac: m.Put, DeleteFrac: m.Delete,
		ScanFrac: m.Scan, ScanLimit: m.ScanLimit,
	}
}

// GenSpec names a data distribution generator. Field interpretation
// depends on Kind; unset fields take sensible defaults.
type GenSpec struct {
	Kind     string  `json:"kind"`
	Lo       uint64  `json:"lo,omitempty"`       // uniform lower bound
	Hi       uint64  `json:"hi,omitempty"`       // uniform upper bound
	Mu       float64 `json:"mu,omitempty"`       // normal/lognormal location
	Sigma    float64 `json:"sigma,omitempty"`    // normal/lognormal deviation
	Scale    float64 `json:"scale,omitempty"`    // lognormal multiplier
	Theta    float64 `json:"theta,omitempty"`    // zipf skew
	Universe uint64  `json:"universe,omitempty"` // zipf universe size
	Clusters int     `json:"clusters,omitempty"` // clustered cluster count
	Segments int     `json:"segments,omitempty"` // segmented segment count
	Spread   float64 `json:"spread,omitempty"`   // clustered sigma
	Start    uint64  `json:"start,omitempty"`    // sequential start key
	MaxGap   uint64  `json:"maxGap,omitempty"`   // sequential max gap
}

// Build constructs the generator, deriving its seed from base.
func (g GenSpec) Build(base uint64) (distgen.Generator, error) {
	switch g.Kind {
	case "uniform":
		lo, hi := g.Lo, g.Hi
		if hi == 0 {
			hi = distgen.KeyDomain
		}
		if hi <= lo {
			return nil, fmt.Errorf("config: uniform bounds [%d,%d)", lo, hi)
		}
		return distgen.NewUniform(base, lo, hi), nil
	case "normal":
		mu, sigma := g.Mu, g.Sigma
		if mu == 0 {
			mu = float64(distgen.KeyDomain) / 2
		}
		if sigma <= 0 {
			sigma = float64(distgen.KeyDomain) / 64
		}
		return distgen.NewNormal(base, mu, sigma), nil
	case "lognormal":
		scale := g.Scale
		if scale <= 0 {
			scale = 1e12
		}
		sigma := g.Sigma
		if sigma <= 0 {
			sigma = 2
		}
		return distgen.NewLognormal(base, g.Mu, sigma, scale), nil
	case "zipf":
		theta := g.Theta
		if theta <= 0 {
			theta = 1.1
		}
		u := g.Universe
		if u == 0 {
			u = 1 << 22
		}
		return distgen.NewZipfKeys(base, theta, u), nil
	case "clustered":
		k := g.Clusters
		if k <= 0 {
			k = 20
		}
		spread := g.Spread
		if spread <= 0 {
			spread = float64(distgen.KeyDomain) / 1e6
		}
		return distgen.NewClustered(base, k, spread), nil
	case "segmented":
		s := g.Segments
		if s <= 0 {
			s = 16
		}
		return distgen.NewSegmented(base, s), nil
	case "sequential":
		gap := g.MaxGap
		if gap == 0 {
			gap = 64
		}
		return distgen.NewSequential(base, g.Start, gap), nil
	case "email":
		return distgen.NewEmail(base), nil
	default:
		return nil, fmt.Errorf("config: unknown generator kind %q", g.Kind)
	}
}

// DriftSpec names a drift process over generators.
type DriftSpec struct {
	Kind string `json:"kind"` // static | blend | abrupt | hotspot | growskew | schedule | controller
	// Gen backs "static"; Start/End back blend/abrupt/controller (the
	// controller's base and target distributions).
	Gen      *GenSpec `json:"gen,omitempty"`
	StartGen *GenSpec `json:"startGen,omitempty"`
	EndGen   *GenSpec `json:"endGen,omitempty"`
	// At is the abrupt switch point.
	At float64 `json:"at,omitempty"`
	// Hotspot parameters.
	HotFraction float64 `json:"hotFraction,omitempty"`
	WindowSize  float64 `json:"windowSize,omitempty"`
	Laps        float64 `json:"laps,omitempty"`
	// GrowSkew parameters.
	MaxTheta float64 `json:"maxTheta,omitempty"`
	Universe uint64  `json:"universe,omitempty"`
	// Schedule segments.
	Segments []DriftSpec `json:"segments,omitempty"`
	// Controller parameters: the drift-intensity factor D in [0,1], the
	// intensity profile ("const", "ramp", "step@0.5", "sine@2"), and an
	// optional KS-divergence normalization target making D comparable
	// across base/target pairs.
	Factor    float64 `json:"factor,omitempty"`
	Profile   string  `json:"profile,omitempty"`
	Normalize float64 `json:"normalize,omitempty"`
}

// Build constructs the drift process, deriving seeds from base.
func (d DriftSpec) Build(base uint64) (distgen.Drift, error) {
	switch d.Kind {
	case "", "static":
		if d.Gen == nil {
			return nil, fmt.Errorf("config: static drift requires gen")
		}
		g, err := d.Gen.Build(base)
		if err != nil {
			return nil, err
		}
		return distgen.Static{G: g}, nil
	case "blend", "abrupt":
		if d.StartGen == nil || d.EndGen == nil {
			return nil, fmt.Errorf("config: %s drift requires startGen and endGen", d.Kind)
		}
		s, err := d.StartGen.Build(base + 1)
		if err != nil {
			return nil, err
		}
		e, err := d.EndGen.Build(base + 2)
		if err != nil {
			return nil, err
		}
		if d.Kind == "blend" {
			return distgen.NewBlend(base, s, e), nil
		}
		at := d.At
		if at <= 0 || at >= 1 {
			at = 0.5
		}
		return distgen.NewAbrupt(base, s, e, at), nil
	case "hotspot":
		hot, win, laps := d.HotFraction, d.WindowSize, d.Laps
		if hot <= 0 {
			hot = 0.9
		}
		if win <= 0 {
			win = 0.05
		}
		if laps <= 0 {
			laps = 1
		}
		if hot > 1 || win > 1 {
			return nil, fmt.Errorf("config: hotspot hotFraction %v and windowSize %v must be at most 1", hot, win)
		}
		return distgen.NewMovingHotspot(base, hot, win, laps), nil
	case "growskew":
		mt := d.MaxTheta
		if mt <= 0 {
			mt = 1.2
		}
		u := d.Universe
		if u == 0 {
			u = 1 << 20
		}
		return distgen.NewGrowingSkew(base, mt, u), nil
	case "controller":
		if d.StartGen == nil || d.EndGen == nil {
			return nil, fmt.Errorf("config: controller drift requires startGen (base) and endGen (target)")
		}
		if d.Factor < 0 || d.Factor > 1 {
			return nil, fmt.Errorf("config: controller factor %v outside [0,1]", d.Factor)
		}
		prof, err := driftctl.ParseProfile(d.Profile)
		if err != nil {
			return nil, err
		}
		// Validate both specs once so the seed-parameterized factories
		// below cannot fail (build errors depend only on the spec fields).
		if _, err := d.StartGen.Build(base + 1); err != nil {
			return nil, err
		}
		if _, err := d.EndGen.Build(base + 2); err != nil {
			return nil, err
		}
		baseF := func(seed uint64) distgen.Generator {
			g, _ := d.StartGen.Build(seed)
			return g
		}
		targetF := func(seed uint64) distgen.Generator {
			g, _ := d.EndGen.Build(seed)
			return g
		}
		knob := driftctl.Knob{Factor: d.Factor, Profile: prof}
		return driftctl.NewCalibrated(base, baseF, targetF, knob, d.Normalize), nil
	case "schedule":
		if len(d.Segments) == 0 {
			return nil, fmt.Errorf("config: schedule requires segments")
		}
		segs := make([]distgen.Drift, 0, len(d.Segments))
		for i, s := range d.Segments {
			dr, err := s.Build(base + uint64(i)*101)
			if err != nil {
				return nil, err
			}
			segs = append(segs, dr)
		}
		return distgen.NewSchedule(segs...), nil
	default:
		return nil, fmt.Errorf("config: unknown drift kind %q", d.Kind)
	}
}

// ArrivalSpec names an arrival process.
type ArrivalSpec struct {
	Kind      string  `json:"kind"` // closed | poisson | diurnal | bursty | session
	Rate      float64 `json:"rate,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
	Cycles    float64 `json:"cycles,omitempty"`
	Factor    float64 `json:"factor,omitempty"`
	Fraction  float64 `json:"fraction,omitempty"`
	Periods   float64 `json:"periods,omitempty"`
	// Session parameters (workload.SessionArrival).
	ThinkNs    int64 `json:"thinkNs,omitempty"`
	IntraGapNs int64 `json:"intraGapNs,omitempty"`
	MinOps     int   `json:"minOps,omitempty"`
	MaxOps     int   `json:"maxOps,omitempty"`
}

// Build constructs the arrival process.
func (a ArrivalSpec) Build(base uint64) (workload.Arrival, error) {
	switch a.Kind {
	case "", "closed":
		return workload.ClosedLoop{}, nil
	case "poisson":
		if a.Rate <= 0 {
			return nil, fmt.Errorf("config: poisson requires rate")
		}
		return workload.NewPoisson(base, a.Rate), nil
	case "diurnal":
		if a.Rate <= 0 {
			return nil, fmt.Errorf("config: diurnal requires rate")
		}
		amp, cyc := a.Amplitude, a.Cycles
		if amp <= 0 || amp >= 1 {
			amp = 0.5
		}
		if cyc <= 0 {
			cyc = 1
		}
		return workload.NewDiurnal(base, a.Rate, amp, cyc), nil
	case "bursty":
		if a.Rate <= 0 {
			return nil, fmt.Errorf("config: bursty requires rate")
		}
		f, fr, p := a.Factor, a.Fraction, a.Periods
		if f < 1 {
			f = 10
		}
		if fr <= 0 || fr >= 1 {
			fr = 0.1
		}
		if p <= 0 {
			p = 4
		}
		return workload.NewBursty(base, a.Rate, f, fr, p), nil
	case "session":
		think := a.ThinkNs
		if think <= 0 {
			think = 2_000_000 // 2ms virtual think time
		}
		if think < 2 {
			return nil, fmt.Errorf("config: session thinkNs %d leaves no room for an intra-session gap", think)
		}
		intra := a.IntraGapNs
		if intra <= 0 || intra >= think {
			intra = max(1, think/40)
		}
		lo, hi := a.MinOps, a.MaxOps
		if lo <= 0 {
			lo = 3
		}
		if hi < lo {
			hi = lo + 6
		}
		return workload.NewSessionArrival(base, think, intra, lo, hi), nil
	default:
		return nil, fmt.Errorf("config: unknown arrival kind %q", a.Kind)
	}
}

// generator builds the phase's Mix/Access/Arrival specs into its op
// source, each spec seeded from base.
func (p Phase) generator(base uint64) (*workload.GeneratorSource, error) {
	access, err := p.Access.Build(base)
	if err != nil {
		return nil, fmt.Errorf("access: %w", err)
	}
	spec := workload.Spec{
		Name:   p.Name,
		Mix:    p.Mix.build(),
		Access: access,
	}
	if p.InsertKeys != nil {
		if spec.InsertKeys, err = p.InsertKeys.Build(base + 13); err != nil {
			return nil, fmt.Errorf("insertKeys: %w", err)
		}
	}
	if p.MixEnd != nil {
		me := p.MixEnd.build()
		spec.MixEnd = &me
	}
	var arr workload.Arrival
	if p.Arrival != nil {
		if arr, err = p.Arrival.Build(base + 17); err != nil {
			return nil, fmt.Errorf("arrival: %w", err)
		}
	}
	return workload.FromSpec(spec, arr), nil
}

// maxCount bounds what a document may ask the runner to hold: its
// initialSize, and the total of its phases' ops. The runner allocates the
// initial keys and the per-op results up front, so a document far past it
// would crash the process that runs it instead of failing to parse.
const maxCount = 1 << 28

// Build converts the document into a runnable scenario.
func (s Scenario) Build() (core.Scenario, error) {
	out := core.Scenario{
		Name:        s.Name,
		Seed:        s.Seed,
		InitialSize: s.InitialSize,
		TrainBefore: s.TrainBefore,
		IntervalNs:  s.IntervalNs,
		SLANs:       s.SLANs,
	}
	if s.InitialSize > maxCount {
		return core.Scenario{}, fmt.Errorf("config: initialSize %d above %d", s.InitialSize, maxCount)
	}
	if s.Session != nil {
		out.Session = &workload.SessionSpec{GapNs: s.Session.GapNs, BudgetNs: s.Session.BudgetNs}
	}
	gen, err := s.InitialData.Build(s.Seed + 1)
	if err != nil {
		return core.Scenario{}, fmt.Errorf("config: initialData: %w", err)
	}
	out.InitialData = gen
	traces := make(map[string]*workload.Trace)
	for i, p := range s.Phases {
		base := s.Seed + uint64(i+2)*1009
		// Only mix's limit is used: the generator blends fractions, not limits.
		if l := p.Mix.ScanLimit; l < 0 || l > workload.MaxScanLimit {
			return core.Scenario{}, fmt.Errorf("config: phase %d scanLimit %d outside [0,%d] (0 = default 100)", i, l, workload.MaxScanLimit)
		}
		var src workload.Source
		ops := p.Ops
		if p.Source != nil && p.Source.Kind != "" && p.Source.Kind != "generator" {
			var n int
			if src, n, err = p.Source.build(base, traces); err != nil {
				return core.Scenario{}, fmt.Errorf("config: phase %d source: %w", i, err)
			}
			if ops == 0 {
				ops = n // trace replay defaults to the full recording
			}
			if n > 0 && ops > n {
				return core.Scenario{}, fmt.Errorf("config: phase %d asks for %d ops but the trace holds %d", i, ops, n)
			}
		} else if src, err = p.generator(base); err != nil {
			return core.Scenario{}, fmt.Errorf("config: phase %d %w", i, err)
		}
		out.Phases = append(out.Phases, core.Phase{
			Name:          p.Name,
			Ops:           ops,
			Source:        src,
			RetrainBefore: p.RetrainBefore,
		})
	}
	total := 0
	for i, p := range out.Phases {
		if p.Ops > maxCount-total {
			return core.Scenario{}, fmt.Errorf("config: phase %d ops %d bring the phases' total above %d", i, p.Ops, maxCount)
		}
		total += max(p.Ops, 0)
	}
	if err := out.Validate(); err != nil {
		return core.Scenario{}, err
	}
	return out, nil
}

// Load reads and builds a scenario from a JSON file.
func Load(path string) (core.Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return core.Scenario{}, fmt.Errorf("config: %w", err)
	}
	return Parse(data)
}

// Parse builds a scenario from JSON bytes.
func Parse(data []byte) (core.Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return core.Scenario{}, fmt.Errorf("config: parsing: %w", err)
	}
	return s.Build()
}
