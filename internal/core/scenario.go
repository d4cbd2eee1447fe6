package core

import (
	"fmt"

	"repro/internal/distgen"
	"repro/internal/workload"
)

// Phase is one segment of a benchmark run: Ops operations drawn from one
// op source. Distribution drift happens *within* phases (the specs carry
// Drift sources) and *between* them (consecutive phases with different
// specs are the paper's "two separate execution phases with possible
// retraining in-between").
type Phase struct {
	Name string
	Ops  int
	// Source supplies the phase's op/gap stream: workload.FromSpec(spec,
	// arrival), a trace's PhaseReader, a Synthesizer, or any other Source.
	// The runner Resets it with the phase's derived seed before drawing. It
	// is stateful like the generators behind it: runs of one scenario value
	// on several goroutines must Materialize it first, as RunAll does.
	Source workload.Source
	// RetrainBefore asks the runner to invoke Trainable.Train before the
	// phase starts (the scheduled-retraining window of §V-B).
	RetrainBefore bool
	// Workload and Arrival (nil: closed loop) are the op source of the
	// phases benchmark/ builds. Trace is the pinned stream Materialize
	// fills; it replaces any other source, and benchmark/ reads it. The
	// three go when benchmark/ builds its phases with Source.
	Workload workload.Spec
	Arrival  workload.Arrival
	Trace    *workload.TracePhase
}

// source returns the phase's op source rewound to seed — the one place
// that decides where a phase's ops come from, for a live run and for
// Materialize alike. A pinned trace replays verbatim; a Source is reset to
// the seed; otherwise the Workload spec and Arrival of a benchmark/ phase
// are wrapped in a GeneratorSource.
func (p Phase) source(seed uint64) workload.Source {
	switch {
	case p.Trace != nil:
		return workload.NewTraceReader(p.Name, p.Trace.Ops, p.Trace.Gaps)
	case p.Source != nil:
		p.Source.Reset(seed)
		return p.Source
	}
	return workload.NewSource(p.Workload, p.Arrival, seed)
}

// Scenario is a full benchmark configuration: initial database, training
// budget, and a sequence of phases. It mirrors the configuration surface
// the paper sketches in §V-B.
type Scenario struct {
	Name string
	Seed uint64
	// InitialData generates the keys bulk-loaded before the run. Note
	// that generators are stateful: a Run draws from it. For identical
	// databases across several runs, materialize once (see Materialize)
	// or set InitialKeys directly.
	InitialData distgen.Generator
	// InitialSize is the number of unique initial keys.
	InitialSize int
	// InitialKeys, when non-nil, is used verbatim (sorted unique keys)
	// instead of drawing from InitialData. RunAll sets it so every SUT
	// is loaded with the identical database.
	InitialKeys []uint64
	// TrainBefore invokes Trainable.Train after loading, before phase 1,
	// and reports it as the offline training phase.
	TrainBefore bool
	Phases      []Phase
	// IntervalNs is the reporting interval width (Fig 1c bands, Fig 1a
	// throughput samples). 0 defaults to 10ms virtual.
	IntervalNs int64
	// SLANs fixes the SLA threshold; 0 means calibrate from the
	// baseline run (paper's rule) or fall back to 20x median.
	SLANs int64
	// CalibrateAfter is how many first completions calibrate the SLA when
	// SLANs is 0 (0: the collector's default of 1000).
	CalibrateAfter int
	// Session, when non-nil, segments the operation stream into
	// interactive sessions (a gap >= Session.GapNs begins a new one) and
	// applies the per-session budget — the IDEBench-style dimension for
	// workloads paced by workload.SessionArrival. Segmentation reads the
	// gap stream itself, so it survives Materialize and trace replay.
	Session *workload.SessionSpec
}

// Materialize pins every stateful input of the scenario: the initial keys
// (drawn once from InitialData) and each phase's operation and arrival
// stream (drawn once from its source). Runs of the
// returned scenario are replays of identical inputs — required for fair
// head-to-head SUT comparison, since generators and drift processes are
// stateful and would otherwise advance between runs.
func (s Scenario) Materialize() Scenario {
	if s.InitialKeys == nil && s.InitialData != nil && s.InitialSize > 0 {
		s.InitialKeys = distgen.UniqueKeys(s.InitialData, s.InitialSize)
	}
	phases := make([]Phase, len(s.Phases))
	copy(phases, s.Phases)
	for pi := range phases {
		p := &phases[pi]
		if p.Trace != nil || p.Ops <= 0 || (p.Source == nil && p.Workload.Access == nil) {
			continue
		}
		src := p.source(workload.PhaseSeed(s.Seed, pi))
		tr := &workload.TracePhase{
			Ops:  make([]workload.Op, p.Ops),
			Gaps: make([]int64, p.Ops),
		}
		n := src.Fill(tr.Ops, tr.Gaps, 0, p.Ops)
		// A bounded source shorter than the phase surfaces as a trace
		// length mismatch in Validate rather than silently padding.
		tr.Ops = tr.Ops[:n]
		tr.Gaps = tr.Gaps[:n]
		p.Trace = tr
		p.Source = nil
	}
	s.Phases = phases
	return s
}

// Trace returns a materialized scenario's op streams as a workload.Trace.
// Generation never depends on execution, so this is what every run of the
// scenario issues: writing it down before the first SUT runs is the
// recording of all of them. It refuses a scenario that would not run or
// that still has an unpinned phase.
func (s Scenario) Trace() (*workload.Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tr := &workload.Trace{Name: s.Name, Seed: s.Seed}
	for pi, p := range s.Phases {
		if p.Trace == nil {
			return nil, fmt.Errorf("core: scenario %q phase %d is not materialized", s.Name, pi)
		}
		tr.Phases = append(tr.Phases, workload.TracePhase{
			Index: pi, Name: p.Name, DeclaredOps: p.Ops, Ops: p.Trace.Ops, Gaps: p.Trace.Gaps,
		})
	}
	return tr, nil
}

// Validate checks the scenario is runnable.
func (s Scenario) Validate() error {
	if s.InitialData == nil && s.InitialKeys == nil {
		return fmt.Errorf("core: scenario %q has no initial data", s.Name)
	}
	if s.InitialSize < 0 {
		return fmt.Errorf("core: scenario %q has negative initial size", s.Name)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("core: scenario %q has no phases", s.Name)
	}
	if s.SLANs < 0 {
		return fmt.Errorf("core: scenario %q has negative SLA (slaNs %d; 0 calibrates it)", s.Name, s.SLANs)
	}
	if s.Session != nil && s.Session.GapNs <= 0 {
		return fmt.Errorf("core: scenario %q session spec needs a positive boundary gap", s.Name)
	}
	for i, p := range s.Phases {
		if p.Ops <= 0 {
			return fmt.Errorf("core: scenario %q phase %d has no ops", s.Name, i)
		}
		if p.Workload.Access == nil && p.Trace == nil && p.Source == nil {
			return fmt.Errorf("core: scenario %q phase %d has no access distribution, trace, or source", s.Name, i)
		}
		if p.Trace != nil && (len(p.Trace.Ops) != p.Ops || len(p.Trace.Gaps) != p.Ops) {
			return fmt.Errorf("core: scenario %q phase %d trace length mismatch", s.Name, i)
		}
	}
	return nil
}

// interval returns the effective reporting interval.
func (s Scenario) interval() int64 {
	if s.IntervalNs > 0 {
		return s.IntervalNs
	}
	return 10_000_000 // 10ms
}
