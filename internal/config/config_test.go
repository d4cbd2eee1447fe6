package config

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/workload"
)

const sampleJSON = `{
  "name": "sample",
  "seed": 42,
  "initialData": {"kind": "zipf", "theta": 1.1, "universe": 1048576},
  "initialSize": 5000,
  "trainBefore": true,
  "intervalNs": 200000,
  "phases": [
    {
      "name": "steady",
      "ops": 2000,
      "mix": {"get": 0.9, "put": 0.1},
      "access": {"kind": "static", "gen": {"kind": "zipf", "theta": 1.1, "universe": 1048576}}
    },
    {
      "name": "shift",
      "ops": 2000,
      "mix": {"get": 0.5, "put": 0.5},
      "access": {"kind": "abrupt", "at": 0.3,
        "startGen": {"kind": "uniform"},
        "endGen": {"kind": "clustered", "clusters": 10}},
      "insertKeys": {"kind": "static", "gen": {"kind": "sequential", "maxGap": 8}},
      "arrival": {"kind": "diurnal", "rate": 500000, "amplitude": 0.4, "cycles": 2},
      "retrainBefore": true
    }
  ]
}`

func TestParseAndRun(t *testing.T) {
	scenario, err := Parse([]byte(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if scenario.Name != "sample" || len(scenario.Phases) != 2 {
		t.Fatalf("scenario = %+v", scenario)
	}
	if !scenario.Phases[1].RetrainBefore {
		t.Fatal("retrainBefore lost")
	}
	res, err := core.NewRunner().Run(scenario, core.NewRMISUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4000 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestParseDeterministic(t *testing.T) {
	a, err := Parse([]byte(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Parse([]byte(sampleJSON))
	ra, err := core.NewRunner().Run(a, core.NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := core.NewRunner().Run(b, core.NewBTreeSUT())
	if ra.DurationNs != rb.DurationNs {
		t.Fatal("config-built scenarios not deterministic")
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(sampleJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// streamDigest is FNV-1a over the little-endian bytes of keys: the form the
// kind tables below pin a drawn stream in.
func streamDigest(keys []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(b[:], k)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestAllGeneratorKinds: every GenSpec kind builds a distgen.Generator whose
// first 1 024 keys at seed 7 are the ones commit b60e766 drew through
// Generator.Keys (first key and stream digest recorded there).
func TestAllGeneratorKinds(t *testing.T) {
	kinds := []struct {
		kind   string
		first  uint64
		digest string
	}{
		{"uniform", 223579788653171509, "13c53dbd48095e6c"},
		{"normal", 592648186081763072, "56123dcd2cac6f08"},
		{"lognormal", 6032528054289, "2017b1c6502f1c70"},
		{"zipf", 472439530612326400, "bfd255ac674a768a"},
		{"clustered", 472057510534469312, "88504dc8fde34a49"},
		{"segmented", 467305061046307722, "c7a3f33453797a8b"},
		{"sequential", 54, "f494831e5a32f8ee"},
		{"email", 8301105420960427126, "dcec28a77bbcb029"},
	}
	for _, k := range kinds {
		g, err := GenSpec{Kind: k.kind}.Build(7)
		if err != nil {
			t.Fatalf("%s: %v", k.kind, err)
		}
		keys := make([]uint64, 1024)
		g.Fill(keys)
		if keys[0] != k.first || streamDigest(keys) != k.digest {
			t.Errorf("%s: stream moved: first key %d digest %s, want %d %s",
				k.kind, keys[0], streamDigest(keys), k.first, k.digest)
		}
	}
	if _, err := (GenSpec{Kind: "nope"}).Build(1); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestAllDriftKinds is the same round trip for every DriftSpec kind: 1 024
// one-key draws at progress i/1024, seed 7, against the streams b60e766 drew
// through Drift.KeysAt — except growskew, re-pinned when GrowingSkew.FillAt
// stopped reseeding its sampler on every off-grid call (it repeated one key
// until theta crossed a 0.01 grid line).
func TestAllDriftKinds(t *testing.T) {
	u := &GenSpec{Kind: "uniform"}
	z := &GenSpec{Kind: "zipf"}
	e := &GenSpec{Kind: "email"}
	specs := []struct {
		name   string
		spec   DriftSpec
		first  uint64
		digest string
	}{
		{"static", DriftSpec{Kind: "static", Gen: z}, 472439530612326400, "bfd255ac674a768a"},
		{"blend", DriftSpec{Kind: "blend", StartGen: z, EndGen: u}, 773467947233443840, "2dc573e1e9aaa5bb"},
		{"abrupt", DriftSpec{Kind: "abrupt", StartGen: z, EndGen: e, At: 0.4}, 773467947233443840, "478d0b1417b5a325"},
		{"hotspot", DriftSpec{Kind: "hotspot"}, 35098071301801488, "000d5413a8a61bb4"},
		{"growskew", DriftSpec{Kind: "growskew"}, 1050727396363206656, "7ee5b35ab6f26eb8"},
		{"controller", DriftSpec{Kind: "controller", StartGen: z, EndGen: u, Factor: 0.5, Profile: "ramp", Normalize: 0.25},
			773467947233443840, "ead35cbf07276736"},
		{"controller-email", DriftSpec{Kind: "controller", StartGen: e, EndGen: u, Factor: 0.7},
			7954871495453992305, "57edbc09d2d7712c"},
		{"schedule", DriftSpec{Kind: "schedule", Segments: []DriftSpec{
			{Kind: "static", Gen: u}, {Kind: "hotspot"}, {Kind: "blend", StartGen: e, EndGen: z}}},
			223579788653171509, "4fb588d50d09a67e"},
	}
	for _, s := range specs {
		d, err := s.spec.Build(7)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		keys := make([]uint64, 1024)
		for i := range keys {
			d.FillAt(float64(i)/1024, keys[i:i+1])
		}
		if keys[0] != s.first || streamDigest(keys) != s.digest {
			t.Errorf("%s: stream moved: first key %d digest %s, want %d %s",
				s.name, keys[0], streamDigest(keys), s.first, s.digest)
		}
	}
	bad := []DriftSpec{
		{Kind: "static"},
		{Kind: "blend", StartGen: u},
		{Kind: "schedule"},
		{Kind: "mystery"},
	}
	for _, s := range bad {
		if _, err := s.Build(1); err == nil {
			t.Fatalf("%s: invalid spec accepted", s.Kind)
		}
	}
}

func TestAllArrivalKinds(t *testing.T) {
	specs := []ArrivalSpec{
		{Kind: "closed"},
		{Kind: ""},
		{Kind: "poisson", Rate: 1000},
		{Kind: "diurnal", Rate: 1000},
		{Kind: "bursty", Rate: 1000},
	}
	for _, s := range specs {
		a, err := s.Build(1)
		if err != nil {
			t.Fatalf("%q: %v", s.Kind, err)
		}
		if g := a.NextGap(0.5); g < 0 {
			t.Fatalf("%q: negative gap", s.Kind)
		}
	}
	bad := []ArrivalSpec{
		{Kind: "poisson"},
		{Kind: "diurnal"},
		{Kind: "bursty"},
		{Kind: "warp"},
	}
	for _, s := range bad {
		if _, err := s.Build(1); err == nil {
			t.Fatalf("%q: invalid spec accepted", s.Kind)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad-json":   `{`,
		"no-phases":  `{"name":"x","initialData":{"kind":"uniform"},"initialSize":10}`,
		"bad-gen":    `{"name":"x","initialData":{"kind":"warp"},"initialSize":10,"phases":[{"name":"p","ops":5,"mix":{"get":1},"access":{"kind":"static","gen":{"kind":"uniform"}}}]}`,
		"bad-access": `{"name":"x","initialData":{"kind":"uniform"},"initialSize":10,"phases":[{"name":"p","ops":5,"mix":{"get":1},"access":{"kind":"static"}}]}`,
	}
	for name, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Fatalf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), "config:") && !strings.Contains(err.Error(), "core:") {
			t.Fatalf("%s: unhelpful error %v", name, err)
		}
	}
}

// TestNegativeSLARejected: a negative slaNs is a config error that names
// the field. It once parsed cleanly and then panicked inside the metrics
// collector at the run's first completion. 0, which calibrates the SLA,
// stays accepted.
func TestNegativeSLARejected(t *testing.T) {
	const doc = `{"name":"x","initialData":{"kind":"uniform"},"initialSize":10,"slaNs":%d,"phases":[{"ops":5,"access":{"gen":{"kind":"uniform"}}}]}`
	if _, err := Parse([]byte(fmt.Sprintf(doc, -5))); err == nil || !strings.Contains(err.Error(), "slaNs") {
		t.Fatalf("slaNs -5: err = %v, want an slaNs error", err)
	}
	if _, err := Parse([]byte(fmt.Sprintf(doc, 0))); err != nil {
		t.Fatalf("slaNs 0: %v", err)
	}
}

// writeSampleTrace records a short two-phase trace to dir and returns its
// path and raw bytes.
func writeSampleTrace(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := workload.NewTraceWriter(&buf, "cfg", 9)
	src := workload.NewSource(workload.Spec{
		Mix:    workload.Balanced,
		Access: distgen.Static{G: distgen.NewZipfKeys(3, 1.1, 1<<16)},
	}, workload.NewPoisson(4, 200_000), 5)
	ops := make([]workload.Op, 600)
	gaps := make([]int64, 600)
	src.Fill(ops, gaps, 0, 600)
	w.BeginPhase(0, "a", 400)
	w.Append(ops[:400], gaps[:400])
	w.BeginPhase(1, "b", 200)
	w.Append(ops[400:], gaps[400:])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "sample.lstrace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

func TestSourceClauseTrace(t *testing.T) {
	path, raw := writeSampleTrace(t, t.TempDir())

	doc := Scenario{
		Name:        "replay",
		Seed:        7,
		InitialData: GenSpec{Kind: "uniform"},
		InitialSize: 1000,
		Phases: []Phase{
			{Name: "all", Source: &SourceSpec{Kind: "trace", Path: path}},
		},
	}
	sc, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Phases[0].Ops != 600 || sc.Phases[0].Source == nil {
		t.Fatalf("phase = %+v", sc.Phases[0])
	}
	res, err := core.NewRunner().Run(sc, core.NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 600 {
		t.Fatalf("completed = %d", res.Completed)
	}

	// Per-phase selection and inline data, via the JSON round trip the
	// service uses.
	one := 1
	doc.Phases = []Phase{{Name: "b-only", Source: &SourceSpec{Kind: "trace", Data: raw, Phase: &one}}}
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Phases[0].Ops != 200 {
		t.Fatalf("phase ops = %d, want 200 (trace phase 1)", sc2.Phases[0].Ops)
	}
}

func TestSourceClauseSynth(t *testing.T) {
	path, _ := writeSampleTrace(t, t.TempDir())
	doc := Scenario{
		Name:        "synth",
		Seed:        7,
		InitialData: GenSpec{Kind: "uniform"},
		InitialSize: 1000,
		Phases: []Phase{
			// Unbounded synth: ops must be explicit.
			{Name: "fit", Ops: 2500, Source: &SourceSpec{Kind: "synth", Path: path, RepeatFrac: 0.25}},
		},
	}
	sc, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewRunner().Run(sc, core.NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.Outcomes.Failed != 2500 {
		t.Fatalf("completed = %d", res.Completed)
	}

	// Same config → same seeded synth stream → identical results.
	sc2, err := doc.Build()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.NewRunner().Run(sc2, core.NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res2.Completed || res.DurationNs != res2.DurationNs {
		t.Fatal("synth-backed config runs are not deterministic")
	}
}

func TestSourceClauseErrors(t *testing.T) {
	path, _ := writeSampleTrace(t, t.TempDir())
	base := func() Scenario {
		return Scenario{
			Name:        "bad",
			Seed:        1,
			InitialData: GenSpec{Kind: "uniform"},
			InitialSize: 100,
		}
	}
	bad9 := 9
	for name, ph := range map[string]Phase{
		"unknown kind":    {Name: "p", Ops: 10, Source: &SourceSpec{Kind: "mystery", Path: path}},
		"missing ref":     {Name: "p", Ops: 10, Source: &SourceSpec{Kind: "trace"}},
		"no such file":    {Name: "p", Ops: 10, Source: &SourceSpec{Kind: "trace", Path: path + ".nope"}},
		"phase range":     {Name: "p", Ops: 10, Source: &SourceSpec{Kind: "trace", Path: path, Phase: &bad9}},
		"bad repeat":      {Name: "p", Ops: 10, Source: &SourceSpec{Kind: "synth", Path: path, RepeatFrac: 1.5}},
		"synth no ops":    {Name: "p", Source: &SourceSpec{Kind: "synth", Path: path}},
		"trace too short": {Name: "p", Ops: 10_000, Source: &SourceSpec{Kind: "trace", Path: path}},
	} {
		doc := base()
		doc.Phases = []Phase{ph}
		if _, err := doc.Build(); err == nil {
			t.Errorf("%s: Build succeeded", name)
		}
	}
}

// TestScanLimitMustFitWire: the netdriver frame carries a scan limit in 32
// bits, so a config may not ask for more (nor for a negative one); 0 keeps
// the default.
func TestScanLimitMustFitWire(t *testing.T) {
	doc := func(lim int) []byte {
		return []byte(fmt.Sprintf(`{"name":"x","initialData":{"kind":"uniform"},"initialSize":10,"phases":[{"name":"p","ops":5,`+
			`"mix":{"scan":1,"scanLimit":%d},"access":{"kind":"static","gen":{"kind":"uniform"}}}]}`, lim))
	}
	for _, lim := range []int{1 << 32, -1} {
		if _, err := Parse(doc(lim)); err == nil || !strings.Contains(err.Error(), "scanLimit") {
			t.Errorf("scanLimit %d: err = %v, want a scanLimit error", lim, err)
		}
	}
	s, err := Parse(doc(workload.MaxScanLimit))
	if err != nil {
		t.Fatal(err)
	}
	op := make([]workload.Op, 1)
	s.Phases[0].Source.Fill(op, make([]int64, 1), 0, 1)
	if op[0].Type != workload.Scan || op[0].ScanLimit != workload.MaxScanLimit {
		t.Fatalf("op %+v, want a scan of limit %d", op[0], workload.MaxScanLimit)
	}
}

// TestCountsAreBounded: initialSize and the phases' total ops may not pass
// maxCount. A document asking for 2^62 ops once parsed cleanly and then
// crashed the runner allocating its result buffers; the error names the
// field instead. The bound itself is accepted.
func TestCountsAreBounded(t *testing.T) {
	doc := func(size int, ops ...int) []byte {
		var phases []string
		for _, n := range ops {
			phases = append(phases, fmt.Sprintf(`{"ops":%d,"access":{"gen":{"kind":"uniform"}}}`, n))
		}
		return []byte(fmt.Sprintf(`{"name":"x","initialData":{"kind":"uniform"},"initialSize":%d,"phases":[%s]}`,
			size, strings.Join(phases, ",")))
	}
	for _, c := range []struct {
		doc   []byte
		field string
	}{
		{doc(10, 1<<62), "ops"},
		{doc(10, maxCount/2, maxCount/2+1), "ops"},
		{doc(10, 1<<62, 1<<62, 1<<62, 1<<62), "ops"},
		{doc(maxCount+1, 5), "initialSize"},
		{doc(1<<62, 5), "initialSize"},
	} {
		if _, err := Parse(c.doc); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: err = %v, want a %s error", c.doc, err, c.field)
		}
	}
	s, err := Parse(doc(maxCount, maxCount/2, maxCount/2))
	if err != nil {
		t.Fatal(err)
	}
	if s.InitialSize != maxCount || s.Phases[1].Ops != maxCount/2 {
		t.Fatalf("bound rejected or changed: %d, %d", s.InitialSize, s.Phases[1].Ops)
	}
}
