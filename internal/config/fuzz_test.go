package config

import (
	"encoding/json"
	"fmt"
	"testing"
)

// fuzzMaxCount caps the counts that make building a document allocate or
// sample up front: generator clusters and segments, schedule segments and
// controller calibrations (4096 draws per side each), phases.
const fuzzMaxCount = 64

// buildable reports whether building doc stays small: every count under
// fuzzMaxCount and no phase that reads its trace from a file path.
func buildable(doc Scenario) bool {
	n := len(doc.Phases)
	gen := func(g *GenSpec) {
		if g != nil {
			n += max(g.Clusters, g.Segments, 0)
		}
	}
	var drift func(d *DriftSpec)
	drift = func(d *DriftSpec) {
		if d == nil {
			return
		}
		n += len(d.Segments)
		if d.Kind == "controller" {
			n += 8
		}
		gen(d.Gen)
		gen(d.StartGen)
		gen(d.EndGen)
		for i := range d.Segments {
			drift(&d.Segments[i])
		}
	}
	gen(&doc.InitialData)
	for _, p := range doc.Phases {
		if p.Source != nil && p.Source.Path != "" {
			return false
		}
		drift(&p.Access)
		drift(p.InsertKeys)
	}
	return n <= fuzzMaxCount
}

// FuzzConfig feeds Parse foreign bytes, as `lsbench -config` and the
// service's inline specs do: it must not panic, and a document it accepts
// must be a runnable scenario with at least one phase.
func FuzzConfig(f *testing.F) {
	const minimal = `{"name":"m","initialData":{"kind":"uniform"},"phases":[{"ops":1,"access":%s%s}]}`
	f.Add([]byte(fmt.Sprintf(minimal, `{"gen":{"kind":"uniform"}}`, "")))
	// Documents that once reached a generator constructor's panic.
	for _, arrival := range []string{`{"kind":"session","thinkNs":10}`, `{"kind":"session","thinkNs":1}`} {
		f.Add([]byte(fmt.Sprintf(minimal, `{"gen":{"kind":"uniform"}}`, `,"arrival":`+arrival)))
	}
	for _, access := range []string{`{"kind":"hotspot","hotFraction":5}`, `{"kind":"hotspot","windowSize":2}`} {
		f.Add([]byte(fmt.Sprintf(minimal, access, "")))
	}
	// A document that parsed and then crashed the runner: 2^62 ops.
	f.Add([]byte(`{"name":"m","initialData":{"kind":"uniform"},"phases":[{"ops":4611686018427387904,"access":{"gen":{"kind":"uniform"}}}]}`))
	// A document that parsed and then panicked in the collector: a negative SLA.
	f.Add([]byte(`{"name":"m","initialData":{"kind":"uniform"},"slaNs":-5,"phases":[{"ops":1,"access":{"gen":{"kind":"uniform"}}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var doc Scenario
		if json.Unmarshal(data, &doc) == nil && !buildable(doc) {
			t.Skip("builds more than the fuzz cap")
		}
		sc, err := Parse(data)
		if err != nil {
			return
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("Parse accepted a scenario Validate rejects: %v", err)
		}
		if len(sc.Phases) < 1 {
			t.Fatal("Parse accepted a scenario with no phases")
		}
	})
}
