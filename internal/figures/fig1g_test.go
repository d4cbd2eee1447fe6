package figures

import (
	"bytes"
	"testing"

	"repro/internal/report"
)

// TestFig1gShape pins the shape of the drift sweep: at least
// four intensity points and three SUT families per panel, with the drift
// knob actually steering the metric quadruple — learned structures
// degrade with D while the B+ tree baseline stays flat, and the adaptive
// optimizer holds its latency while the static sample collapses.
func TestFig1gShape(t *testing.T) {
	t.Parallel()
	res := result[*Fig1gResult](t, "fig1g")
	if len(res.Intensities) < 4 {
		t.Fatalf("only %d intensity points, need >= 4", len(res.Intensities))
	}
	nd := len(res.Intensities)

	// Data panel: full grid, divergence monotone in D and zero at D=0.
	if len(res.Data) != nd*3 {
		t.Fatalf("data panel has %d cells, want %d", len(res.Data), nd*3)
	}
	cell := func(d float64, sut string) Fig1gData {
		for _, c := range res.Data {
			if c.D == d && c.SUT == sut {
				return c
			}
		}
		t.Fatalf("no data cell for D=%v %s", d, sut)
		return Fig1gData{}
	}
	dmin, dmax := res.Intensities[0], res.Intensities[nd-1]
	for _, c := range res.Data {
		if c.Throughput <= 0 {
			t.Fatalf("%s D=%v: zero throughput", c.SUT, c.D)
		}
		if c.D == 0 && c.Divergence != 0 {
			t.Fatalf("%s: non-zero divergence %v at D=0", c.SUT, c.Divergence)
		}
	}
	for _, sut := range []string{"btree", "rmi", "alex"} {
		prev := -1.0
		for _, d := range res.Intensities {
			c := cell(d, sut)
			if c.Divergence < prev {
				t.Fatalf("%s: divergence not monotone in D at %v", sut, d)
			}
			prev = c.Divergence
		}
	}
	// The baseline shrugs drift off; the learned in-place index pays.
	for _, d := range res.Intensities {
		if c := cell(d, "btree"); c.ViolationRate > 0.01 {
			t.Fatalf("btree D=%v: violation rate %v — baseline should be flat", d, c.ViolationRate)
		}
	}
	a0, a1 := cell(dmin, "alex"), cell(dmax, "alex")
	if a1.Throughput >= a0.Throughput {
		t.Fatalf("alex throughput did not degrade with drift: %v -> %v", a0.Throughput, a1.Throughput)
	}
	if a1.ViolationRate <= a0.ViolationRate {
		t.Fatalf("alex violations did not grow with drift: %v -> %v", a0.ViolationRate, a1.ViolationRate)
	}

	// Query panel: full grid over three optimizer families.
	if len(res.Query) != nd*3 {
		t.Fatalf("query panel has %d cells, want %d", len(res.Query), nd*3)
	}
	qcell := func(d float64, sys string) Fig1gQuery {
		for _, c := range res.Query {
			if c.D == d && c.System == sys {
				return c
			}
		}
		t.Fatalf("no query cell for D=%v %s", d, sys)
		return Fig1gQuery{}
	}
	for _, c := range res.Query {
		if c.Throughput <= 0 {
			t.Fatalf("%s D=%v: zero query throughput", c.System, c.D)
		}
		if c.System == "learned-steered" && c.TrainWork == 0 {
			t.Fatalf("learned-steered D=%v: no training work recorded", c.D)
		}
		if c.System != "learned-steered" && c.TrainWork != 0 {
			t.Fatalf("%s D=%v: static system reports training work %d", c.System, c.D, c.TrainWork)
		}
	}
	s0, s1 := qcell(dmin, "static-sample"), qcell(dmax, "static-sample")
	if s1.P99Ns <= s0.P99Ns {
		t.Fatalf("static-sample p99 did not degrade with query drift: %v -> %v", s0.P99Ns, s1.P99Ns)
	}

	// Session panel: the arrival stream is intensity-independent, so the
	// session count is one number everywhere; the met-rate is what moves.
	if len(res.Session) != nd*3 {
		t.Fatalf("session panel has %d cells, want %d", len(res.Session), nd*3)
	}
	scell := func(d float64, sut string) Fig1gSession {
		for _, c := range res.Session {
			if c.D == d && c.SUT == sut {
				return c
			}
		}
		t.Fatalf("no session cell for D=%v %s", d, sut)
		return Fig1gSession{}
	}
	want := res.Session[0].Sessions
	for _, c := range res.Session {
		if c.Sessions != want {
			t.Fatalf("%s D=%v: %d sessions, others saw %d — arrival stream not shared",
				c.SUT, c.D, c.Sessions, want)
		}
		if c.MetRate <= 0 || c.MetRate > 1 {
			t.Fatalf("%s D=%v: met rate %v out of (0,1]", c.SUT, c.D, c.MetRate)
		}
		if c.MakespanP99Ns <= 0 {
			t.Fatalf("%s D=%v: empty makespan distribution", c.SUT, c.D)
		}
	}
	x0, x1 := scell(dmin, "alex"), scell(dmax, "alex")
	if x1.MetRate >= x0.MetRate {
		t.Fatalf("alex session met-rate did not degrade with drift: %v -> %v", x0.MetRate, x1.MetRate)
	}

	if len(res.Results) != 2*nd*3 {
		t.Fatalf("raw results incomplete: %d, want %d", len(res.Results), 2*nd*3)
	}
	if len(res.SQLResults) != nd*3 {
		t.Fatalf("raw SQL results incomplete: %d, want %d", len(res.SQLResults), nd*3)
	}
}

// TestFig1gParallelBitIdentical: the sweep fans scenario×SUT runs out
// under -parallel; every panel and raw result must match the serial run
// exactly, and every session-paced result marshals with its sessions
// block.
func TestFig1gParallelBitIdentical(t *testing.T) {
	res := checkParallel[*Fig1gResult](t, "fig1g")
	for key, r := range res.Results {
		data, err := report.MarshalResult(r)
		if err != nil {
			t.Fatal(err)
		}
		if r.Sessions != nil && !bytes.Contains(data, []byte(`"sessions"`)) {
			t.Fatalf("%s: marshalled result has no sessions block", key)
		}
	}
}
