package figures

import (
	"bytes"
	"testing"

	"repro/internal/report"
)

func TestFig1fShape(t *testing.T) {
	t.Parallel()
	res := result[*Fig1fResult](t, "fig1f")
	if len(res.Cold) != 3 {
		t.Fatalf("cold panel has %d policies", len(res.Cold))
	}
	lo, hi := 1.0, 0.0
	for _, c := range res.Cold {
		if c.Misses == 0 {
			t.Fatalf("%s: cold run with zero misses — pool was not cold", c.Policy)
		}
		if c.HitRatio <= 0 || c.HitRatio >= 1 {
			t.Fatalf("%s: hit ratio %v out of (0,1)", c.Policy, c.HitRatio)
		}
		if c.PagesRead != c.Misses {
			t.Fatalf("%s: pages read %d != misses %d on a read-only phase",
				c.Policy, c.PagesRead, c.Misses)
		}
		if c.HitRatio < lo {
			lo = c.HitRatio
		}
		if c.HitRatio > hi {
			hi = c.HitRatio
		}
	}
	// The acceptance bar: the same workload through the same pool size
	// must show a measurable hit-ratio difference between policies.
	if hi-lo < 0.01 {
		t.Fatalf("eviction policies indistinguishable: hit ratios span [%v, %v]", lo, hi)
	}

	// IO-bound sweep: more pool => higher hit ratio => higher throughput.
	for i := 1; i < len(res.IOBound); i++ {
		prev, cur := res.IOBound[i-1], res.IOBound[i]
		if cur.HitRatio <= prev.HitRatio {
			t.Fatalf("hit ratio not increasing with pool size: %d pages %v vs %d pages %v",
				prev.Pages, prev.HitRatio, cur.Pages, cur.HitRatio)
		}
		if cur.Throughput <= prev.Throughput {
			t.Fatalf("throughput not increasing with pool size: %d pages %v vs %d pages %v",
				prev.Pages, prev.Throughput, cur.Pages, cur.Throughput)
		}
	}
	first, last := res.IOBound[0], res.IOBound[len(res.IOBound)-1]
	if last.HitRatio-first.HitRatio < 0.1 {
		t.Fatalf("pool sweep too flat: %v -> %v", first.HitRatio, last.HitRatio)
	}

	// Write-heavy: the in-place tree must write back far more pages than
	// the log-structured store, and only the LSM pays publish fsyncs.
	if len(res.WriteHeavy) != 2 {
		t.Fatalf("write panel has %d SUTs", len(res.WriteHeavy))
	}
	byName := map[string]Fig1fWrite{}
	for _, p := range res.WriteHeavy {
		byName[p.SUT] = p
	}
	bt, ok := byName["disk-btree"]
	if !ok {
		t.Fatal("no disk-btree in write panel")
	}
	lsm, ok := byName["disk-lsm"]
	if !ok {
		t.Fatal("no disk-lsm in write panel")
	}
	if bt.PagesWritten <= lsm.PagesWritten {
		t.Fatalf("in-place tree wrote %d pages, LSM %d — write amplification story inverted",
			bt.PagesWritten, lsm.PagesWritten)
	}
	if lsm.Fsyncs == 0 {
		t.Fatal("LSM published runs without a single fsync")
	}
	if len(res.Results) != len(res.Cold)+len(res.IOBound)+len(res.WriteHeavy) {
		t.Fatalf("raw results incomplete: %d", len(res.Results))
	}
}

// TestFig1fParallelBitIdentical: the panel fans its runs out under
// -parallel; panels and raw results must match the serial run exactly,
// and every raw result marshals with its storage block.
func TestFig1fParallelBitIdentical(t *testing.T) {
	res := checkParallel[*Fig1fResult](t, "fig1f")
	for key, r := range res.Results {
		data, err := report.MarshalResult(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"storage"`)) {
			t.Fatalf("%s: marshalled result has no storage block", key)
		}
	}
}
