package figures

import "testing"

func TestFig1eShape(t *testing.T) {
	t.Parallel()
	res := result[*Fig1eResult](t, "fig1e")
	for _, name := range []string{"rmi", "btree"} {
		if res.Results[name] == nil {
			t.Fatalf("no result for %s", name)
		}
		if res.BaselineNs[name] <= 0 {
			t.Fatalf("%s: no baseline duration", name)
		}
		if res.Specs[name] == "" {
			t.Fatalf("%s: no derived spec recorded", name)
		}
		rep := res.Reports[name]
		if rep.Crashes != 1 {
			t.Fatalf("%s: crashes = %d, want 1", name, rep.Crashes)
		}
		if rep.SlowedOps == 0 || rep.FailedOps == 0 {
			t.Fatalf("%s: fault plan did not bite: %+v", name, rep)
		}
		rec := res.Recovery[name]
		if rec.Availability <= 0 || rec.Availability >= 1 {
			t.Fatalf("%s: availability = %v, want in (0,1) under an error window",
				name, rec.Availability)
		}
		if rec.FaultEndNs <= rec.FaultStartNs {
			t.Fatalf("%s: degenerate fault span [%d,%d]", name, rec.FaultStartNs, rec.FaultEndNs)
		}
	}
	// The acceptance headline: the crash forces the learned index to
	// retrain; the B+ tree has nothing to relearn.
	if w := res.Reports["rmi"].CrashRetrainWork; w <= 0 {
		t.Fatalf("rmi crash retrain work = %d, want > 0", w)
	}
	if w := res.Reports["btree"].CrashRetrainWork; w != 0 {
		t.Fatalf("btree crash retrain work = %d, want 0", w)
	}
}

// TestFig1eParallelBitIdentical: the per-SUT baseline and faulted runs fan
// out under -parallel; ledgers, recovery views and derived plans must
// match the serial run exactly.
func TestFig1eParallelBitIdentical(t *testing.T) { checkParallel[*Fig1eResult](t, "fig1e") }
