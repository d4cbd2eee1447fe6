package figures

import (
	"reflect"
	"strings"
	"testing"
)

func fig1eScale() Scale {
	s := SmallScale()
	s.Ops /= 2
	s.DataSize /= 2
	return s
}

func TestFig1eShape(t *testing.T) {
	res, err := Fig1e(fig1eScale(), 5, "")
	if err != nil {
		t.Fatal(err)
	}
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

func TestFig1eDeterministic(t *testing.T) {
	a, err := Fig1e(fig1eScale(), 11, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig1e(fig1eScale(), 11, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Reports, b.Reports) {
		t.Fatal("fault ledgers differ between identical runs")
	}
	if !reflect.DeepEqual(a.Recovery, b.Recovery) {
		t.Fatal("recovery stats differ between identical runs")
	}
	if !reflect.DeepEqual(a.Specs, b.Specs) {
		t.Fatal("derived specs differ between identical runs")
	}
}

func TestFig1eExplicitSpec(t *testing.T) {
	res, err := Fig1e(fig1eScale(), 5, "error@0.1ms-0.3ms:rate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	// An explicit spec applies identically to every SUT (no per-baseline
	// derivation) and disables the default crash.
	if res.Specs["rmi"] != res.Specs["btree"] {
		t.Fatalf("explicit spec diverged per SUT: %q vs %q",
			res.Specs["rmi"], res.Specs["btree"])
	}
	for name, rep := range res.Reports {
		if rep.Crashes != 0 {
			t.Fatalf("%s: explicit error-only spec produced a crash", name)
		}
		if rep.FailedOps == 0 {
			t.Fatalf("%s: error window never fired", name)
		}
	}
}

// TestFig1eRefusesWireFaults: Fig 1e runs in process, where nothing
// consults drop or delay windows, so a spec holding one is an error that
// names the kind rather than a clean 100 % availability.
func TestFig1eRefusesWireFaults(t *testing.T) {
	s := fig1eScale()
	s.Ops /= 10
	s.DataSize /= 10
	for _, kind := range []string{"drop", "delay"} {
		_, err := Fig1e(s, 5, "slow@0s-1ms;"+kind+"@0s-1s")
		if err == nil || !strings.Contains(err.Error(), kind) {
			t.Errorf("fig1e spec with %s: err = %v, want a refusal naming the kind", kind, err)
		}
	}
}
