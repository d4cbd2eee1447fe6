package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/distgen"
	"repro/internal/workload"
)

func holdoutScenario() Scenario {
	return Scenario{
		Name:        "sealed",
		Seed:        5,
		InitialData: distgen.NewUniform(6, 0, 1<<30),
		InitialSize: 500,
		Phases: []Phase{{
			Name: "steady",
			Ops:  2000,
			Source: workload.FromSpec(workload.Spec{
				Mix:    workload.ReadHeavy,
				Access: distgen.Static{G: distgen.NewUniform(7, 0, 1<<30)},
			}, nil),
		}},
	}
}

// TestHoldoutConcurrentRunOnce hammers one (hold-out, SUT) pair from many
// goroutines: exactly one attempt may win. Run under -race this also
// checks the registry's bookkeeping is data-race free — the service calls
// RunOnce from multiple queue workers.
func TestHoldoutConcurrentRunOnce(t *testing.T) {
	reg := NewHoldoutRegistry()
	if err := reg.Register("sealed", holdoutScenario); err != nil {
		t.Fatal(err)
	}
	r := NewRunner()

	const attempts = 16
	var ok, spent atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := reg.RunOnce(r, "sealed", NewBTreeSUT)
			switch {
			case err == nil && res != nil:
				ok.Add(1)
			case err != nil && strings.Contains(err.Error(), "already consumed"):
				spent.Add(1)
			default:
				t.Errorf("unexpected outcome: res=%v err=%v", res, err)
			}
		}()
	}
	wg.Wait()
	if ok.Load() != 1 || spent.Load() != attempts-1 {
		t.Fatalf("wins=%d spent=%d, want exactly one win of %d attempts", ok.Load(), spent.Load(), attempts)
	}
	if !reg.used["sealed|"+NewBTreeSUT().Name()] {
		t.Fatal("the spent attempt is not recorded")
	}
}

// TestHoldoutConcurrentRegisterAndRun interleaves Register, Names, and
// RunOnce across goroutines — the service registers hold-outs at startup
// while probes may already be listing them.
func TestHoldoutConcurrentRegisterAndRun(t *testing.T) {
	reg := NewHoldoutRegistry()
	r := NewRunner()
	names := []string{"h0", "h1", "h2", "h3"}
	var wg sync.WaitGroup
	for _, name := range names {
		name := name
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := reg.Register(name, holdoutScenario); err != nil {
				t.Errorf("register %s: %v", name, err)
				return
			}
			if _, err := reg.RunOnce(r, name, NewHashSUT); err != nil {
				t.Errorf("run %s: %v", name, err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg.Names()
		}()
	}
	wg.Wait()
	if got := len(reg.Names()); got != len(names) {
		t.Fatalf("registered %d of %d", got, len(names))
	}
	for _, name := range names {
		if !reg.used[name+"|"+NewHashSUT().Name()] {
			t.Fatalf("%s not consumed", name)
		}
	}
}

// TestHoldoutDistinctSUTsDontCollide: one run per SUT name, not one per
// registry.
func TestHoldoutDistinctSUTs(t *testing.T) {
	reg := NewHoldoutRegistry()
	if err := reg.Register("sealed", holdoutScenario); err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	if _, err := reg.RunOnce(r, "sealed", NewBTreeSUT); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.RunOnce(r, "sealed", NewRMISUT); err != nil {
		t.Fatalf("second SUT blocked by first SUT's attempt: %v", err)
	}
	if _, err := reg.RunOnce(r, "sealed", NewRMISUT); err == nil {
		t.Fatal("repeat attempt for the same SUT succeeded")
	}
}
