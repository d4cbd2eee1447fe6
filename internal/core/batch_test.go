package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pager"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// randomOps builds a deterministic mixed op sequence: point lookups
// (present and absent keys), inserts, deletes, and scans over a bounded
// key universe. It opens with the same lookup twice, so the first slot's
// extra work over the second is exactly what Load/Train left pending.
func randomOps(seed uint64, n int, universe uint64) []workload.Op {
	rng := stats.NewRNG(seed)
	ops := make([]workload.Op, n)
	ops[0] = workload.Op{Type: workload.Get, Key: universe - 2}
	ops[1] = ops[0]
	for i := 2; i < n; i++ {
		r := rng.Float64()
		key := rng.Uint64() % universe
		switch {
		case r < 0.70:
			ops[i] = workload.Op{Type: workload.Get, Key: key}
		case r < 0.85:
			ops[i] = workload.Op{Type: workload.Put, Key: key, Value: rng.Uint64()}
		case r < 0.95:
			ops[i] = workload.Op{Type: workload.Delete, Key: key}
		default:
			ops[i] = workload.Op{Type: workload.Scan, Key: key, ScanLimit: 50}
		}
	}
	return ops
}

// universe bounds the contract test's keys.
const universe = 4096

// drive builds a SUT behind wrap, loads every even key below universe into
// it, trains it when it can be, probes the structure behind the adapter's
// back — with whatever the load and the training counted, that leaves
// counter advances no op has been charged for — and feeds it ops: through
// Do when batch is 0, else through AsBatch in chunks of batch. It returns
// the OpResult stream and the buffer pool's final counters (zero for an
// in-memory SUT).
func drive(inner core.SUT, wrap func(core.SUT) core.SUT, batch int, ops []workload.Op) ([]core.OpResult, pager.Counters) {
	keys := make([]uint64, 0, universe/2)
	for k := uint64(0); k < universe; k += 2 {
		keys = append(keys, k)
	}
	s := wrap(inner)
	s.Load(keys, core.LoadValues(keys))
	if tr, ok := inner.(core.Trainable); ok {
		tr.Train()
	}
	switch u := inner.(type) {
	case *core.IndexSUT:
		u.Underlying().Get(universe / 2)
	case *core.KVSUT:
		u.Store().Get(universe / 2)
	}
	out := make([]core.OpResult, len(ops))
	if batch == 0 {
		for i, op := range ops {
			out[i] = s.Do(op)
		}
	} else {
		b := core.AsBatch(s)
		for i := 0; i < len(ops); i += batch {
			end := min(i+batch, len(ops))
			b.DoBatch(ops[i:end], out[i:end])
		}
	}
	var io pager.Counters
	if p := core.PoolOf(inner); p != nil {
		io = p.Counters()
	}
	return out, io
}

// TestBatchSequentialEquivalence is the SUT contract check. Do is the one
// place an adapter says what an op does and costs, and a batch or a wrapper
// is only a way of reaching it: every SUT in the catalog, given the same
// keys and the same randomized op stream, must return the identical
// OpResult stream and leave identical pool counters whether the ops arrive
// through a plain Do loop, through AsBatch at any batch size, through
// fault.Wrap under an op window that never opens, or (the disk pair)
// behind ColdStart plain and batched. The stream ends with a lookup of the
// whole universe, so equal results are also equal final contents. The disk
// pair runs under a pool far smaller than its data, where any reordering
// of lookups changes which pages are resident and so what later ops cost.
func TestBatchSequentialEquivalence(t *testing.T) {
	ops := randomOps(11, 3000, universe)
	for k := uint64(0); k < universe; k++ {
		ops = append(ops, workload.Op{Type: workload.Get, Key: k})
	}
	late, err := fault.ParseSpec("slow@1h-2h:factor=60", 1)
	if err != nil {
		t.Fatal(err)
	}
	bare := func(s core.SUT) core.SUT { return s }
	faulty := func(s core.SUT) core.SUT { return fault.Wrap(s, fault.NewInjector(late, &sim.Virtual{})) }
	cold := func(s core.SUT) core.SUT { return core.ColdStart(s) }

	for _, name := range core.SUTNames() {
		factory, err := core.SUTByName(name, pager.PoolKnobs{Pages: 16, Policy: "lru"})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			same := func(label string, wrap func(core.SUT) core.SUT, batch int, want []core.OpResult, wantIO pager.Counters) {
				t.Helper()
				got, gotIO := drive(factory(), wrap, batch, ops)
				for i := range ops {
					if got[i] != want[i] {
						t.Fatalf("%s batch=%d op %d (%v): got %+v, want %+v", label, batch, i, ops[i], got[i], want[i])
					}
				}
				if gotIO != wantIO {
					t.Fatalf("%s batch=%d: pool counters %+v, want %+v", label, batch, gotIO, wantIO)
				}
			}
			want, wantIO := drive(factory(), bare, 0, ops)
			// Pending work lands on the first op: the repeat of the same
			// lookup costs less.
			if want[0].Work <= want[1].Work {
				t.Fatalf("no pending load/train work on op 0: work %d, repeat %d", want[0].Work, want[1].Work)
			}
			for _, batch := range []int{1, 7, 64} {
				same("AsBatch", bare, batch, want, wantIO)
			}
			same("fault.Wrap", faulty, 0, want, wantIO)
			same("fault.Wrap", faulty, 7, want, wantIO)
			if core.PoolOf(factory()) != nil {
				want, wantIO := drive(factory(), cold, 0, ops)
				same("ColdStart", cold, 7, want, wantIO)
			}
		})
	}
}

// TestOpOutcomesObserve pins the tally semantics: Found counts hits of any
// op type, NotFound counts only missed lookups (Get/Delete), and WorkUnits
// sums everything.
func TestOpOutcomesObserve(t *testing.T) {
	var o core.OpOutcomes
	o.Observe(workload.Op{Type: workload.Get}, core.OpResult{Found: true, Work: 3})
	o.Observe(workload.Op{Type: workload.Get}, core.OpResult{Found: false, Work: 2})
	o.Observe(workload.Op{Type: workload.Delete}, core.OpResult{Found: false, Work: 1})
	o.Observe(workload.Op{Type: workload.Put}, core.OpResult{Found: false, Work: 4})
	o.Observe(workload.Op{Type: workload.Scan}, core.OpResult{Found: false, Work: 5})
	if o.Found != 1 || o.NotFound != 2 || o.WorkUnits != 15 {
		t.Fatalf("outcomes = %+v, want Found=1 NotFound=2 WorkUnits=15", o)
	}
}
