package kv

import (
	"sort"
	"testing"

	"repro/internal/stats"
)

// model is the ground truth both run stores answer to: a map for point
// reads and the same keys in a sorted slice for range reads.
type model struct {
	vals map[uint64]uint64
	keys []uint64
}

func (m *model) put(k, v uint64) {
	if _, ok := m.vals[k]; !ok {
		i := sort.Search(len(m.keys), func(i int) bool { return m.keys[i] >= k })
		m.keys = append(m.keys, 0)
		copy(m.keys[i+1:], m.keys[i:])
		m.keys[i] = k
	}
	m.vals[k] = v
}

func (m *model) del(k uint64) {
	if _, ok := m.vals[k]; ok {
		i := sort.Search(len(m.keys), func(i int) bool { return m.keys[i] >= k })
		m.keys = append(m.keys[:i], m.keys[i+1:]...)
		delete(m.vals, k)
	}
}

// scan returns up to limit key/value pairs of [lo, hi], flattened.
func (m *model) scan(lo, hi uint64, limit int) []uint64 {
	var out []uint64
	for i := sort.Search(len(m.keys), func(i int) bool { return m.keys[i] >= lo }); i < len(m.keys) && m.keys[i] <= hi && len(out) < 2*limit; i++ {
		out = append(out, m.keys[i], m.vals[m.keys[i]])
	}
	return out
}

// TestRunStoresConform drives one seeded stream of puts, overwrites,
// deletes, gets, bounded scans and re-tunes through the engine over each
// run store and through the model, and checks every answer. The memtable
// is small, so the stream crosses many flushes and compactions; the
// re-tunes move MaxRuns both ways, so SetKnobs compacts some of the time.
// Every counter the engine keeps itself must then agree between the two
// stores — only RunProbes, which each run kind counts in its own unit, may
// differ.
func TestRunStoresConform(t *testing.T) {
	knobs := Knobs{MemtableCap: 64, MaxRuns: 3, SparseEvery: 8, BloomBitsPerKey: 10}
	stores := []struct {
		name string
		s    *Store
	}{
		{"slice runs", Open(knobs)},
		{"paged runs", newDiskStore(t, knobs)},
	}
	m := &model{vals: map[uint64]uint64{}}
	r := stats.NewRNG(20210419)
	for op := 0; op < 30000; op++ {
		// 3000 distinct keys spread over the whole key space: overwrites
		// and deletes of live keys are common, and so are misses.
		k := stats.Mix64(r.Uint64() % 3000)
		switch x := r.Intn(100); {
		case x < 40:
			v := r.Uint64()
			m.put(k, v)
			for _, st := range stores {
				st.s.Put(k, v)
			}
		case x < 52:
			m.del(k)
			for _, st := range stores {
				st.s.Delete(k)
			}
		case x < 82:
			wantV, wantOK := m.vals[k]
			for _, st := range stores {
				if v, ok := st.s.Get(k); ok != wantOK || v != wantV {
					t.Fatalf("op %d, %s: Get(%d) = (%d, %v), want (%d, %v)", op, st.name, k, v, ok, wantV, wantOK)
				}
			}
		case x < 99:
			hi := ^uint64(0)
			if x%2 == 0 {
				hi = k + 1<<58 // may wrap below k: an empty range
			}
			limit := 1 + r.Intn(40)
			want := m.scan(k, hi, limit)
			for _, st := range stores {
				var got []uint64
				n := st.s.Scan(k, hi, func(k, v uint64) bool {
					got = append(got, k, v)
					return len(got) < 2*limit
				})
				if n != len(want)/2 || len(got) != len(want) {
					t.Fatalf("op %d, %s: Scan(%d, %d) visited %d (%d seen), want %d", op, st.name, k, hi, n, len(got)/2, len(want)/2)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("op %d, %s: Scan(%d, %d) diverges at %d: got %d, want %d", op, st.name, k, hi, i/2, got[i], want[i])
					}
				}
			}
		default:
			knobs.MaxRuns = 1 + r.Intn(5)
			knobs.MemtableCap = 64 << r.Intn(2)
			for _, st := range stores {
				st.s.SetKnobs(knobs)
			}
		}
		if op%2500 == 0 {
			for _, st := range stores {
				if n := st.s.Len(); n != len(m.keys) {
					t.Fatalf("op %d, %s: Len = %d, want %d", op, st.name, n, len(m.keys))
				}
			}
		}
	}

	mem, disk := stores[0].s.Counters(), stores[1].s.Counters()
	if mem.Flushes < 100 || mem.Compactions < 20 || mem.BloomNegatives == 0 || mem.MemtableHits == 0 {
		t.Fatalf("stream too tame to prove anything: %+v", mem)
	}
	if mem.RunProbes == 0 || disk.RunProbes == 0 {
		t.Fatalf("a store never probed a run: slice %d, paged %d", mem.RunProbes, disk.RunProbes)
	}
	mem.RunProbes, disk.RunProbes = 0, 0
	if mem != disk {
		t.Fatalf("engine counters differ between run stores:\n slice %+v\n paged %+v", mem, disk)
	}
}
