package kv

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/index/indextest"
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

// entries returns the live keys as one sorted run of entries: what a full
// compaction with an empty memtable leaves.
func (m *model) entries() []entry {
	out := make([]entry, len(m.keys))
	for i, k := range m.keys {
		out[i] = entry{key: k, val: m.vals[k]}
	}
	return out
}

// flatMem is the memtable as one flat sorted array — the layout the blocked
// memtable replaced — so that every flushed run can be checked against it.
type flatMem []entry

// put writes e and reports whether its key is new to the memtable.
func (f *flatMem) put(e entry) bool {
	i := sort.Search(len(*f), func(i int) bool { return (*f)[i].key >= e.key })
	if i < len(*f) && (*f)[i].key == e.key {
		(*f)[i] = e
		return false
	}
	*f = slices.Insert(*f, i, e)
	return true
}

// frontier is op's key index in a frontier order: op itself, or a quarter
// of the time an earlier one, so that gets hit and puts overwrite.
func frontier(r *stats.RNG, op int) uint64 {
	if r.Intn(4) == 0 {
		return r.Uint64() % uint64(op+1)
	}
	return uint64(op)
}

// keyOrders are the key streams TestRunStoresConform drives: each returns
// op's key for a memtable of memCap entries. The random universes outgrow
// the memtable, so every order flushes.
var keyOrders = []struct {
	name string
	keys func(r *stats.RNG, memCap int) func(op int) uint64
}{
	{"uniform", func(r *stats.RNG, memCap int) func(int) uint64 {
		n := uint64(max(3000, 4*memCap))
		return func(int) uint64 { return stats.Mix64(r.Uint64() % n) }
	}},
	{"ascending", func(r *stats.RNG, _ int) func(int) uint64 {
		return func(op int) uint64 { return frontier(r, op) << 20 }
	}},
	{"descending", func(r *stats.RNG, _ int) func(int) uint64 {
		return func(op int) uint64 { return (1<<40 - frontier(r, op)) << 20 }
	}},
	{"zipf", func(r *stats.RNG, memCap int) func(int) uint64 {
		z := stats.NewZipf(r.Split(), 0.9, uint64(16*memCap))
		return func(int) uint64 { return stats.Mix64(z.Next()) }
	}},
}

// TestRunStoresConform drives one seeded stream of puts, overwrites,
// deletes, gets, bounded scans and re-tunes through the engine over each
// run store and through the model, and checks every answer, for every key
// order and a memtable of one block, of a block and a part, and of several
// blocks. The stream crosses many flushes and compactions; the re-tunes
// move MaxRuns both ways, so SetKnobs compacts some of the time, and double
// the memtable now and then. Each put or delete must flush exactly when a
// flat sorted memtable would, and the run it flushes must be that
// memtable's entries (or, when the flush compacted, every live key). Every
// counter the engine keeps itself must then agree between the two stores —
// only RunProbes, which each run kind counts in its own unit, may differ.
func TestRunStoresConform(t *testing.T) {
	for _, memCap := range []int{64, 700, 4096} {
		for _, order := range keyOrders {
			t.Run(fmt.Sprintf("%s/cap=%d", order.name, memCap), func(t *testing.T) {
				conform(t, memCap, order.keys)
			})
		}
	}
}

func conform(t *testing.T, memCap int, order func(r *stats.RNG, memCap int) func(op int) uint64) {
	knobs := Knobs{MemtableCap: memCap, MaxRuns: 3, SparseEvery: 8, BloomBitsPerKey: 10}
	stores := []struct {
		name string
		s    *Store
	}{
		{"slice runs", Open(knobs)},
		{"paged runs", newDiskStore(t, knobs)},
	}
	m := &model{vals: map[uint64]uint64{}}
	var flat flatMem
	r := stats.NewRNG(20210419)
	key := order(r, memCap)
	nOps := max(30000, 16*memCap)
	for op := 0; op < nOps; op++ {
		k := key(op)
		switch x := r.Intn(100); {
		case x < 52:
			e := entry{key: k, dead: true}
			if x < 40 {
				e = entry{key: k, val: r.Uint64()}
				m.put(k, e.val)
			} else {
				m.del(k)
			}
			flush := flat.put(e) && len(flat) >= knobs.MemtableCap
			for _, st := range stores {
				was := st.s.Counters()
				if e.dead {
					st.s.Delete(k)
				} else {
					st.s.Put(k, e.val)
				}
				now := st.s.Counters()
				if flushed := now.Flushes != was.Flushes; flushed != flush {
					t.Fatalf("op %d, %s: flushed %v at %d memtable keys, want %v", op, st.name, flushed, len(flat), flush)
				}
				if !flush {
					continue
				}
				want := []entry(flat)
				if now.Compactions != was.Compactions {
					want = m.entries()
				}
				if got := st.s.runs[0].data.all(); !slices.Equal(got, want) {
					t.Fatalf("op %d, %s: flushed run of %d entries is not the flat model's %d", op, st.name, len(got), len(want))
				}
			}
			if flush {
				flat = flat[:0]
			}
		case x < 82:
			wantV, wantOK := m.vals[k]
			for _, st := range stores {
				if v, ok := st.s.Get(k); ok != wantOK || v != wantV {
					t.Fatalf("op %d, %s: Get(%d) = (%d, %v), want (%d, %v)", op, st.name, k, v, ok, wantV, wantOK)
				}
			}
		case x < 99:
			limit := 1 + r.Intn(40)
			want := indextest.ScanCount(m.keys, k, limit)
			for _, st := range stores {
				if n := st.s.Scan(k, limit); n != want {
					t.Fatalf("op %d, %s: Scan(%d, %d) visited %d, want %d", op, st.name, k, limit, n, want)
				}
			}
		default:
			knobs.MaxRuns = 1 + r.Intn(5)
			knobs.MemtableCap = memCap << r.Intn(2)
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

	// The floors scale with the stream: 30 000 ops over a 64-key memtable
	// must flush at least 100 times and compact at least 50, a larger
	// memtable proportionally fewer, a longer stream more.
	minFlushes := uint64(nOps * 64 / (300 * memCap))
	sc, pc := stores[0].s.Counters(), stores[1].s.Counters()
	if sc.Flushes < minFlushes || sc.Compactions < max(1, minFlushes/2) || sc.BloomNegatives == 0 || sc.MemtableHits == 0 {
		t.Fatalf("stream too tame to prove anything (floors: %d flushes, %d compactions): %+v", minFlushes, max(1, minFlushes/2), sc)
	}
	if sc.RunProbes == 0 || pc.RunProbes == 0 {
		t.Fatalf("a store never probed a run: slice %d, paged %d", sc.RunProbes, pc.RunProbes)
	}
	sc.RunProbes, pc.RunProbes = 0, 0
	if sc != pc {
		t.Fatalf("engine counters differ between run stores:\n slice %+v\n paged %+v", sc, pc)
	}
}
