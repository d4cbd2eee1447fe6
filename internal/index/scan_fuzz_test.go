package index_test

import (
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/index/alex"
	"repro/internal/index/btree"
	"repro/internal/index/hashidx"
	"repro/internal/index/indextest"
	"repro/internal/index/rmi"
)

// FuzzScanCount decodes op bytes into inserts, deletes, retrains and scans
// over small B+ tree, ALEX, RMI and hash indexes bulk-loaded with the same
// keys, and checks every scan's count against a sorted model. Keys come from
// a narrow domain so that inserts land between loaded keys, deletes hit, and
// scans start on, beside and between entries.
func FuzzScanCount(f *testing.F) {
	f.Add(uint16(300), []byte{0, 5, 9, 3, 7, 200, 1, 8, 0, 2, 6, 1, 3, 0, 255})
	f.Add(uint16(2000), []byte{1, 1, 1, 1, 1, 2, 3, 100, 64, 4, 0, 0, 3, 50, 65, 0, 9, 9, 3, 9, 1})
	f.Add(uint16(0), []byte{0, 1, 0, 2, 0, 3, 3, 0, 3, 4, 2, 1})
	f.Fuzz(func(t *testing.T, n uint16, ops []byte) {
		loaded := make([]uint64, int(n)%5000)
		for i := range loaded {
			loaded[i] = uint64(i) * 4 // room for three keys between neighbours
		}
		indexes := []index.Ordered{btree.New(4), alex.New(), rmi.New(4), hashidx.New()}
		for _, ix := range indexes {
			ix.(index.BulkLoader).BulkLoad(loaded, loaded)
		}
		live := map[uint64]bool{}
		for _, k := range loaded {
			live[k] = true
		}
		domain := uint64(len(loaded))*4 + 64
		for len(ops) >= 3 {
			kind, key, arg := ops[0]%5, (uint64(ops[1])<<8|uint64(ops[2]))*131%domain, int(ops[2])
			ops = ops[3:]
			switch kind {
			case 0, 1:
				// A short run of neighbours, so that nodes fill and split.
				for k := key; k < key+uint64(kind*7+1); k++ {
					for _, ix := range indexes {
						ix.Insert(k, k)
					}
					live[k] = true
				}
			case 2:
				for _, ix := range indexes {
					ix.Delete(key)
				}
				delete(live, key)
			case 3:
				for _, ix := range indexes {
					if tr, ok := ix.(index.Trainable); ok {
						tr.Retrain()
					}
				}
			case 4:
				model := make([]uint64, 0, len(live))
				for k := range live {
					model = append(model, k)
				}
				slices.Sort(model)
				for _, ix := range indexes {
					for _, limit := range []int{arg - 1, 64, len(model)} {
						if got, want := ix.Scan(key, limit), indextest.ScanCount(model, key, limit); got != want {
							t.Fatalf("%s: Scan(%d, %d) visited %d, want %d", ix.Name(), key, limit, got, want)
						}
					}
				}
			}
		}
	})
}
