package core

import (
	"testing"

	"repro/internal/distgen"
	"repro/internal/workload"
)

// TestHashScanPricedForWhatItTests: a hash index answers a scan by testing
// every entry and pricing a sort of the hits, so at 262 144 keys its priced limit-100
// scan must cost at least 100× a B+ tree's, which walks to the range and
// reads 100 entries.
func TestHashScanPricedForWhatItTests(t *testing.T) {
	keys := distgen.UniqueKeys(distgen.NewUniform(2, 0, 1<<40), 1<<18)
	scan := workload.Op{Type: workload.Scan, Key: keys[len(keys)/2], ScanLimit: 100}
	work := map[string]int64{}
	for _, mk := range []func() SUT{NewHashSUT, NewBTreeSUT} {
		sut := mk()
		sut.Load(keys, keys)
		sut.Do(workload.Op{Type: workload.Get, Key: keys[0]}) // absorbs the load's counters
		res := sut.Do(scan)
		if res.Visited != 100 {
			t.Fatalf("%s: scan visited %d entries, want 100", sut.Name(), res.Visited)
		}
		work[sut.Name()] = res.Work
	}
	t.Logf("priced scan: hash %d units, btree %d units", work["hash"], work["btree"])
	if work["hash"] < 100*work["btree"] {
		t.Fatalf("hash scan priced at %d units, btree's at %d: want at least 100×", work["hash"], work["btree"])
	}
}
