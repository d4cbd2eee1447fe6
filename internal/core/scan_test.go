package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/distgen"
	"repro/internal/index/indextest"
	"repro/internal/pager"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestScanVisitsMatchModel drives every catalog SUT, and every disk SUT
// behind ColdStart too, through a load, clustered puts and overwrites,
// deletes (a run of neighbours among them, which empties B+ tree leaves), a
// retrain where the SUT has one, and then more puts and deletes, which leave
// rmi a delta and tombstones and the LSM several runs under a memtable. A
// scan from every probe key ± 1 and from random keys must then visit what a
// sorted model counts, at every limit.
func TestScanVisitsMatchModel(t *testing.T) {
	for _, name := range SUTNames() {
		for _, cold := range []bool{false, true} {
			mk, err := SUTByName(name, pager.PoolKnobs{Pages: 64})
			if err != nil {
				t.Fatal(err)
			}
			sut, label := mk(), name
			if cold {
				if PoolOf(sut) == nil {
					continue
				}
				sut, label = ColdStart(sut), name+"/cold"
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				checkScanVisits(t, sut)
			})
		}
	}
}

func checkScanVisits(t *testing.T, sut SUT) {
	rng := stats.NewRNG(7)
	keys := distgen.UniqueKeys(distgen.NewUniform(3, 0, 1<<40), 6000)
	sut.Load(keys, LoadValues(keys))
	live := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		live[k] = true
	}
	burst := distgen.Keys(distgen.NewClustered(5, 4, 1<<20), 4000)
	put := func(k uint64) {
		sut.Do(workload.Op{Type: workload.Put, Key: k, Value: k})
		live[k] = true
	}
	del := func(k uint64) {
		sut.Do(workload.Op{Type: workload.Delete, Key: k})
		delete(live, k)
	}
	for _, k := range burst[:2500] {
		put(k)
	}
	for range 500 {
		put(keys[rng.Intn(len(keys))])
	}
	for _, k := range keys[3000:3300] {
		del(k)
	}
	for range 700 {
		del(keys[rng.Intn(len(keys))])
	}
	if tr, ok := sut.(Trainable); ok {
		tr.Train()
	}
	for _, k := range burst[2500:] {
		put(k)
	}
	for range 300 {
		del(keys[rng.Intn(len(keys))])
	}
	for _, k := range burst[2500:2700] {
		del(k)
	}

	model := make([]uint64, 0, len(live))
	for k := range live {
		model = append(model, k)
	}
	slices.Sort(model)
	// A hash SUT sorts the table per scan, so the probes are a sample.
	probes := []uint64{0, math.MaxUint64}
	for i := 0; i < len(model); i += 193 {
		probes = append(probes, model[i])
	}
	for range 50 {
		probes = append(probes, rng.Uint64()%(1<<40))
	}
	scan := scanFunc(sut)
	indextest.CheckScans(t, scan, model, probes, []int{1, 2, 63, 64, 65, 200, len(model)})
	ends := append(slices.Clone(keys[2990:3010]), keys[3290:3310]...) // of the deleted run
	indextest.CheckScans(t, scan, model, ends, []int{1, 2, 11, 12})
}

// scanFunc issues scans to sut as workload ops.
func scanFunc(sut SUT) func(lo uint64, limit int) int {
	return func(lo uint64, limit int) int {
		return sut.Do(workload.Op{Type: workload.Scan, Key: lo, ScanLimit: limit}).Visited
	}
}

// TestScanLimitBelowOneVisitsNothing: workload.Op documents ScanLimit in
// [1, MaxScanLimit], and a scan with a smaller limit visits no entry, on
// every catalog SUT.
func TestScanLimitBelowOneVisitsNothing(t *testing.T) {
	keys := distgen.UniqueKeys(distgen.NewUniform(1, 0, 1<<40), 1000)
	for _, name := range SUTNames() {
		mk, err := SUTByName(name, pager.PoolKnobs{Pages: 64})
		if err != nil {
			t.Fatal(err)
		}
		sut := mk()
		sut.Load(keys, LoadValues(keys))
		for _, limit := range []int{0, -1, math.MinInt} {
			if n := scanFunc(sut)(keys[0], limit); n != 0 {
				t.Errorf("%s: a scan with limit %d visited %d entries", name, limit, n)
			}
		}
	}
}
