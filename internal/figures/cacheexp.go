package figures

import (
	"repro/internal/cache"
	"repro/internal/distgen"
	"repro/internal/stats"
)

// CacheResult compares caching policies on the benchmark's drifting
// workloads, with the Belady offline optimum as the upper bound — the
// "learning-based caches" component the paper lists among learned-system
// opportunities.
type CacheResult struct {
	// HitRate per policy per trace: HitRate[trace][policy].
	HitRate map[string]map[string]float64
	// Belady upper bound per trace.
	Belady map[string]float64
	// LearnedTrainWork per trace: online model updates (charged as
	// training overhead per the paper's online-learning rule).
	LearnedTrainWork map[string]int64
}

// cacheTraces builds the three access patterns of the experiment.
func cacheTraces(scale Scale, seed uint64) map[string][]uint64 {
	n := scale.Ops * 4
	rng := stats.NewRNG(seed)

	traces := make(map[string][]uint64, 3)

	// 1. Stable zipf: everyone's friendly case.
	z := stats.NewZipf(rng.Split(), 1.1, 2000)
	t1 := make([]uint64, n)
	for i := range t1 {
		t1[i] = z.Next()
	}
	traces["stable-zipf"] = t1

	// 2. Zipf + periodic one-shot scans (LRU pollution).
	z2 := stats.NewZipf(rng.Split(), 1.1, 2000)
	t2 := make([]uint64, 0, n)
	scanKey := uint64(1 << 40)
	for len(t2) < n {
		for i := 0; i < 400 && len(t2) < n; i++ {
			t2 = append(t2, z2.Next())
		}
		for i := 0; i < 300 && len(t2) < n; i++ {
			scanKey++
			t2 = append(t2, scanKey)
		}
	}
	traces["zipf+scans"] = t2

	// 3. Moving hotspot: the drifting case (Lesson 1 for caches). Keys
	// quantized to a 4096-key population; the hot window (~200 keys)
	// fits in cache, but it moves.
	mh := distgen.NewMovingHotspot(rng.Uint64(), 0.9, 0.05, 2)
	t3 := make([]uint64, n)
	for i := range t3 {
		mh.FillAt(float64(i)/float64(n), t3[i:i+1])
		t3[i] >>= 48
	}
	traces["moving-hotspot"] = t3

	return traces
}

// CacheExperiment runs LRU, sampled LFU, and the learned reuse-interval
// policy over the three traces at a capacity of ~10% of the key
// population.
func CacheExperiment(scale Scale, seed uint64) *CacheResult {
	const capacity = 300
	out := &CacheResult{
		HitRate:          make(map[string]map[string]float64),
		Belady:           make(map[string]float64),
		LearnedTrainWork: make(map[string]int64),
	}
	for name, trace := range cacheTraces(scale, seed) {
		row := make(map[string]float64, 3)
		lru := cache.NewLRU(capacity)
		row[lru.Name()] = cache.HitRate(lru, trace)
		lfu := cache.NewSampledLFU(capacity, seed+1)
		row[lfu.Name()] = cache.HitRate(lfu, trace)
		learned := cache.NewLearned(capacity, seed+2)
		row[learned.Name()] = cache.HitRate(learned, trace)
		out.LearnedTrainWork[name] = learned.TrainWork()
		out.HitRate[name] = row
		out.Belady[name] = cache.BeladyHitRate(trace, capacity)
	}
	return out
}
