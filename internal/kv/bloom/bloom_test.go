package bloom

import (
	"fmt"
	"testing"
)

// splitmix64 drives test key generation without pulling in internal/stats.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func TestNoFalseNegatives(t *testing.T) {
	const n = 10000
	f := New(n, 10)
	for i := uint64(0); i < n; i++ {
		f.Add(splitmix64(i))
	}
	for i := uint64(0); i < n; i++ {
		if !f.MayContain(splitmix64(i)) {
			t.Fatalf("false negative for inserted key %d", i)
		}
	}
}

func TestNilFilterIsPermissive(t *testing.T) {
	var f *Filter
	f.Add(1) // must not panic
	if !f.MayContain(1) {
		t.Fatal("nil filter must report MayContain = true")
	}
	if New(100, 0) != nil || New(0, 10) != nil {
		t.Fatal("disabled configurations must return nil")
	}
}

// TestFalsePositiveRate checks the measured FPR at several bits-per-key
// settings against the theoretical (1 - e^{-kn/m})^k bound with slack.
// This is the test the in-memory store could never express while the
// filter was package-private.
func TestFalsePositiveRate(t *testing.T) {
	const n = 20000
	const probes = 100000
	// Theoretical FPR ~ 0.6185^bitsPerKey at the optimal probe count; our
	// probe count is floored/capped so allow generous headroom.
	cases := []struct {
		bitsPerKey int
		maxFPR     float64
	}{
		{4, 0.25},
		{8, 0.06},
		{10, 0.03},
		{16, 0.002},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("bpk=%d", tc.bitsPerKey), func(t *testing.T) {
			f := New(n, tc.bitsPerKey)
			for i := uint64(0); i < n; i++ {
				f.Add(splitmix64(i))
			}
			fp := 0
			for i := uint64(0); i < probes; i++ {
				// Disjoint key space: offset far past the inserted range.
				if f.MayContain(splitmix64(1<<40 + i)) {
					fp++
				}
			}
			got := float64(fp) / probes
			if got > tc.maxFPR {
				t.Fatalf("FPR %.4f exceeds %.4f at %d bits/key", got, tc.maxFPR, tc.bitsPerKey)
			}
		})
	}
}

// TestFPRImprovesWithBits pins the monotone trend the sizing knob promises.
func TestFPRImprovesWithBits(t *testing.T) {
	const n = 20000
	const probes = 50000
	measure := func(bpk int) float64 {
		f := New(n, bpk)
		for i := uint64(0); i < n; i++ {
			f.Add(splitmix64(i))
		}
		fp := 0
		for i := uint64(0); i < probes; i++ {
			if f.MayContain(splitmix64(1<<40 + i)) {
				fp++
			}
		}
		return float64(fp) / probes
	}
	f4, f8, f16 := measure(4), measure(8), measure(16)
	if !(f16 < f8 && f8 < f4) {
		t.Fatalf("FPR not monotone in bits/key: 4->%.4f 8->%.4f 16->%.4f", f4, f8, f16)
	}
}
