package distgen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestUniformBounds(t *testing.T) {
	g := NewUniform(1, 100, 200)
	for _, k := range Keys(g, 10000) {
		if k < 100 || k >= 200 {
			t.Fatalf("uniform key %d out of [100,200)", k)
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Keys(NewUniform(9, 0, KeyDomain), 100)
	b := Keys(NewUniform(9, 0, KeyDomain), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different keys")
		}
	}
}

func TestUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for hi <= lo")
		}
	}()
	NewUniform(1, 5, 5)
}

func TestNormalCentering(t *testing.T) {
	mu := float64(KeyDomain / 2)
	g := NewNormal(2, mu, 1e12)
	var sum float64
	ks := Keys(g, 20000)
	for _, k := range ks {
		sum += float64(k)
	}
	mean := sum / float64(len(ks))
	if mean < mu*0.99 || mean > mu*1.01 {
		t.Fatalf("normal mean %v, want ~%v", mean, mu)
	}
}

func TestLognormalHeavyTail(t *testing.T) {
	g := NewLognormal(3, 0, 2, 1e6)
	ks := Keys(g, 20000)
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	median := float64(ks[len(ks)/2])
	var sum float64
	for _, k := range ks {
		sum += float64(k)
	}
	mean := sum / float64(len(ks))
	if mean < 2*median {
		t.Fatalf("lognormal not right-skewed: mean=%v median=%v", mean, median)
	}
}

func TestZipfKeysRepeatHotKeys(t *testing.T) {
	g := NewZipfKeys(4, 1.1, 10000)
	counts := make(map[uint64]int)
	for _, k := range Keys(g, 50000) {
		counts[k]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 1000 {
		t.Fatalf("zipf hottest key only %d/50000 draws", max)
	}
}

func TestClusteredConcentration(t *testing.T) {
	g := NewClustered(5, 10, 1e9)
	ks := Keys(g, 20000)
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	// With 10 tight clusters, the 10 largest gaps should account for most
	// of the domain span.
	type gap struct{ size uint64 }
	gaps := make([]uint64, 0, len(ks)-1)
	for i := 1; i < len(ks); i++ {
		gaps = append(gaps, ks[i]-ks[i-1])
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] > gaps[j] })
	var top, total uint64
	for i, g := range gaps {
		total += g
		if i < 10 {
			top += g
		}
	}
	if float64(top)/float64(total) < 0.9 {
		t.Fatalf("clusters not tight: top-10 gap share %v", float64(top)/float64(total))
	}
}

func TestSegmentedCoversBounds(t *testing.T) {
	g := NewSegmented(6, 8)
	for _, k := range Keys(g, 10000) {
		if k >= KeyDomain {
			t.Fatalf("segmented key %d out of domain", k)
		}
	}
}

func TestSequentialStrictlyIncreasing(t *testing.T) {
	g := NewSequential(7, 100, 10)
	ks := Keys(g, 10000)
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatalf("sequential keys not increasing at %d", i)
		}
		if ks[i]-ks[i-1] > 10 {
			t.Fatalf("gap %d exceeds max", ks[i]-ks[i-1])
		}
	}
}

func TestMixtureUsesAllComponents(t *testing.T) {
	lo := NewUniform(1, 0, 1000)
	hi := NewUniform(2, KeyDomain-1000, KeyDomain)
	m := NewMixture(8, []Generator{lo, hi}, []float64{0.5, 0.5})
	var nLo, nHi int
	for _, k := range Keys(m, 1000) {
		if k < 1000 {
			nLo++
		} else {
			nHi++
		}
	}
	if nLo < 300 || nHi < 300 {
		t.Fatalf("mixture imbalance: lo=%d hi=%d", nLo, nHi)
	}
}

func TestMixturePanics(t *testing.T) {
	cases := map[string]func(){
		"empty":    func() { NewMixture(1, nil, nil) },
		"mismatch": func() { NewMixture(1, []Generator{NewUniform(1, 0, 10)}, []float64{0.5, 0.5}) },
		"negative": func() { NewMixture(1, []Generator{NewUniform(1, 0, 10)}, []float64{-1}) },
		"zero-sum": func() { NewMixture(1, []Generator{NewUniform(1, 0, 10)}, []float64{0}) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestUniqueKeysDistinctSorted(t *testing.T) {
	g := NewZipfKeys(9, 1.3, 500) // heavy duplication forces retries
	ks := UniqueKeys(g, 400)
	if len(ks) != 400 {
		t.Fatalf("got %d keys", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatalf("keys not strictly ascending at %d", i)
		}
	}
}

func TestUniqueKeysTinySupport(t *testing.T) {
	// Support of size 5; ask for 20 — padding must kick in.
	g := NewUniform(10, 0, 5)
	ks := UniqueKeys(g, 20)
	if len(ks) != 20 {
		t.Fatalf("got %d keys", len(ks))
	}
	seen := map[uint64]bool{}
	for _, k := range ks {
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
}

// TestUniqueKeysPinned pins UniqueKeys' output and how far it advances its
// generator: each row's FNV-64a of the keys and the generator's next draw
// after the call. Both were recorded from the map-based UniqueKeys, so any
// change to the keys or to the number of draws (which a run's later keys
// depend on) fails here.
func TestUniqueKeysPinned(t *testing.T) {
	for _, c := range []struct {
		name       string
		g          Generator
		n          int
		digest     uint64
		afterDraws uint64
	}{
		{"uniform", NewUniform(1, 0, 1<<40), 262_144, 0xd07d42ef7ef150ee, 892483011868},
		{"zipf", NewZipfKeys(2, 1.1, 1<<22), 250_000, 0xf57dfb64ba180b91, 824660109111066624},
		// Heavy duplication: several whole batches before 400 distinct keys.
		{"zipf-retries", NewZipfKeys(9, 1.3, 500), 400, 0xc2ea74b3d22c1699, 724034704893099602},
		{"clustered", NewClustered(3, 32, float64(KeyDomain)/4096), 20_000, 0xbce9562f164609df, 38791988624317080},
		{"segmented", NewSegmented(4, 8), 20_000, 0x35e431cf6da67a81, 527738746641329045},
		// Support of size 5 (0 included) for 20 keys: 50 batches, then padding.
		{"tiny-support", NewUniform(10, 0, 5), 20, 0x023af134995011a5, 3},
	} {
		ks := UniqueKeys(c.g, c.n)
		if len(ks) != c.n {
			t.Fatalf("%s: got %d keys, want %d", c.name, len(ks), c.n)
		}
		for i := 1; i < len(ks); i++ {
			if ks[i] <= ks[i-1] {
				t.Fatalf("%s: keys not strictly ascending at %d", c.name, i)
			}
		}
		h := fnv.New64a()
		for _, k := range ks {
			h.Write(binary.LittleEndian.AppendUint64(nil, k))
		}
		var next [1]uint64
		c.g.Fill(next[:])
		if h.Sum64() != c.digest || next[0] != c.afterDraws {
			t.Errorf("%s: digest %#x, next draw %d; want %#x, %d", c.name, h.Sum64(), next[0], c.digest, c.afterDraws)
		}
	}
}

// TestRadixSortMatchesSlicesSort holds UniqueKeys' sort to slices.Sort on
// key sets that reach each of its branches: full 64-bit keys (the top bit
// set included), keys that share every digit, keys that differ in exactly
// one digit (one pass, so the result must be copied back from the second
// buffer, or an even number, so it must not), heavy duplicates, and Zipf's
// multiples of 2^38.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	rng := stats.NewRNG(11)
	type keySet struct {
		name string
		key  func(i int) uint64
	}
	sets := []keySet{
		{"full-64-bit", func(i int) uint64 { return rng.Uint64() | uint64(i%2)<<63 }},
		{"all-equal", func(int) uint64 { return 0xDEADBEEF_01234567 }},
		{"duplicates", func(int) uint64 { return rng.Uint64() % 7 << 40 }},
		{"zipf-like", func(int) uint64 { return rng.Uint64() % (1 << 22) << 38 }},
	}
	for d := 0; d < 8; d++ {
		sets = append(sets, keySet{fmt.Sprintf("byte-%d", d), func(int) uint64 {
			return 0x5A5A5A5A_5A5A5A5A ^ (rng.Uint64()%256)<<(8*d)
		}})
	}
	for _, set := range sets {
		for _, n := range []int{0, 1, 2, 255, 256, 257, 4097} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = set.key(i)
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			radixSort(keys, make([]uint64, n))
			if !slices.Equal(keys, want) {
				t.Fatalf("%s, n=%d: radixSort differs from slices.Sort", set.name, n)
			}
		}
	}
}

func TestGeneratorNamesDistinct(t *testing.T) {
	gens := []Generator{
		NewUniform(1, 0, KeyDomain),
		NewNormal(1, 1e15, 1e12),
		NewLognormal(1, 0, 2, 1e6),
		NewZipfKeys(1, 1.1, 1000),
		NewClustered(1, 10, 1e9),
		NewSegmented(1, 8),
		NewSequential(1, 0, 10),
		NewEmail(1),
	}
	seen := map[string]bool{}
	for _, g := range gens {
		n := g.Name()
		if n == "" || seen[n] {
			t.Fatalf("duplicate or empty name %q", n)
		}
		seen[n] = true
	}
}

func TestEmailAddressesWellFormed(t *testing.T) {
	g := NewEmail(11)
	for i := 0; i < 1000; i++ {
		a := g.Address()
		at := strings.IndexByte(a, '@')
		if at <= 0 || at == len(a)-1 {
			t.Fatalf("malformed address %q", a)
		}
		domain := a[at+1:]
		found := false
		for _, d := range DefaultDomains {
			if domain == d {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("unknown domain in %q", a)
		}
	}
}

func TestEmailKeysSkewedByFirstLetter(t *testing.T) {
	g := NewEmail(12)
	ks := Keys(g, 20000)
	// First byte of the key = first letter. 's' and 'm' lead the frequency
	// order, so their share must beat uniform (1/26 each).
	counts := map[byte]int{}
	for _, k := range ks {
		counts[byte(k>>56)]++
	}
	if counts['s']+counts['m'] < len(ks)/8 {
		t.Fatalf("first-letter skew missing: s=%d m=%d", counts['s'], counts['m'])
	}
}

func TestStringKeyOrderPreserving(t *testing.T) {
	f := func(a, b string) bool {
		ka, kb := StringKey(a), StringKey(b)
		a8, b8 := a, b
		if len(a8) > 8 {
			a8 = a8[:8]
		}
		if len(b8) > 8 {
			b8 = b8[:8]
		}
		switch {
		case a8 < b8:
			return ka < kb
		case a8 > b8:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
