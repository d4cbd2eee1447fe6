// Package bloom implements the split Bloom filter shared by the in-memory
// kv store's sorted runs and the disk LSM's run files. It uses double
// hashing (Kirsch–Mitzenmacher): h_i(k) = h1(k) + i*h2(k), which gives k
// independent-enough probes from two 64-bit mixes.
//
// A nil *Filter is valid and means "filter disabled": Add is a no-op and
// MayContain always reports true, so callers can treat bitsPerKey <= 0 as
// "no filter" without branching.
package bloom

// Filter is a split Bloom filter over uint64 keys. Not safe for concurrent
// mutation; concurrent MayContain over a filled filter is fine.
type Filter struct {
	bits []uint64
	k    int // number of hash probes
}

// New sizes a filter for n keys at bitsPerKey. Returns nil when disabled
// (bitsPerKey <= 0 or n <= 0), which callers treat as "might contain".
func New(n, bitsPerKey int) *Filter {
	if bitsPerKey <= 0 || n <= 0 {
		return nil
	}
	nbits := n * bitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	// Optimal probe count ~= bitsPerKey * ln2.
	k := int(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 12 {
		k = 12
	}
	return &Filter{bits: make([]uint64, (nbits+63)/64), k: k}
}

func h1(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	return k
}

func h2(k uint64) uint64 {
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 29
	return k | 1 // odd, so probes cycle the whole table
}

// Add inserts key into the filter.
func (f *Filter) Add(key uint64) {
	if f == nil {
		return
	}
	n := uint64(len(f.bits) * 64)
	a, b := h1(key), h2(key)
	for i := 0; i < f.k; i++ {
		pos := (a + uint64(i)*b) % n
		f.bits[pos/64] |= 1 << (pos % 64)
	}
}

// MayContain reports whether key might be present (false = definitely not).
func (f *Filter) MayContain(key uint64) bool {
	if f == nil {
		return true
	}
	n := uint64(len(f.bits) * 64)
	a, b := h1(key), h2(key)
	for i := 0; i < f.k; i++ {
		pos := (a + uint64(i)*b) % n
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}
