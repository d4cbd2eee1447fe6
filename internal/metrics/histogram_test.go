package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile")
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 16; v++ {
		h.Record(v)
	}
	if h.Min() != 0 || h.Max() != 15 || h.Count() != 16 {
		t.Fatalf("small-value bookkeeping: min=%d max=%d n=%d", h.Min(), h.Max(), h.Count())
	}
	if h.Mean() != 7.5 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramQuantileRelativeError(t *testing.T) {
	r := stats.NewRNG(1)
	h := NewHistogram()
	var raw []int64
	for i := 0; i < 50000; i++ {
		// Latencies from 100ns to ~100ms, lognormal-ish.
		v := int64(100 * math.Exp(r.NormFloat64()*2+4))
		raw = append(raw, v)
		h.Record(v)
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		exact := raw[int(q*float64(len(raw)))]
		got := h.Quantile(q)
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		if relErr > 0.10 {
			t.Fatalf("q=%v: got %d, exact %d, rel err %v", q, got, exact, relErr)
		}
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		h := NewHistogram()
		for i := 0; i < 1000; i++ {
			h.Record(int64(r.Uint64() % 1e9))
		}
		prev := int64(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	h.Record(2000)
	if h.Quantile(0) != 1000 || h.Quantile(1) != 2000 {
		t.Fatalf("quantile edges: %d %d", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 {
		t.Fatalf("negative value not clamped: min=%d", h.Min())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.Record(int64(i) * 100)
		b.Record(int64(i)*100 + 1_000_000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() < 1_000_000 {
		t.Fatal("merge lost max")
	}
	a.Merge(nil) // must not panic
}

func TestHistogramMergeMismatchedLayout(t *testing.T) {
	// A histogram with a foreign bucket layout must be rejected loudly:
	// folding its counts positionally would silently misattribute
	// latencies instead of failing.
	h := NewHistogram()
	h.Record(500)
	other := &Histogram{counts: make([]uint64, 8)}
	other.counts[2] = 3
	other.total = 3
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched-layout merge did not panic")
		}
		if h.Count() != 1 {
			t.Fatalf("failed merge mutated receiver: count = %d", h.Count())
		}
	}()
	h.Merge(other)
}

func TestHistogramMergeEmptyMismatchIgnored(t *testing.T) {
	// An empty histogram carries no counts to misattribute, so merging it
	// stays a no-op regardless of layout (the nil/empty fast path).
	h := NewHistogram()
	h.Record(500)
	h.Merge(&Histogram{counts: make([]uint64, 8)})
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(5000)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset incomplete")
	}
	h.Record(77)
	if h.Min() != 77 || h.Max() != 77 {
		t.Fatal("histogram unusable after reset")
	}
}

func TestHistogramStringNonEmpty(t *testing.T) {
	h := NewHistogram()
	h.Record(123456)
	if h.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 15, 16, 17, 255, 256, 1 << 20, 1<<40 + 12345} {
		b := bucketOf(v)
		lo := bucketLow(b)
		hi := bucketLow(b + 1)
		if v < lo || v >= hi {
			t.Fatalf("value %d not in bucket [%d,%d)", v, lo, hi)
		}
	}
}

// refBucketOf and refBucketLow are the bit-loop bucketing formulas the
// histogram used before math/bits, kept as the reference the intrinsic
// version must agree with on every boundary.
func refBucketOf(v int64) int {
	const sub = 16
	if v < 0 {
		v = 0
	}
	if v < sub {
		return int(v)
	}
	lz := 0
	for u := uint64(v); u&(1<<63) == 0; u <<= 1 {
		lz++
	}
	log2sub := 0
	for s := sub; s > 1; s >>= 1 {
		log2sub++
	}
	octave := 63 - lz
	shift := octave - log2sub
	return (octave-log2sub+1)*sub + int(v>>uint(shift)) - sub
}

func refBucketLow(i int) int64 {
	const sub = 16
	if i < sub {
		return int64(i)
	}
	return int64(sub+i%sub) << uint(i/sub-1)
}

func TestBucketMatchesReference(t *testing.T) {
	values := []int64{-1, 0, 15, 16, 17, 31, 32, math.MaxInt64}
	for k := uint(1); k <= 62; k++ {
		values = append(values, 1<<k-1, 1<<k, 1<<k+1)
	}
	h := NewHistogram()
	for _, v := range values {
		b := bucketOf(v)
		if want := refBucketOf(v); b != want {
			t.Fatalf("bucketOf(%d) = %d, reference %d", v, b, want)
		}
		if b < 0 || b >= len(h.counts) {
			t.Fatalf("bucketOf(%d) = %d outside the %d buckets", v, b, len(h.counts))
		}
		lo, hi := bucketLow(b), bucketLow(b+1)
		if lo != refBucketLow(b) || hi != refBucketLow(b+1) {
			t.Fatalf("bucketLow(%d), bucketLow(%d) = %d, %d, reference %d, %d",
				b, b+1, lo, hi, refBucketLow(b), refBucketLow(b+1))
		}
		// The last octave's upper edge is 2^63, which wraps negative.
		if c := max(v, 0); c < lo || (c >= hi && hi > 0) {
			t.Fatalf("value %d not in its bucket [%d,%d)", v, lo, hi)
		}
	}
}

// TestHistogramMergeEqualsConcatenation pins what lets the collector
// derive the overall histogram from its phases: merging histograms is
// indistinguishable from recording every sample into one, however the
// samples are split and however large.
func TestHistogramMergeEqualsConcatenation(t *testing.T) {
	f := func(seed uint64, parts uint8) bool {
		r := stats.NewRNG(seed)
		n := int(parts)%7 + 1
		whole, merged := NewHistogram(), NewHistogram()
		split := make([]*Histogram, n)
		for i := range split {
			split[i] = NewHistogram()
		}
		for i := 0; i < 2000; i++ {
			// Up to 2^52 each: the sum passes 2^53, where a float64
			// accumulator rounds and so depends on the order of addition.
			v := int64(r.Uint64() >> (12 + r.Intn(48)))
			whole.Record(v)
			split[r.Intn(n)].Record(v)
		}
		for _, h := range split {
			merged.Merge(h)
		}
		if merged.Count() != whole.Count() || merged.Mean() != whole.Mean() ||
			merged.Min() != whole.Min() || merged.Max() != whole.Max() ||
			merged.Quantile(0.5) != whole.Quantile(0.5) || merged.Quantile(0.99) != whole.Quantile(0.99) {
			return false
		}
		for i, c := range whole.counts {
			if merged.counts[i] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
