package workload

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/stats"
)

// This file is the paper's §V-C workload synthesizer — the PBench half of
// the trace flywheel. FitTrace turns a recorded trace, which its owner may
// not be able to share, into compact statistics that can be shared: the
// operation mix, the inter-arrival distribution as log-scale buckets, and
// per-segment key sketches that keep the drift between time slices. The
// Synthesizer turns those statistics back into unbounded seeded lookalike
// load, optionally with a Redbench-style controlled repetition rate layered
// on top. The one model format is the statistics' JSON (TraceStats.Write,
// ReadStats).

const (
	// topK is the exact popularity head each segment keeps.
	topK = 64
	// tailKnots is the number of equal-mass quantile knots each segment's
	// tail keeps.
	tailKnots = 256
	// phaseSlices caps the time slices one recorded phase is cut into.
	// Slices merge until each holds at least tailKnots ops, so a short
	// phase is one segment.
	phaseSlices = 8
	// maxStatsLen caps the segment, head and knot counts ReadStats accepts.
	maxStatsLen = 1 << 20
)

// KeyCount is one entry of a segment's popularity head.
type KeyCount struct {
	Key   uint64 `json:"key"`
	Count int64  `json:"count"`
}

// Segment sketches the keys of one time slice of the fitted stream.
type Segment struct {
	// Ops is the number of operations the slice held: its share of the
	// stream.
	Ops int64 `json:"ops"`
	// Head is the exact popularity head: the slice's topK most-accessed
	// keys, descending by count (ties broken by key), remapped when
	// FitOptions.RemapSeed is set.
	Head []KeyCount `json:"head,omitempty"`
	// Knots sketch the tail — the Ops minus the head's counts — as
	// ascending equal-mass quantiles: knot i is the i/(len-1) quantile of
	// the tail accesses, read as a piecewise-linear CDF.
	Knots []uint64 `json:"knots,omitempty"`
}

// TraceStats are the workload statistics fitted from a recorded trace —
// everything the Synthesizer needs to generate lookalike load, small
// enough to serialize and ship instead of the trace itself.
type TraceStats struct {
	// Ops is the number of operations fitted.
	Ops int64 `json:"ops"`
	// OpCounts is the operation mix, indexed by OpType.
	OpCounts [numOpTypes]int64 `json:"opCounts"`

	// Segments are the key sketches in stream order: each recorded phase
	// cut into up to phaseSlices equal time slices.
	Segments []Segment `json:"segments"`

	// GapBuckets histograms inter-arrival gaps in quarter-octave log2
	// buckets: bucket 0 is gap<=0 (closed loop), bucket i>=1 covers
	// [2^((i-1)/4), 2^(i/4)) ns.
	GapBuckets []int64 `json:"gapBuckets,omitempty"`
	// GapMeanNs is the exact mean inter-arrival gap of the fitted trace.
	GapMeanNs float64 `json:"gapMeanNs"`

	// ScanLimit is the most frequent scan limit (0 when the trace has no
	// scans).
	ScanLimit int `json:"scanLimit,omitempty"`
}

// FitOptions tunes the fit.
type FitOptions struct {
	// RemapSeed, when non-zero, anonymizes head-key identities with a
	// keyed locality-preserving hash. Anonymization costs marginal
	// fidelity: a displaced point mass moves the empirical CDF by up to
	// the displaced head mass — the privacy/fidelity tension of §V-C,
	// which TestRemapFidelityCost quantifies. Zero keeps identities.
	RemapSeed uint64
}

// FitTrace fits statistics over every phase of a decoded trace; each
// phase is sketched into its own segments, so the synthesized stream
// walks the recorded phases in order.
func FitTrace(t *Trace, opt FitOptions) *TraceStats {
	return fit(t.Phases, opt)
}

// FitStream fits statistics from a raw operation/gap stream, as one
// recorded phase.
func FitStream(ops []Op, gaps []int64, opt FitOptions) *TraceStats {
	return fit([]TracePhase{{Ops: ops, Gaps: gaps}}, opt)
}

func fit(phases []TracePhase, opt FitOptions) *TraceStats {
	st := &TraceStats{}
	for _, p := range phases {
		st.Ops += int64(len(p.Ops))
	}
	if st.Ops == 0 {
		return st
	}

	scanLimits := make(map[int]int64)
	var gapSum float64
	var nGaps int
	maxBucket := 0
	counts := make(map[int]int64)
	for _, p := range phases {
		for _, op := range p.Ops {
			st.OpCounts[op.Type]++
			if op.Type == Scan {
				scanLimits[op.ScanLimit]++
			}
		}
		st.Segments = append(st.Segments, sketchPhase(p.Ops, opt.RemapSeed)...)

		// Inter-arrival distribution.
		for _, g := range p.Gaps {
			b := gapBucket(g)
			counts[b]++
			if b > maxBucket {
				maxBucket = b
			}
			if g > 0 {
				gapSum += float64(g)
			}
		}
		nGaps += len(p.Gaps)
	}
	st.GapBuckets = make([]int64, maxBucket+1)
	for b, c := range counts {
		st.GapBuckets[b] = c
	}
	if nGaps > 0 {
		st.GapMeanNs = gapSum / float64(nGaps)
	}

	// Most frequent scan limit, smallest wins ties for determinism.
	var best int64
	for l, c := range scanLimits {
		if c > best || (c == best && (st.ScanLimit == 0 || l < st.ScanLimit)) {
			best, st.ScanLimit = c, l
		}
	}
	return st
}

// sketchPhase cuts one phase into up to phaseSlices equal time slices —
// fewer when that would leave a slice with less than tailKnots ops — and
// sketches each.
func sketchPhase(ops []Op, remapSeed uint64) []Segment {
	n := len(ops)
	if n == 0 {
		return nil
	}
	k := min(phaseSlices, max(1, n/tailKnots))
	segs := make([]Segment, k)
	for s := range segs {
		segs[s] = sketch(ops[s*n/k:(s+1)*n/k], remapSeed)
	}
	return segs
}

// sketch fits one slice: the exact top-K head, then equal-mass quantile
// knots over the remaining accesses. Equal-mass knots put resolution where
// the accesses are, so a heavy-tailed or clustered marginal keeps its
// shape; an equal-width histogram spends most of its buckets on empty key
// ranges.
func sketch(ops []Op, remapSeed uint64) Segment {
	keys := make([]uint64, len(ops))
	for i, op := range ops {
		keys[i] = op.Key
	}
	slices.Sort(keys)
	var runs []KeyCount
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		runs = append(runs, KeyCount{Key: keys[i], Count: int64(j - i)})
		i = j
	}
	slices.SortFunc(runs, func(a, b KeyCount) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Key, b.Key))
	})
	seg := Segment{Ops: int64(len(ops)), Head: slices.Clone(runs[:min(topK, len(runs))])}
	inHead := make(map[uint64]bool, len(seg.Head))
	for _, kc := range seg.Head {
		inHead[kc.Key] = true
	}
	// The head is re-sampled exactly, so the knots cover the tail only:
	// counting the head's accesses there too would double its mass.
	tail := keys[:0]
	for _, k := range keys {
		if !inHead[k] {
			tail = append(tail, k)
		}
	}
	if len(tail) > 0 {
		q := min(tailKnots, max(len(tail), 2))
		seg.Knots = make([]uint64, q)
		for i := range seg.Knots {
			seg.Knots[i] = tail[i*(len(tail)-1)/(q-1)]
		}
	}
	for i := range seg.Head {
		seg.Head[i].Key = remap(seg.Head[i].Key, remapSeed)
	}
	return seg
}

// remap anonymizes a head key's identity with a keyed locality-preserving
// hash: the low 24 bits are replaced, so the synthetic key lands within
// 2^24 of the original but is not the original identity. A seed of zero
// disables remapping (full fidelity, no anonymization).
func remap(k, seed uint64) uint64 {
	if seed == 0 {
		return k
	}
	const mask = (1 << 24) - 1
	h := k ^ seed
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return (k &^ uint64(mask)) | (h & mask)
}

// gapBucket maps a gap to its quarter-octave log2 bucket.
func gapBucket(g int64) int {
	if g <= 0 {
		return 0
	}
	return int(4*math.Log2(float64(g))) + 1
}

// gapBucketBounds returns bucket b's [lo, hi) range in ns (b >= 1).
func gapBucketBounds(b int) (lo, hi float64) {
	lo = math.Exp2(float64(b-1) / 4)
	hi = math.Exp2(float64(b) / 4)
	return lo, hi
}

// Write encodes the statistics as indented JSON — the shareable model
// (what `lstrace fit` prints and ReadStats reads back).
func (st *TraceStats) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// ReadStats decodes one JSON model written by TraceStats.Write and
// validates it, so everything it returns drives a Synthesizer.
func ReadStats(r io.Reader) (*TraceStats, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	st := &TraceStats{}
	if err := dec.Decode(st); err != nil {
		return nil, fmt.Errorf("workload: stats: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("workload: stats: trailing data after the model")
	}
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("workload: stats: %w", err)
	}
	return st, nil
}

// validate checks every invariant the Synthesizer relies on: counts are
// non-negative and add up to Ops, each segment's head fits in its ops and
// a non-empty tail has sorted knots to draw from, and no length exceeds
// maxStatsLen; the gap histogram stops at the largest gap's bucket.
func (st *TraceStats) validate() error {
	if st.Ops <= 0 {
		return errors.New("zero total op share")
	}
	if n, ok := sum(st.OpCounts[:], st.Ops); !ok || n != st.Ops {
		return fmt.Errorf("op mix %v does not add up to %d ops", st.OpCounts, st.Ops)
	}
	if len(st.Segments) == 0 || len(st.Segments) > maxStatsLen || len(st.GapBuckets) > gapBucket(math.MaxInt64)+1 {
		return fmt.Errorf("%d segments, %d gap buckets", len(st.Segments), len(st.GapBuckets))
	}
	var segOps int64
	for i, sg := range st.Segments {
		if sg.Ops <= 0 || sg.Ops > st.Ops-segOps {
			return fmt.Errorf("segment %d: op share %d", i, sg.Ops)
		}
		segOps += sg.Ops
		if len(sg.Head) > maxStatsLen || len(sg.Knots) > maxStatsLen {
			return fmt.Errorf("segment %d: %d head keys, %d knots", i, len(sg.Head), len(sg.Knots))
		}
		var head int64
		for _, kc := range sg.Head {
			if kc.Count < 0 || kc.Count > sg.Ops-head {
				return fmt.Errorf("segment %d: head count %d", i, kc.Count)
			}
			head += kc.Count
		}
		if tail := sg.Ops - head; tail > 0 && len(sg.Knots) < 2 || tail == 0 && len(sg.Knots) > 0 {
			return fmt.Errorf("segment %d: %d tail ops but %d knots", i, tail, len(sg.Knots))
		}
		if !slices.IsSorted(sg.Knots) {
			return fmt.Errorf("segment %d: unsorted knots", i)
		}
	}
	if segOps != st.Ops {
		return fmt.Errorf("segments hold %d of %d ops", segOps, st.Ops)
	}
	if _, ok := sum(st.GapBuckets, math.MaxInt64); !ok {
		return errors.New("negative or overflowing gap counts")
	}
	if st.GapMeanNs < 0 || st.ScanLimit < 0 || st.ScanLimit > MaxScanLimit {
		return fmt.Errorf("gap mean %v, scan limit %d", st.GapMeanNs, st.ScanLimit)
	}
	return nil
}

// sum adds counts; ok is false when one is negative or the sum would pass
// limit.
func sum(counts []int64, limit int64) (n int64, ok bool) {
	for _, c := range counts {
		if c < 0 || c > limit-n {
			return 0, false
		}
		n += c
	}
	return n, true
}

// synthWindow is the recent-key window repetition redraws from.
const synthWindow = 1024

// Synthesizer generates unbounded lookalike load from fitted TraceStats:
// keys from the segment covering the stream position (exact head, then
// the tail's quantile knots), op types from the fitted mix, gaps from the
// fitted inter-arrival distribution — plus a controlled repetition rate
// (Redbench's "support" scenarios): with probability repeatFrac an access
// re-issues a key drawn from the last synthWindow issued keys instead of a
// fresh popularity sample.
//
// The stream is a pure function of (stats, seed, repeatFrac) and the
// positions Fill is asked for: Reset(seed) reproduces it exactly, and
// Fill allocates nothing.
type Synthesizer struct {
	st         *TraceStats
	name       string
	repeatFrac float64
	rng        *stats.RNG

	// Prefix-sum tables for weighted sampling.
	opCum   [numOpTypes]int64
	segCum  []int64
	headCum [][]int64
	gapCum  []int64
	gapTot  int64

	window [synthWindow]uint64
	wlen   int
	wpos   int
}

// NewSynthesizer returns a synthesizer over fitted statistics, seeded
// deterministically, repeating a fraction repeatFrac of key accesses from
// the recent window. It panics on empty stats or repeatFrac outside [0,1).
func NewSynthesizer(st *TraceStats, seed uint64, repeatFrac float64) *Synthesizer {
	if st == nil || st.Ops == 0 || len(st.Segments) == 0 {
		panic("workload: NewSynthesizer needs non-empty TraceStats")
	}
	if repeatFrac < 0 || repeatFrac >= 1 {
		panic("workload: repeatFrac must be in [0,1)")
	}
	s := &Synthesizer{
		st:         st,
		name:       fmt.Sprintf("synth(ops=%d,repeat=%.2f)", st.Ops, repeatFrac),
		repeatFrac: repeatFrac,
		rng:        stats.NewRNG(seed),
	}
	var c int64
	for i, n := range st.OpCounts {
		c += n
		s.opCum[i] = c
	}
	c = 0
	for _, sg := range st.Segments {
		c += sg.Ops
		s.segCum = append(s.segCum, c)
		var h int64
		cum := make([]int64, len(sg.Head))
		for i, kc := range sg.Head {
			h += kc.Count
			cum[i] = h
		}
		s.headCum = append(s.headCum, cum)
	}
	for _, n := range st.GapBuckets {
		s.gapTot += n
		s.gapCum = append(s.gapCum, s.gapTot)
	}
	return s
}

// Name implements Source.
func (s *Synthesizer) Name() string { return s.name }

// Reset implements Source: the stream restarts from position 0 under the
// new seed, with an empty repetition window.
func (s *Synthesizer) Reset(seed uint64) {
	s.rng = stats.NewRNG(seed)
	s.wlen, s.wpos = 0, 0
}

// Fill implements Source. The stream is unbounded; position pos+j of
// total draws its key from the segment whose op share covers
// (pos+j)/total, so the fitted segments play out in order over total ops
// (past total, the last segment repeats).
func (s *Synthesizer) Fill(ops []Op, gaps []int64, pos, total int) int {
	for j := range ops {
		ops[j] = s.next(s.segmentAt(pos+j, total))
		gaps[j] = s.nextGap()
	}
	return len(ops)
}

// segmentAt returns the index of the segment covering position p of total.
func (s *Synthesizer) segmentAt(p, total int) int {
	if p < total {
		if i := cumIndex(s.segCum, int64(float64(p)/float64(total)*float64(s.st.Ops))); i >= 0 {
			return i
		}
	}
	return len(s.segCum) - 1
}

// next synthesizes one operation with its key from segment seg.
func (s *Synthesizer) next(seg int) Op {
	var op Op
	r := int64(s.rng.Uint64() % uint64(s.st.Ops))
	op.Type = OpType(cumIndex(s.opCum[:], r))

	if s.repeatFrac > 0 && s.wlen > 0 && s.rng.Float64() < s.repeatFrac {
		op.Key = s.window[s.rng.Intn(s.wlen)]
	} else {
		op.Key = s.sampleKey(seg)
	}
	s.window[s.wpos] = op.Key
	s.wpos = (s.wpos + 1) % synthWindow
	if s.wlen < synthWindow {
		s.wlen++
	}

	switch op.Type {
	case Put:
		op.Value = s.rng.Uint64()
	case Scan:
		op.ScanLimit = s.st.ScanLimit
		if op.ScanLimit <= 0 {
			op.ScanLimit = 100
		}
	}
	return op
}

// sampleKey draws from segment seg's popularity model: the exact head
// with its exact weights, else inverse-CDF sampling from the tail's
// piecewise-linear knots.
func (s *Synthesizer) sampleKey(seg int) uint64 {
	sg := &s.st.Segments[seg]
	r := int64(s.rng.Uint64() % uint64(sg.Ops))
	if i := cumIndex(s.headCum[seg], r); i >= 0 {
		return sg.Head[i].Key
	}
	u := s.rng.Float64() * float64(len(sg.Knots)-1)
	i := min(int(u), len(sg.Knots)-2)
	lo, hi := sg.Knots[i], sg.Knots[i+1]
	return lo + uint64((u-float64(i))*float64(hi-lo))
}

// nextGap draws from the fitted inter-arrival distribution: bucket by
// weight, then uniform within the bucket's quarter-octave range.
func (s *Synthesizer) nextGap() int64 {
	if s.gapTot == 0 {
		return 0
	}
	r := int64(s.rng.Uint64() % uint64(s.gapTot))
	b := cumIndex(s.gapCum, r)
	if b == 0 {
		return 0
	}
	lo, hi := gapBucketBounds(b)
	return int64(lo + s.rng.Float64()*(hi-lo))
}

// cumIndex returns the first index whose cumulative count exceeds r, or
// -1 when r falls past the table. Plain binary search, no allocation.
func cumIndex(cum []int64, r int64) int {
	lo, hi := 0, len(cum)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid] <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(cum) {
		return -1
	}
	return lo
}
