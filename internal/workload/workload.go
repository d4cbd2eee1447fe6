// Package workload models benchmark workloads the way the paper demands
// (§III-A, §V-B): operation mixes over key-access distributions that can
// drift during a single run, and arrival processes with fluctuating query
// load — diurnal patterns, bursts — rather than a fixed closed loop.
package workload

import (
	"fmt"

	"repro/internal/distgen"
	"repro/internal/stats"
)

// OpType enumerates the KV operation types the benchmark issues.
type OpType int

// Operation types.
const (
	Get OpType = iota
	Put
	Delete
	Scan
	numOpTypes
)

// String names the operation.
func (o OpType) String() string {
	switch o {
	case Get:
		return "get"
	case Put:
		return "put"
	case Delete:
		return "delete"
	case Scan:
		return "scan"
	default:
		return fmt.Sprintf("OpType(%d)", int(o))
	}
}

// Op is one generated operation.
type Op struct {
	Type OpType
	Key  uint64
	// Value for Put.
	Value uint64
	// ScanLimit is the maximum entries a Scan visits, in [1, MaxScanLimit].
	ScanLimit int
}

// MaxScanLimit is the largest scan limit: the netdriver frame carries 32 bits.
const MaxScanLimit = 1<<32 - 1

// Mix fixes the operation-type proportions. Fractions must be non-negative
// and sum to ~1 (Normalize enforces it).
type Mix struct {
	GetFrac    float64
	PutFrac    float64
	DeleteFrac float64
	ScanFrac   float64
	ScanLimit  int
}

// Normalize scales fractions to sum to 1 and defaults ScanLimit to 100.
// An all-zero mix becomes 100% Get.
func (m Mix) Normalize() Mix {
	sum := m.GetFrac + m.PutFrac + m.DeleteFrac + m.ScanFrac
	if sum <= 0 {
		return Mix{GetFrac: 1, ScanLimit: 100}
	}
	m.GetFrac /= sum
	m.PutFrac /= sum
	m.DeleteFrac /= sum
	m.ScanFrac /= sum
	if m.ScanLimit <= 0 {
		m.ScanLimit = 100
	}
	return m
}

// Common mixes, YCSB-inspired.
var (
	ReadHeavy  = Mix{GetFrac: 0.95, PutFrac: 0.05, ScanLimit: 100}
	Balanced   = Mix{GetFrac: 0.50, PutFrac: 0.50, ScanLimit: 100}
	WriteHeavy = Mix{GetFrac: 0.10, PutFrac: 0.85, DeleteFrac: 0.05, ScanLimit: 100}
	ScanHeavy  = Mix{GetFrac: 0.20, ScanFrac: 0.75, PutFrac: 0.05, ScanLimit: 200}
)

// Spec generates the operation stream of one benchmark phase. Reads draw
// keys from Access; writes draw new keys from InsertKeys (both may drift).
type Spec struct {
	Name string
	Mix  Mix
	// Access chooses the keys of Gets, Deletes, and Scan starts.
	Access distgen.Drift
	// InsertKeys chooses the keys of Puts. Nil reuses Access.
	InsertKeys distgen.Drift
	// MixEnd, when non-nil, blends the operation mix linearly from Mix
	// to MixEnd across the phase — a workload transition without a data
	// transition (OLTP-Bench-style evolving mixes, §I).
	MixEnd *Mix
}

// Generator produces the deterministic op stream for a Spec.
type Generator struct {
	spec Spec
	mix  Mix
	end  *Mix
	rng  *stats.RNG
	// keyBuf receives single-key draws so the per-op path allocates
	// nothing; drifts fill it in place through FillAt.
	keyBuf [1]uint64
}

// NewGenerator returns a generator for spec seeded deterministically.
func NewGenerator(spec Spec, seed uint64) *Generator {
	if spec.Access == nil {
		panic("workload: Spec.Access is required")
	}
	g := &Generator{spec: spec, mix: spec.Mix.Normalize(), rng: stats.NewRNG(seed)}
	if spec.MixEnd != nil {
		e := spec.MixEnd.Normalize()
		g.end = &e
	}
	return g
}

// Spec returns the generator's spec.
func (g *Generator) Spec() Spec { return g.spec }

// mixAt interpolates the operation mix at the given progress; end is set.
func (g *Generator) mixAt(p float64) Mix {
	p = min(max(p, 0), 1)
	lerp := func(a, b float64) float64 { return a + p*(b-a) }
	return Mix{
		GetFrac:    lerp(g.mix.GetFrac, g.end.GetFrac),
		PutFrac:    lerp(g.mix.PutFrac, g.end.PutFrac),
		DeleteFrac: lerp(g.mix.DeleteFrac, g.end.DeleteFrac),
		ScanFrac:   lerp(g.mix.ScanFrac, g.end.ScanFrac),
		ScanLimit:  g.mix.ScanLimit,
	}
}

// Next generates the next operation for the given phase progress in [0,1].
// A fixed mix is read in place, not copied per op.
func (g *Generator) Next(progress float64) Op {
	m := &g.mix
	if g.end != nil {
		lerped := g.mixAt(progress)
		m = &lerped
	}
	r := g.rng.Float64()
	var op Op
	switch {
	case r < m.GetFrac:
		op.Type = Get
		op.Key = g.accessKey(progress)
	case r < m.GetFrac+m.PutFrac:
		op.Type = Put
		op.Key = g.insertKey(progress)
		op.Value = g.rng.Uint64()
	case r < m.GetFrac+m.PutFrac+m.DeleteFrac:
		op.Type = Delete
		op.Key = g.accessKey(progress)
	default:
		op.Type = Scan
		op.Key = g.accessKey(progress)
		op.ScanLimit = m.ScanLimit
	}
	return op
}

func (g *Generator) accessKey(p float64) uint64 {
	g.spec.Access.FillAt(p, g.keyBuf[:])
	return g.keyBuf[0]
}

func (g *Generator) insertKey(p float64) uint64 {
	if g.spec.InsertKeys != nil {
		g.spec.InsertKeys.FillAt(p, g.keyBuf[:])
		return g.keyBuf[0]
	}
	return g.accessKey(p)
}
