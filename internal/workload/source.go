package workload

// Source is the one seam every execution layer draws operations through:
// the runner under either clock (and with it the netdriver client), the
// driver shim, the service's job runs, and the figure sweeps all
// consume a Source instead of a concrete *Generator. A Source produces a
// phase's operation stream in caller-provided batches (the PR-8 zero-alloc
// discipline: Fill writes into buffers, the per-op path allocates nothing)
// and can be rewound for deterministic repeats.
//
// Three implementations ship: GeneratorSource (the classic synthetic
// spec+arrival generator), TraceReader (replay of a recorded binary
// trace), and Synthesizer (unbounded lookalike load fitted from a trace's
// statistics). None is teed while it runs: what a run issues is decided
// before it starts (core.Scenario.Materialize), so a recording is that
// pinned stream written down (Trace.WriteFile).
type Source interface {
	// Name identifies the source in reports and trace metadata.
	Name() string
	// Fill writes the operations and inter-arrival gaps for stream
	// positions [pos, pos+len(ops)) of a phase totalling total ops,
	// returning how many entries it produced. len(gaps) must equal
	// len(ops). Unbounded sources always fill the whole batch; bounded
	// sources (trace replay) return short counts at end of stream.
	Fill(ops []Op, gaps []int64, pos, total int) int
	// Reset rewinds the source to position 0 for a deterministic repeat,
	// reseeding where randomness is involved. Trace replay ignores the
	// seed (the stream is exact); generator-backed sources rebuild their
	// op RNG from it (note: stateful drift/arrival processes keep their
	// own advanced state — pin those via core.Scenario.Materialize).
	Reset(seed uint64)
}

// PhaseSeed derives the deterministic per-stream seed for phase (or
// driver-worker) index i of a run seeded with seed. Every layer that
// splits one scenario seed into per-phase generator streams — the core
// runner, scenario materialization, and the driver shim's clients —
// uses this single formula, so a trace recorded from any of them can be
// re-derived or replayed stream-exactly.
func PhaseSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*7919 + 1
}

// GeneratorSource adapts the synthetic Spec+Arrival pair to the Source
// seam. Its Fill draws exactly the stream the pre-Source layers drew
// inline — per position: one op from the Generator, then one gap from the
// arrival process, both at progress pos/total — so all virtual-clock
// goldens are byte-identical across the refactor.
type GeneratorSource struct {
	spec    Spec
	arrival Arrival
	gen     *Generator
}

// NewSource returns a generator-backed source for spec paced by arrival
// (nil means closed loop), seeded deterministically.
func NewSource(spec Spec, arrival Arrival, seed uint64) *GeneratorSource {
	if arrival == nil {
		arrival = ClosedLoop{}
	}
	return &GeneratorSource{spec: spec, arrival: arrival, gen: NewGenerator(spec, seed)}
}

// Name implements Source.
func (s *GeneratorSource) Name() string {
	if s.spec.Name != "" {
		return "generator(" + s.spec.Name + ")"
	}
	return "generator"
}

// Fill implements Source. Generator-backed streams are unbounded: the
// batch is always filled.
func (s *GeneratorSource) Fill(ops []Op, gaps []int64, pos, total int) int {
	for j := range ops {
		progress := float64(pos+j) / float64(total)
		ops[j] = s.gen.Next(progress)
		gaps[j] = s.arrival.NextGap(progress)
	}
	return len(ops)
}

// Reset implements Source: the op-stream RNG restarts from seed. Stateful
// drift and arrival processes are shared instances and keep their state;
// deterministic repeats across whole runs go through materialized traces.
func (s *GeneratorSource) Reset(seed uint64) {
	s.gen = NewGenerator(s.spec, seed)
}

// TraceReader replays a pinned operation/gap stream — a decoded trace
// phase, a materialized scenario phase, or any in-memory stream. Fill is
// position-addressed and copies from the backing slices, so replay is
// allocation-free and Reset is a no-op (the stream is exact).
type TraceReader struct {
	name string
	ops  []Op
	gaps []int64
}

// NewTraceReader returns a source replaying the given stream verbatim.
// gaps may be nil for a closed-loop (all-zero-gap) stream.
func NewTraceReader(name string, ops []Op, gaps []int64) *TraceReader {
	return &TraceReader{name: name, ops: ops, gaps: gaps}
}

// Name implements Source.
func (t *TraceReader) Name() string { return "trace(" + t.name + ")" }

// Len returns the replayed stream's length.
func (t *TraceReader) Len() int { return len(t.ops) }

// Fill implements Source. The stream is bounded: positions at or past the
// recorded length yield a short (possibly zero) count.
func (t *TraceReader) Fill(ops []Op, gaps []int64, pos, total int) int {
	if pos >= len(t.ops) || pos < 0 {
		return 0
	}
	n := copy(ops, t.ops[pos:])
	if t.gaps == nil {
		for j := 0; j < n; j++ {
			gaps[j] = 0
		}
	} else {
		copy(gaps[:n], t.gaps[pos:])
	}
	return n
}

// Reset implements Source. Replay is exact; the seed is ignored.
func (t *TraceReader) Reset(uint64) {}
