package workload

import (
	"fmt"

	"repro/internal/stats"
)

// SessionArrival is an IDEBench-style interactive-session arrival process:
// a user issues a burst of closely spaced operations (one "session" of
// exploratory queries), pauses for a think-time gap, then starts the next
// burst. Open-loop Poisson arrivals cannot express this bimodal structure —
// the paper's interactive-analytics use case — because the gap distribution
// has two regimes: intra-session gaps well below the think time, and
// inter-session gaps at or above it.
//
// The process is deterministic from its seed: session lengths and all gaps
// come from one RNG stream in issue order, so the emitted gap stream is
// byte-identical across batch sizes and (per-worker) under the parallel
// driver. By construction every inter-session gap is >= ThinkNs and every
// intra-session gap is < ThinkNs, so sessions remain recoverable from the
// pinned gap stream after scenario materialization discards the arrival
// state — the property SessionSpec's segmentation rule relies on.
type SessionArrival struct {
	// ThinkNs is the think-time floor between sessions: inter-session gaps
	// are ThinkNs plus an exponential tail.
	ThinkNs int64
	// IntraGapNs is the mean gap between operations inside a session;
	// draws are at least 1 (0 means closed loop, see Arrival) and capped
	// at ThinkNs-1 so the two regimes never overlap.
	IntraGapNs int64
	// MinOps and MaxOps bound the session length (uniform, inclusive).
	MinOps, MaxOps int

	rng       *stats.RNG
	remaining int
}

// NewSessionArrival returns a session arrival process.
func NewSessionArrival(seed uint64, thinkNs, intraGapNs int64, minOps, maxOps int) *SessionArrival {
	if thinkNs <= 0 || intraGapNs <= 0 || intraGapNs >= thinkNs {
		panic("workload: SessionArrival needs 0 < intraGapNs < thinkNs")
	}
	if minOps <= 0 || maxOps < minOps {
		panic("workload: SessionArrival needs 0 < minOps <= maxOps")
	}
	return &SessionArrival{
		ThinkNs: thinkNs, IntraGapNs: intraGapNs,
		MinOps: minOps, MaxOps: maxOps,
		rng: stats.NewRNG(seed),
	}
}

// Name implements Arrival.
func (s *SessionArrival) Name() string {
	return fmt.Sprintf("session(think=%dns,intra=%dns,len=%d..%d)",
		s.ThinkNs, s.IntraGapNs, s.MinOps, s.MaxOps)
}

// NextGap implements Arrival. The first gap of each session is the
// think-time gap (>= ThinkNs); the rest are intra-session gaps
// (< ThinkNs).
func (s *SessionArrival) NextGap(float64) int64 {
	if s.remaining == 0 {
		n := s.MinOps
		if s.MaxOps > s.MinOps {
			n += s.rng.Intn(s.MaxOps - s.MinOps + 1)
		}
		s.remaining = n - 1
		return s.ThinkNs + int64(s.rng.ExpFloat64()*float64(s.ThinkNs)/2)
	}
	s.remaining--
	g := max(1, int64(s.rng.ExpFloat64()*float64(s.IntraGapNs)))
	if g >= s.ThinkNs {
		g = s.ThinkNs - 1
	}
	return g
}

// Spec returns the segmentation rule matching this process: a gap at or
// above ThinkNs begins a new session. budgetNs is the per-session SLA
// budget (0 for none).
func (s *SessionArrival) Spec(budgetNs int64) *SessionSpec {
	return &SessionSpec{GapNs: s.ThinkNs, BudgetNs: budgetNs}
}

// SessionSpec declares how a scenario's operation stream segments into
// interactive sessions and what per-session SLA applies. Segmentation is
// defined on the gap stream itself — an arrival gap >= GapNs begins a new
// session — so it survives Materialize (which pins ops and gaps but
// discards the arrival process) and trace replay.
type SessionSpec struct {
	// GapNs is the session boundary: gaps >= GapNs start a new session.
	GapNs int64
	// BudgetNs is the per-session time budget: a session meets its SLA
	// when every operation completes within BudgetNs of the session's
	// first arrival. 0 disables budget accounting (sessions are still
	// counted and their makespans recorded).
	BudgetNs int64
}
