package fault

import (
	"bytes"
	"encoding/json"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Injector drives a Plan against a clock and hands out fault decisions to
// the two plug-in layers. Decisions are pure functions of (plan seed,
// window index, site sequence number): the sequence numbers are taken
// from atomic counters, so under concurrent dispatch the *set* of
// affected sites — and therefore every counter in Report — is identical
// across runs even when goroutine interleaving is not. Under the virtual
// runner dispatch order is itself deterministic, making whole results
// byte-identical.
type Injector struct {
	plan  Plan
	clock sim.Clock

	opSeq   atomic.Uint64
	wireSeq atomic.Uint64

	// crashFired latches each CrashRestart window (point events fire once).
	crashFired []atomic.Bool

	// wireOff gates wire faults globally (load/close framing must not be
	// perturbed — dropping a mid-load chunk desyncs the stream).
	wireOff atomic.Bool

	slowed      atomic.Int64
	failed      atomic.Int64
	crashes     atomic.Int64
	retrainWork atomic.Int64
	wireDrops   atomic.Int64
	wireDelays  atomic.Int64
}

// NewInjector builds an injector for plan driven by clock. A nil clock
// means wall time measured from this call (sim.Real anchored now).
func NewInjector(plan Plan, clock sim.Clock) *Injector {
	if clock == nil {
		clock = sim.NewReal()
	}
	return &Injector{
		plan:       plan,
		clock:      clock,
		crashFired: make([]atomic.Bool, len(plan.Windows)),
	}
}

// Plan returns the plan the injector is driving.
func (in *Injector) Plan() Plan { return in.plan }

// Clock returns the driving clock.
func (in *Injector) Clock() sim.Clock { return in.clock }

// Decision is the verdict for one SUT operation.
type Decision struct {
	// Crash: a CrashRestart window fired; wipe learned state and retrain
	// before the op executes.
	Crash bool
	// Fail: the op fails without executing (OpResult.Failed).
	Fail bool
	// SlowFactor multiplies the op's work; 1 when no SlowOps window hit.
	SlowFactor float64
}

// DecideOp returns the fault verdict for the next SUT operation at the
// current clock time. Error windows are checked before slow windows: a
// failed op never also pays inflated work.
func (in *Injector) DecideOp() Decision {
	d := Decision{SlowFactor: 1}
	if in.plan.Empty() {
		return d
	}
	now := in.clock.Now()
	seq := in.opSeq.Add(1) - 1
	for wi, w := range in.plan.Windows {
		switch w.Kind {
		case CrashRestart:
			if now >= w.StartNs && in.crashFired[wi].CompareAndSwap(false, true) {
				d.Crash = true
				in.crashes.Add(1)
			}
		case ErrorOps:
			if !d.Fail && w.covers(now) && in.hit(wi, seq, w.rate()) {
				d.Fail = true
				in.failed.Add(1)
			}
		case SlowOps:
			if w.covers(now) && in.hit(wi, seq, w.rate()) {
				d.SlowFactor *= w.factor()
			}
		}
	}
	if d.Fail {
		d.SlowFactor = 1
	} else if d.SlowFactor > 1 {
		in.slowed.Add(1)
	}
	return d
}

// opFaultsPossible reports whether any op-layer window exists at all —
// when false, Wrap hands batches to the inner SUT whole.
func (in *Injector) opFaultsPossible() bool {
	for _, w := range in.plan.Windows {
		if w.Kind.opKind() {
			return true
		}
	}
	return false
}

// WireDecision is the verdict for one wire write.
type WireDecision struct {
	// Drop: swallow the write; the peer never sees the frame.
	Drop bool
	// DelayNs: sleep this long before writing.
	DelayNs int64
}

// DecideWrite returns the fault verdict for the next wire write. Returns
// the zero decision when wire faults are gated off (SetWireFaults).
func (in *Injector) DecideWrite() WireDecision {
	var d WireDecision
	if in.plan.Empty() || in.wireOff.Load() {
		return d
	}
	now := in.clock.Now()
	seq := in.wireSeq.Add(1) - 1
	for wi, w := range in.plan.Windows {
		if !w.Kind.wireKind() || !w.covers(now) || !in.hit(wi, seq, w.rate()) {
			continue
		}
		switch w.Kind {
		case WireDrop:
			if !d.Drop {
				d.Drop = true
				in.wireDrops.Add(1)
			}
		case WireDelay:
			d.DelayNs += w.delayNs()
			in.wireDelays.Add(1)
		}
	}
	if d.Drop {
		d.DelayNs = 0
	}
	return d
}

// SetWireFaults gates wire-write faults on or off. The netdriver client
// turns them off around load and close framing, whose multi-write
// streams cannot tolerate a dropped chunk.
func (in *Injector) SetWireFaults(on bool) { in.wireOff.Store(!on) }

// recordRetrain accumulates crash-forced retraining work (Wrap calls it).
func (in *Injector) recordRetrain(work int64) { in.retrainWork.Add(work) }

// hit decides membership of site seq in window wi's affected set: the
// splitmix64 finalizer over (seed, window, seq) mapped to [0, 1)
// and compared against the window rate. Stateless, so concurrent callers
// agree without coordination.
func (in *Injector) hit(wi int, seq uint64, rate float64) bool {
	if rate >= 1 {
		return true
	}
	x := stats.Mix64(in.plan.Seed ^ (uint64(wi)+1)*0x9E3779B97F4A7C15 ^ (seq+1)*0xBF58476D1CE4E5B9)
	return float64(x>>11)/(1<<53) < rate
}

// Report is the injector's deterministic fault ledger: what the plan
// actually did to the run.
type Report struct {
	Spec             string `json:"spec"`
	Seed             uint64 `json:"seed"`
	SlowedOps        int64  `json:"slowed_ops"`
	FailedOps        int64  `json:"failed_ops"`
	Crashes          int64  `json:"crashes"`
	CrashRetrainWork int64  `json:"crash_retrain_work"`
	WireDrops        int64  `json:"wire_drops"`
	WireDelays       int64  `json:"wire_delays"`
}

// Report snapshots the fault ledger.
func (in *Injector) Report() Report {
	return Report{
		Spec:             in.plan.String(),
		Seed:             in.plan.Seed,
		SlowedOps:        in.slowed.Load(),
		FailedOps:        in.failed.Load(),
		Crashes:          in.crashes.Load(),
		CrashRetrainWork: in.retrainWork.Load(),
		WireDrops:        in.wireDrops.Load(),
		WireDelays:       in.wireDelays.Load(),
	}
}

// Marshal renders the report as deterministic JSON (fixed field order,
// trailing newline) for goldens and logs.
func (r Report) Marshal() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		panic("fault: marshal report: " + err.Error())
	}
	return buf.Bytes()
}
