package fault

import (
	"repro/internal/core"
	"repro/internal/workload"
)

// CrashRestarter is implemented by SUTs that can simulate a process
// crash-restart: wipe volatile learned state (models, caches) while
// keeping durable contents, leaving the system degraded until retrained.
// SUTs without it are crash-restarted via core.Trainable.Train — the
// forced retrain is the observable cost.
type CrashRestarter interface {
	CrashRestart()
}

// SUT is the fault-injection middleware: it wraps any core.SUT and
// applies the injector's op-layer verdicts (slow, error, crash-restart)
// around the inner system. With an empty plan it is transparent — results
// are byte-identical to running the inner SUT bare.
type SUT struct {
	inner core.SUT
	batch core.BatchSUT
	inj   *Injector
}

// Wrap returns s behind the fault middleware driven by inj.
func Wrap(s core.SUT, inj *Injector) *SUT {
	return &SUT{inner: s, batch: core.AsBatch(s), inj: inj}
}

// Name implements core.SUT.
func (s *SUT) Name() string { return s.inner.Name() }

// Load implements core.SUT.
func (s *SUT) Load(keys, values []uint64) { s.inner.Load(keys, values) }

// Do implements core.SUT: one injector verdict per operation. A crash
// fires before the op and charges the forced retraining work to the op
// itself — the latency spike is the measurement. A failed op returns
// immediately with Failed set and no work.
func (s *SUT) Do(op workload.Op) core.OpResult {
	d := s.inj.DecideOp()
	var crashWork int64
	if d.Crash {
		crashWork = s.crashRestart()
	}
	if d.Fail {
		return core.OpResult{Failed: true, Work: crashWork}
	}
	res := s.inner.Do(op)
	if d.SlowFactor > 1 {
		res.Work = int64(float64(res.Work) * d.SlowFactor)
	}
	res.Work += crashWork
	return res
}

// DoBatch implements core.BatchSUT as a pass-through: the middleware adds
// nothing to a batch, it only must not break one up when the inner SUT is
// a netdriver.Client, whose batch is one round trip. With no op-layer
// fault in the plan the batch goes to the inner SUT whole; otherwise ops
// dispatch one at a time so each gets its own verdict at the frozen
// dispatch-time clock.
func (s *SUT) DoBatch(ops []workload.Op, out []core.OpResult) {
	if !s.inj.opFaultsPossible() {
		s.batch.DoBatch(ops, out)
		return
	}
	for i, op := range ops {
		out[i] = s.Do(op)
	}
}

// crashRestart wipes the inner SUT's learned state and retrains it,
// returning the work the op must absorb. Prefers CrashRestarter; falls
// back to Trainable (the retrain is the crash cost). For counter-delta
// SUTs (IndexSUT) the retrain work also lands in the instrumentation
// counters and is charged to this op via the normal delta path, so the
// explicit report work is not added twice — recordRetrain only feeds the
// fault ledger.
func (s *SUT) crashRestart() int64 {
	if cr, ok := s.inner.(CrashRestarter); ok {
		cr.CrashRestart()
		s.inj.recordRetrain(0)
		return 0
	}
	tr, ok := s.inner.(core.Trainable)
	if !ok {
		return 0
	}
	rep := tr.Train()
	s.inj.recordRetrain(rep.WorkUnits)
	return 0
}

// Train implements core.Trainable by forwarding to the inner SUT; a
// non-trainable inner returns the zero report, which the runner ignores.
func (s *SUT) Train() core.TrainReport {
	if tr, ok := s.inner.(core.Trainable); ok {
		return tr.Train()
	}
	return core.TrainReport{}
}

// OnlineTrainWork implements core.OnlineLearner by forwarding.
func (s *SUT) OnlineTrainWork() int64 {
	if ol, ok := s.inner.(core.OnlineLearner); ok {
		return ol.OnlineTrainWork()
	}
	return 0
}

// Inner exposes the wrapped SUT (tests, examples).
func (s *SUT) Inner() core.SUT { return s.inner }

var (
	_ core.SUT           = (*SUT)(nil)
	_ core.BatchSUT      = (*SUT)(nil)
	_ core.Trainable     = (*SUT)(nil)
	_ core.OnlineLearner = (*SUT)(nil)
)
