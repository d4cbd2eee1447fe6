package fault

import (
	"repro/internal/core"
	"repro/internal/workload"
)

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
// fires before the op, which absorbs the forced retraining work — the
// latency spike is the measurement. A failed op returns immediately with
// Failed set and no work.
func (s *SUT) Do(op workload.Op) core.OpResult {
	d := s.inj.DecideOp()
	if d.Crash {
		s.crashRestart()
	}
	if d.Fail {
		return core.OpResult{Failed: true}
	}
	res := s.inner.Do(op)
	if d.SlowFactor > 1 {
		res.Work = int64(float64(res.Work) * d.SlowFactor)
	}
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

// crashRestart is the crash: a forced Train() of a trainable inner SUT
// (the retrain is the crash cost; anything else has no learned state to
// lose). The retrain work lands in the SUT's instrumentation counters and
// reaches the crashing op through the normal work-delta path, so the
// report's work is not added to the op a second time — recordRetrain only
// feeds the fault ledger.
func (s *SUT) crashRestart() {
	if tr, ok := s.inner.(core.Trainable); ok {
		s.inj.recordRetrain(tr.Train().WorkUnits)
	}
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

var (
	_ core.SUT           = (*SUT)(nil)
	_ core.BatchSUT      = (*SUT)(nil)
	_ core.Trainable     = (*SUT)(nil)
	_ core.OnlineLearner = (*SUT)(nil)
)
