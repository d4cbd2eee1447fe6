package metrics

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// Event kinds of a fuzzed completion stream (an event's first byte mod 8).
const (
	evFailed  = 5 // the op completes as an error
	evSession = 6 // a session starts with this op, which then succeeds
	evPhase   = 7 // a phase boundary; no op
	// 0-4: the op succeeds.

	maxEvents = 256
)

// collectorCase decodes fuzz bytes into a collector configuration and a
// completion stream. data[0] picks a fixed SLA or a small CalibrateAfter,
// data[1] the interval width, data[2] the adjustment-speed window; then each
// event is three bytes: kind, time step (completion times are
// non-decreasing and start below zero) and latency. At most maxEvents are
// read, so a case spans a few thousand intervals at most.
func collectorCase(data []byte) (CollectorConfig, [][3]int64) {
	for len(data) < 3 {
		data = append(data, 0)
	}
	cfg := CollectorConfig{IntervalNs: 1 + int64(data[1]%64), PostChangeN: int(data[2] % 32)}
	if data[0]&1 == 1 {
		cfg.SLANs = 1 + int64(data[0]>>1)*8
	} else {
		cfg.CalibrateAfter = 1 + int(data[0]>>1)%8
	}
	t := int64(-100)
	var evs [][3]int64
	for ev := data[3:]; len(ev) >= 3 && len(evs) < maxEvents; ev = ev[3:] {
		t += int64(ev[1] % 64)
		evs = append(evs, [3]int64{int64(ev[0] % 8), t, int64(ev[2]) * 37})
	}
	return cfg, evs
}

// FuzzCollectorBatch is the differential check of the collector's one
// recording path: a stream fed op at a time (Record, the one-element
// RecordBatch) and the same stream fed in runs of random length must
// snapshot identically, phase histograms included — wherever a run
// crosses an interval, the calibration point or a failure, session or
// phase boundary. The snapshot is also checked against a naive model: each
// interval of its band table counts the cumulative curve's completions and
// the failure events that fall in it, Failed is the failure events' total,
// and each phase change's adjustment speed is the plain sum of
// max(latency - SLA, 0) over the first PostChangeN successes after it.
func FuzzCollectorBatch(f *testing.F) {
	ev := func(kind, dt, lat byte) []byte { return []byte{kind, dt, lat} }
	cat := func(head []byte, evs ...[]byte) []byte {
		for _, e := range evs {
			head = append(head, e...)
		}
		return head
	}
	// Times start at -100 ns, which clamps into the first interval: two
	// 63 ns steps carry each seed to +26 ns, so its events cross intervals.
	var crossings, calibration, phases, interrupts []byte
	crossings = cat([]byte{9, 3, 0}, ev(0, 63, 0), ev(0, 63, 0)) // SLA 33, interval 4
	calibration = cat([]byte{4, 50, 0}, ev(0, 63, 3), ev(1, 63, 4))
	for i := byte(0); i < 12; i++ {
		crossings = cat(crossings, ev(0, 1, i))
		calibration = cat(calibration, ev(i%5, 2, 3+i)) // CalibrateAfter 3
	}
	phases = cat([]byte{2, 10, 1}, ev(0, 63, 1), ev(0, 63, 1), ev(0, 1, 1), ev(1, 3, 2), ev(evPhase, 0, 0), ev(2, 4, 3), ev(3, 5, 4))
	interrupts = cat([]byte{7, 8, 2}, ev(0, 63, 1), ev(0, 63, 1), ev(evSession, 1, 1), ev(0, 1, 2), ev(evFailed, 9, 0),
		ev(evPhase, 0, 0), ev(1, 2, 3), ev(evSession, 20, 4), ev(evFailed, 0, 0), ev(evFailed, 1, 0), ev(2, 3, 5))
	for _, seed := range [][]byte{crossings, calibration, phases, interrupts} {
		f.Add(seed, int64(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, split int64) {
		cfg, evs := collectorCase(data)

		single := NewCollector(cfg)
		var singlePhases []*Histogram
		for _, e := range evs {
			switch e[0] {
			case evPhase:
				singlePhases = append(singlePhases, single.BeginPhase())
				continue
			case evFailed:
				single.RecordFailed(e[1])
				continue
			case evSession:
				single.BeginSession(e[1])
			}
			single.Record(e[1], e[2])
		}

		runs := NewCollector(cfg)
		var runsPhases []*Histogram
		rng := rand.New(rand.NewSource(split))
		var done, lat []int64
		flush := func() {
			for len(done) > 0 {
				n := rng.Intn(len(done) + 1)
				runs.RecordBatch(done[:n], lat[:n])
				done, lat = done[n:], lat[n:]
			}
		}
		for _, e := range evs {
			switch e[0] {
			case evPhase:
				flush()
				runsPhases = append(runsPhases, runs.BeginPhase())
				continue
			case evFailed:
				flush()
				runs.RecordFailed(e[1])
				continue
			case evSession:
				flush()
				runs.BeginSession(e[1])
			}
			done, lat = append(done, e[1]), append(lat, e[2])
		}
		flush()

		if !reflect.DeepEqual(singlePhases, runsPhases) {
			t.Fatalf("phase histograms differ:\n  op at a time %v\n  in runs      %v", singlePhases, runsPhases)
		}
		a, b := single.Snapshot(), runs.Snapshot()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("snapshots differ:\n  op at a time %+v\n  in runs      %+v", a, b)
		}

		// Per interval: {completions, failures}.
		var model [][2]int64
		count := func(at int64, k int, n int64) {
			idx := int(max(at, 0) / cfg.IntervalNs)
			for len(model) <= idx {
				model = append(model, [2]int64{})
			}
			model[idx][k] += n
		}
		prev := int64(0)
		a.Cumulative.Points(func(at, n int64) {
			count(at, 0, n-prev)
			prev = n
		})
		var failed int64
		for _, e := range evs {
			if e[0] == evFailed {
				count(e[1], 1, 1)
				failed++
			}
		}
		var table [][2]int64
		for _, iv := range a.Bands.Intervals() {
			table = append(table, [2]int64{iv.Completed(), iv.Failed})
		}
		if !slices.Equal(table, model) || a.Failed != failed {
			t.Fatalf("{completed, failed} per interval %v, total failed %d; want the curve's and the failure events' %v, %d", table, a.Failed, model, failed)
		}

		var adjust []int64
		phased, left := false, 0
		for _, e := range evs {
			switch e[0] {
			case evPhase:
				if phased {
					adjust, left = append(adjust, 0), cfg.PostChangeN
				}
				phased = true
			case evFailed:
			default:
				phased = true
				if left > 0 {
					adjust[len(adjust)-1] += max(e[2]-a.SLANs, 0)
					left--
				}
			}
		}
		if !slices.Equal(a.AdjustmentNs, adjust) {
			t.Fatalf("adjustment speeds %v, want %v (SLA %d, window %d)", a.AdjustmentNs, adjust, a.SLANs, cfg.PostChangeN)
		}
	})
}
