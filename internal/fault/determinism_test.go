package fault

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/driver"
	"repro/internal/netdriver"
	"repro/internal/sim"
	"repro/internal/workload"
)

// driverFaultRun executes one multi-worker real-time driver run with the
// plan's injector on the wall clock and returns the measured outcomes and
// the fault ledger.
func driverFaultRun(t *testing.T, plan Plan, workers, batch int) (*core.Result, Report) {
	t.Helper()
	inj := NewInjector(plan, nil)
	res, err := driver.Run(Wrap(core.NewBTreeSUT(), inj),
		workload.Spec{
			Mix:    workload.ReadHeavy,
			Access: distgen.Static{G: distgen.NewUniform(11, 0, 1<<40)},
		},
		distgen.NewUniform(12, 0, 1<<40), 3000,
		driver.Options{Workers: workers, Ops: 6000, Seed: 13, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	return res, inj.Report()
}

// TestDriverFaultCountsDeterministic: under the wall-clock driver, how
// many ops fail does not depend on timing — decisions are pure functions of
// the injector's op sequence, so a run-long probabilistic window yields
// identical totals on every run, however workers and batch size group the
// ops into rounds.
func TestDriverFaultCountsDeterministic(t *testing.T) {
	plan, err := ParseSpec("error@0s-1h:rate=0.2", 31)
	if err != nil {
		t.Fatal(err)
	}
	resA, repA := driverFaultRun(t, plan, 8, 4)
	resB, repB := driverFaultRun(t, plan, 8, 4)

	if repA.FailedOps == 0 {
		t.Fatal("error window never fired")
	}
	if repA != repB {
		t.Fatalf("fault ledgers differ across runs:\n  %+v\n  %+v", repA, repB)
	}
	if resA.Outcomes.Failed != repA.FailedOps || resB.Outcomes.Failed != repB.FailedOps {
		t.Fatalf("driver failed tally (%d, %d) disagrees with injector (%d)",
			resA.Outcomes.Failed, resB.Outcomes.Failed, repA.FailedOps)
	}
	if resA.Snapshot.Failed != repA.FailedOps {
		t.Fatalf("snapshot failed = %d, injector = %d", resA.Snapshot.Failed, repA.FailedOps)
	}
	if got := resA.Completed + resA.Outcomes.Failed; got != 6000 {
		t.Fatalf("completed+failed = %d, want 6000", got)
	}
	// Worker count cannot change the totals either.
	_, repC := driverFaultRun(t, plan, 2, 1)
	if repC != repA {
		t.Fatalf("ledger depends on worker count: %+v vs %+v", repC, repA)
	}
}

// TestWireFaultsRecoverE2E: frames dropped by the injector are recovered
// by the client's retry path — the run completes with no latched error and
// correct results despite a lossy wire.
func TestWireFaultsRecoverE2E(t *testing.T) {
	srv, err := netdriver.Serve("127.0.0.1:0", core.NewBTreeSUT)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	plan, err := ParseSpec("drop@0s-1h:rate=0.2;delay@0s-1h:rate=0.3,delay=200us", 71)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan, nil)
	c, err := netdriver.DialOptions(srv.Addr(), netdriver.Options{
		ReadTimeout:  25 * time.Millisecond,
		WriteTimeout: 25 * time.Millisecond,
		MaxRetries:   8,
		RetrySeed:    71,
		WrapConn:     func(conn net.Conn) net.Conn { return NewConn(conn, inj) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Load is gated: its multi-write framing must never lose a chunk.
	keys := distgen.UniqueKeys(distgen.NewUniform(72, 0, 1<<30), 400)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i) + 1
	}
	c.Load(keys, vals)

	found := 0
	for i := 0; i < 90; i++ {
		res, err := c.DoErr(workload.Op{Type: workload.Get, Key: keys[i%len(keys)]})
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if res.Found {
			found++
		}
	}
	// Batched ops ride the same retry path (retry only before any
	// response frame has been consumed).
	ops := make([]workload.Op, 12)
	out := make([]core.OpResult, len(ops))
	for i := range ops {
		ops[i] = workload.Op{Type: workload.Get, Key: keys[i]}
	}
	for b := 0; b < 5; b++ {
		c.DoBatch(ops, out)
		for i, r := range out {
			if !r.Found {
				t.Fatalf("batch %d op %d: loaded key not found", b, i)
			}
		}
	}

	if err := c.Err(); err != nil {
		t.Fatalf("client latched error: %v", err)
	}
	if found != 90 {
		t.Fatalf("found %d/90 loaded keys", found)
	}
	rep := inj.Report()
	if rep.WireDrops == 0 {
		t.Fatal("drop window never fired")
	}
	if rep.WireDelays == 0 {
		t.Fatal("delay window never fired")
	}
	if c.Retries() == 0 {
		t.Fatal("client recovered dropped frames without retrying?")
	}
}

// slowLoad is a SUT whose Load outlasts the fault window of the test below.
type slowLoad struct{ core.SUT }

func (s slowLoad) Load(keys, values []uint64) {
	time.Sleep(50 * time.Millisecond)
	s.SUT.Load(keys, values)
}

// TestWallClockWindowsCountFromTheLoad: on the wall clock the injector's
// time, like every time in the result, starts when the initial load ends. A
// window [0, 20ms) therefore hits the first ops of the run however long the
// load took (anchored at dial time it would have closed during the 50 ms
// load and hit nothing), and the failures it causes sit where the result's
// own time axis says the window was.
func TestWallClockWindowsCountFromTheLoad(t *testing.T) {
	srv, err := netdriver.Serve("127.0.0.1:0", func() core.SUT { return slowLoad{core.NewBTreeSUT()} })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	plan, err := ParseSpec("slow@0ms-20ms:factor=8;error@0ms-20ms:rate=0.5", 5)
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewReal()
	inj := NewInjector(plan, clock)
	c, err := netdriver.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const ops = 20000
	runner := core.NewRunner()
	runner.WrapSUT = func(s core.SUT, _ sim.Clock) core.SUT { return Wrap(s, inj) }
	res, err := runner.RunOn(clock, core.Scenario{
		Seed: 3, InitialData: distgen.NewUniform(1, 0, 1<<30), InitialSize: 1000, IntervalNs: 10_000_000,
		Phases: []core.Phase{{Ops: ops, Source: workload.FromSpec(workload.Spec{
			Mix: workload.ReadHeavy, Access: distgen.Static{G: distgen.NewUniform(2, 0, 1<<30)}}, nil)}},
	}, c)
	if err != nil || c.Err() != nil {
		t.Fatal(err, c.Err())
	}

	rep := inj.Report()
	if rep.SlowedOps == 0 || rep.FailedOps == 0 || rep.SlowedOps+rep.FailedOps >= ops {
		t.Fatalf("window [0, 20ms) slowed %d and failed %d of %d ops: want some of each, and not all", rep.SlowedOps, rep.FailedOps, ops)
	}
	start, end, _ := plan.OpFaultSpan()
	if rec := res.Recovery(start, end, 0); rec.FailedOps != rep.FailedOps || res.Completed+rec.FailedOps != ops {
		t.Fatalf("result saw %d failures and %d completions, ledger %d failures of %d ops", rec.FailedOps, res.Completed, rep.FailedOps, ops)
	}
	// An op decided just inside the window may complete just outside it:
	// one interval of slack.
	for idx := 0; idx < res.Fails.Len(); idx++ {
		if at := int64(idx) * res.Fails.Width(); res.Fails.At(idx) > 0 && at > end {
			t.Fatalf("%d ops failed in the interval at %d ns, after the window closed at %d ns", res.Fails.At(idx), at, end)
		}
	}
}
