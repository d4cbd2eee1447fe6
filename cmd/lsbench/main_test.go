package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/netdriver"
	"repro/internal/sim"
	"repro/internal/workload"
)

// onePhase is a single-phase config -remote accepts; session, when set, is
// spliced in as the document's session clause.
func onePhase(t *testing.T, session string) string {
	t.Helper()
	doc := fmt.Sprintf(`{
	  "name": "remote-test", "seed": 5, %s
	  "initialData": {"kind": "uniform"}, "initialSize": 500,
	  "phases": [{"name": "p", "ops": 1500, "mix": {"get": 0.9, "put": 0.1},
	              "access": {"kind": "static", "gen": {"kind": "uniform"}}}]
	}`, session)
	path := filepath.Join(t.TempDir(), "one.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRemoteReportsThroughTheSharedPath: a loopback -remote run goes through
// printReport like a virtual one, so -csv writes its files there too.
func TestRemoteReportsThroughTheSharedPath(t *testing.T) {
	srv, err := netdriver.Serve("127.0.0.1:0", core.NewBTreeSUT)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	csv := filepath.Join(t.TempDir(), "csv")
	err = benchMain([]string{"-config", onePhase(t, ""), "-remote", srv.Addr(), "-csv", csv})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig1b.csv", "fig1c-remote(" + srv.Addr() + ").csv"} {
		if st, err := os.Stat(filepath.Join(csv, name)); err != nil || st.Size() == 0 {
			t.Errorf("-remote -csv did not write %s (%v)", name, err)
		}
	}
}

// captureStdout runs f with os.Stdout redirected to a file and returns what
// it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = f()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRemoteRunsEveryPhase: -remote is the virtual run path on another
// clock. The two-phase -example config (trainBefore, an arrival clause) runs
// over loopback and reports both phases; -remote -record writes the bytes
// `lstrace record` writes, Scenario.Materialize().Trace(); and replaying that
// file on the virtual clock finds and misses exactly what the wire run did.
func TestRemoteRunsEveryPhase(t *testing.T) {
	srv, err := netdriver.Serve("127.0.0.1:0", core.NewBTreeSUT)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dir := t.TempDir()
	cfg, rec := filepath.Join(dir, "ex.json"), filepath.Join(dir, "c.lstrace")
	if err := os.WriteFile(cfg, []byte(exampleConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return benchMain([]string{"-config", cfg, "-remote", srv.Addr(), "-batch", "4", "-record", rec})
	})
	for _, row := range []string{"steady", "shift"} {
		if !regexp.MustCompile(`(?m)^` + row + `\s+\d+\s+100000\s`).MatchString(out) {
			t.Errorf("no %q phase row with 100000 completed in the -remote report:\n%s", row, out)
		}
	}

	scenario, err := config.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := scenario.Materialize().Trace()
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "a.lstrace")
	if err := tr.WriteFile(want); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(want)
	c, _ := os.ReadFile(rec)
	if len(a) == 0 || !bytes.Equal(a, c) {
		t.Fatalf("-remote -record wrote %d bytes, Materialize().Trace() %d: not the same recording", len(c), len(a))
	}

	// The file replays on either clock: the same lookups hit and miss in
	// process on the virtual clock and over the wire on the wall clock.
	recorded, err := workload.ReadTraceFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	replay := scenario.Replay(recorded).Materialize()
	local, err := core.NewRunner().Run(replay, core.NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	client, err := netdriver.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wire, err := core.NewRunner().RunOn(sim.NewReal(), replay, client)
	if err != nil || client.Err() != nil {
		t.Fatal(err, client.Err())
	}
	if wire.Completed != 200000 || local.Outcomes.Found == 0 || local.Outcomes.NotFound == 0 ||
		wire.Outcomes.Found != local.Outcomes.Found || wire.Outcomes.NotFound != local.Outcomes.NotFound {
		t.Fatalf("replayed outcomes diverge: wire %d ops %+v, virtual %+v", wire.Completed, wire.Outcomes, local.Outcomes)
	}
}

// TestRemoteRefusesSessions: the wall clock ignores arrival gaps, so
// session segmentation cannot mean anything under -remote; a config's
// session clause is refused with the reason instead of silently dropped.
func TestRemoteRefusesSessions(t *testing.T) {
	srv, err := netdriver.Serve("127.0.0.1:0", core.NewBTreeSUT)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	err = benchMain([]string{"-config", onePhase(t, `"session": {"gapNs": 2000000, "budgetNs": 50000000},`), "-remote", srv.Addr()})
	if err == nil || !strings.Contains(err.Error(), "ignores arrival gaps") {
		t.Errorf("-remote with a session clause: err = %v, want a refusal that says why", err)
	}
}

// TestInProcessRefusesWireFaults: drop and delay windows act on a wire
// connection, so a run without -remote refuses them by kind instead of
// reporting a ledger of zeros.
func TestInProcessRefusesWireFaults(t *testing.T) {
	for _, kind := range []string{"drop", "delay"} {
		err := benchMain([]string{"-config", onePhase(t, ""), "-suts", "btree", "-faults", "slow@0s-1ms;" + kind + "@0s-1s"})
		if err == nil || !strings.Contains(err.Error(), kind) {
			t.Errorf("-faults %s without -remote: err = %v, want a refusal naming the kind", kind, err)
		}
	}
}
