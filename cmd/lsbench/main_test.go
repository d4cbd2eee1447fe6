package main

import (
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
// over loopback and reports both phases; and its recording,
// Scenario.Materialize().Trace(), replayed through per-phase trace sources,
// finds and misses exactly the same keys on the virtual clock in process and
// on the wall clock over the wire.
func TestRemoteRunsEveryPhase(t *testing.T) {
	srv, err := netdriver.Serve("127.0.0.1:0", core.NewBTreeSUT)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg := writeConfig(t, exampleConfig)
	out := captureStdout(t, func() error {
		return benchMain([]string{"-config", cfg, "-remote", srv.Addr(), "-batch", "4"})
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
	recorded, err := workload.ReadTraceFile(recordFile(t, scenario))
	if err != nil {
		t.Fatal(err)
	}
	for i := range scenario.Phases {
		scenario.Phases[i].Source = recorded.PhaseReader(i)
	}
	replay := scenario.Materialize()
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

// TestTraceClauseReplayKeepsRetrainWindows: a recording replayed through
// per-phase trace source clauses reproduces the live run's report byte for
// byte, here for the -example config with a retrain window before its
// second phase: the document keeps its phases, and with them the window.
func TestTraceClauseReplayKeepsRetrainWindows(t *testing.T) {
	doc := strings.Replace(exampleConfig, `"name": "shift",`, `"name": "shift", "retrainBefore": true,`, 1)
	cfg := writeConfig(t, doc)
	scenario, err := config.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !scenario.Phases[1].RetrainBefore {
		t.Fatal("the shift phase has no retrain window")
	}
	rec := recordFile(t, scenario)
	for i, name := range []string{"steady", "shift"} {
		clause := fmt.Sprintf(`"name": %q, "source": {"kind": "trace", "path": %q, "phase": %d},`, name, rec, i)
		doc = strings.Replace(doc, fmt.Sprintf(`"name": %q,`, name), clause, 1)
	}
	replay := writeConfig(t, doc)

	args := []string{"-suts", "btree,rmi,alex"}
	live := captureStdout(t, func() error { return benchMain(append([]string{"-config", cfg}, args...)) })
	replayed := captureStdout(t, func() error { return benchMain(append([]string{"-config", replay}, args...)) })
	// The window ran: rmi's train-work is the initial training (1025) plus
	// a retrain over the grown database (≈ 100 000).
	if !regexp.MustCompile(`(?m)^rmi\s+\d+\s+\S+\s+\S+\s+\S+\s+\S+\s+\S+\s+[1-9]\d{5,}\s`).MatchString(live) {
		t.Fatalf("live rmi row shows no retrain work beyond the initial training:\n%s", live)
	}
	if replayed != live {
		t.Fatalf("trace-clause replay diverges from the live run\n--- replay ---\n%s\n--- live ---\n%s", replayed, live)
	}
}

// writeConfig writes a config document to a temporary file and returns its
// path.
func writeConfig(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// recordFile writes the scenario's recording, as `lstrace record` does,
// and returns its path.
func recordFile(t *testing.T, s core.Scenario) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rec.lstrace")
	tr, err := s.Materialize().Trace()
	if err == nil {
		err = tr.WriteFile(path)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
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
