package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netdriver"
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
	err = benchMain([]string{"-config", onePhase(t, ""), "-remote", srv.Addr(), "-workers", "2", "-csv", csv})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig1b.csv", "fig1c-remote(" + srv.Addr() + ").csv"} {
		if st, err := os.Stat(filepath.Join(csv, name)); err != nil || st.Size() == 0 {
			t.Errorf("-remote -csv did not write %s (%v)", name, err)
		}
	}
}

// TestRemoteRefusesSessions: the real-time driver ignores arrival gaps, so
// session segmentation cannot mean anything under -remote; both ways of
// asking for it are refused with the reason instead of silently dropped.
func TestRemoteRefusesSessions(t *testing.T) {
	srv, err := netdriver.Serve("127.0.0.1:0", core.NewBTreeSUT)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for name, args := range map[string][]string{
		"flag":   {"-config", onePhase(t, ""), "-session", "gap=2ms,budget=50ms"},
		"clause": {"-config", onePhase(t, `"session": {"gapNs": 2000000, "budgetNs": 50000000},`)},
	} {
		err := benchMain(append(args, "-remote", srv.Addr()))
		if err == nil || !strings.Contains(err.Error(), "ignores arrival gaps") {
			t.Errorf("%s: -remote with a session spec: err = %v, want a refusal that says why", name, err)
		}
	}
}
