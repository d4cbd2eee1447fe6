package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/figures"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestSQLPanelGoldens pins the stdout of the query panels (fig1aw, optdrift)
// at the default small scale and seed byte-for-byte. Regenerate with
//
//	go test ./cmd/figures -run TestSQLPanelGoldens -update
func TestSQLPanelGoldens(t *testing.T) {
	for _, p := range panels() {
		if p.key != "fig1aw" && p.key != "optdrift" {
			continue
		}
		t.Run(p.key, func(t *testing.T) {
			var buf bytes.Buffer
			if err := p.run(&buf, figures.SmallScale(), 42, ""); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", p.key+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s stdout drifted from golden\n--- got ---\n%s\n--- want ---\n%s", p.key, buf.Bytes(), want)
			}
		})
	}
}

// TestSelectPanels: -only picks panels in output order whatever order it
// names them in, "" picks all of them, and an unknown key is an error that
// lists the valid keys instead of a run that prints nothing.
func TestSelectPanels(t *testing.T) {
	got, err := selectPanels(" fig1g,fig1a")
	if err != nil || len(got) != 2 || got[0].key != "fig1a" || got[1].key != "fig1g" {
		t.Fatalf("selectPanels(fig1g,fig1a) = %v, %v", got, err)
	}
	if all, err := selectPanels(""); err != nil || len(all) != len(panels()) {
		t.Fatalf("selectPanels(\"\") = %d panels, %v; want %d", len(all), err, len(panels()))
	}
	for _, only := range []string{"fig1x", "fig1a,fig1x", "fig1a,"} {
		_, err := selectPanels(only)
		if keys := strings.Join(panelKeys(), ","); err == nil || !strings.Contains(err.Error(), keys) {
			t.Errorf("selectPanels(%q): err = %v, want one listing %s", only, err, keys)
		}
	}
}
