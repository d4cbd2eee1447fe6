package main

import (
	"strings"
	"testing"

	"repro/internal/figures"
)

// TestSelectPanels: -only picks panels in output order whatever order it
// names them in, "" picks all of them, and an unknown key is an error that
// lists the valid keys instead of a run that prints nothing.
func TestSelectPanels(t *testing.T) {
	got, err := selectPanels(" fig1g,fig1a")
	if err != nil || len(got) != 2 || got[0].Key != "fig1a" || got[1].Key != "fig1g" {
		t.Fatalf("selectPanels(fig1g,fig1a) = %v, %v", got, err)
	}
	if all, err := selectPanels(""); err != nil || len(all) != len(figures.Panels()) {
		t.Fatalf("selectPanels(\"\") = %d panels, %v; want %d", len(all), err, len(figures.Panels()))
	}
	for _, only := range []string{"fig1x", "fig1a,fig1x", "fig1a,"} {
		_, err := selectPanels(only)
		if keys := strings.Join(panelKeys(), ","); err == nil || !strings.Contains(err.Error(), keys) {
			t.Errorf("selectPanels(%q): err = %v, want one listing %s", only, err, keys)
		}
	}
}
