package config

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/workload"
)

const driftSessionJSON = `{
  "name": "drift-session",
  "seed": 7,
  "initialData": {"kind": "uniform"},
  "initialSize": 3000,
  "intervalNs": 200000,
  "session": {"gapNs": 2000000, "budgetNs": 30000000},
  "phases": [
    {
      "name": "drifting",
      "ops": 3000,
      "mix": {"get": 0.8, "put": 0.2},
      "access": {"kind": "controller", "factor": 0.5, "profile": "ramp", "normalize": 0.25,
        "startGen": {"kind": "zipf", "theta": 1.1, "universe": 1048576},
        "endGen": {"kind": "uniform"}},
      "arrival": {"kind": "session", "thinkNs": 2000000, "intraGapNs": 50000, "minOps": 3, "maxOps": 9}
    }
  ]
}`

func TestControllerDriftClause(t *testing.T) {
	u := &GenSpec{Kind: "uniform"}
	z := &GenSpec{Kind: "zipf"}
	d, err := DriftSpec{Kind: "controller", StartGen: z, EndGen: u, Factor: 0.5}.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(distgen.KeysAt(d, 0.5, 5)) != 5 {
		t.Fatal("controller drift produced no keys")
	}
	if !strings.Contains(d.Name(), "D=0.50") {
		t.Fatalf("name %q does not carry the factor", d.Name())
	}

	bad := []DriftSpec{
		{Kind: "controller", StartGen: z},                                    // missing target
		{Kind: "controller", StartGen: z, EndGen: u, Factor: 1.5},            // factor out of range
		{Kind: "controller", StartGen: z, EndGen: u, Profile: "warp"},        // unknown profile
		{Kind: "controller", StartGen: z, EndGen: &GenSpec{Kind: "mystery"}}, // bad target spec
		{Kind: "controller", StartGen: &GenSpec{Kind: "mystery"}, EndGen: u}, // bad base spec
	}
	for _, s := range bad {
		if _, err := s.Build(1); err == nil {
			t.Fatalf("invalid controller spec accepted: %+v", s)
		}
	}
}

func TestSessionArrivalClause(t *testing.T) {
	a, err := ArrivalSpec{Kind: "session"}.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(*workload.SessionArrival); !ok {
		t.Fatalf("session clause built %T", a)
	}
	if g := a.NextGap(0); g < 2_000_000 {
		t.Fatalf("default think gap %d below 2ms", g)
	}
}

func TestDriftSessionEndToEnd(t *testing.T) {
	s, err := Parse([]byte(driftSessionJSON))
	if err != nil {
		t.Fatal(err)
	}
	if s.Session == nil || s.Session.BudgetNs != 30_000_000 {
		t.Fatalf("session clause lost: %+v", s.Session)
	}
	res, err := core.NewRunner().Run(s, core.NewBTreeSUT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Sessions == nil || res.Snapshot.Sessions.Sessions == 0 {
		t.Fatal("run produced no session stats")
	}
}
