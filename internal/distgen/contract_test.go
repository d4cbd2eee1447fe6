package distgen_test

import (
	"testing"

	"repro/internal/distgen"
	"repro/internal/driftctl"
)

// drawCase is one way the tree can build a key source. Generators ride as
// distgen.Static, which is how a workload holds them.
type drawCase struct {
	name string
	// p is the progress every draw is made at.
	p float64
	// emails is how many Email.Address calls one drawn key costs: the only
	// allocation a draw may make.
	emails int
	gen    func() distgen.Generator
	drift  func() distgen.Drift
}

func (c drawCase) make() distgen.Drift {
	if c.gen != nil {
		return distgen.Static{G: c.gen()}
	}
	return c.drift()
}

func zipf(seed uint64) distgen.Generator  { return distgen.NewZipfKeys(seed, 1.1, 1<<16) }
func email(seed uint64) distgen.Generator { return distgen.NewEmail(seed) }
func uniform(seed uint64) distgen.Generator {
	return distgen.NewUniform(seed, 0, distgen.KeyDomain)
}

// drawCases lists every generator and drift constructor, and the drift
// controller over a zero-alloc base and over the one base that allocates.
var drawCases = []drawCase{
	{name: "uniform", gen: func() distgen.Generator { return uniform(1) }},
	{name: "normal", gen: func() distgen.Generator { return distgen.NewNormal(2, 1e15, 1e13) }},
	{name: "lognormal", gen: func() distgen.Generator { return distgen.NewLognormal(3, 0, 2, 1e12) }},
	{name: "zipf", gen: func() distgen.Generator { return zipf(4) }},
	{name: "clustered", gen: func() distgen.Generator { return distgen.NewClustered(5, 8, 1e9) }},
	{name: "segmented", gen: func() distgen.Generator { return distgen.NewSegmented(6, 16) }},
	{name: "sequential", gen: func() distgen.Generator { return distgen.NewSequential(7, 100, 64) }},
	{name: "mixture", gen: func() distgen.Generator {
		return distgen.NewMixture(8, []distgen.Generator{uniform(9), zipf(10)}, []float64{1, 2})
	}},
	{name: "email", emails: 1, gen: func() distgen.Generator { return email(11) }},

	{name: "blend", p: 0.37, drift: func() distgen.Drift { return distgen.NewBlend(12, uniform(13), zipf(14)) }},
	{name: "abrupt", p: 0.37, drift: func() distgen.Drift { return distgen.NewAbrupt(15, uniform(16), zipf(17), 0.3) }},
	{name: "hotspot", p: 0.37, drift: func() distgen.Drift { return distgen.NewMovingHotspot(18, 0.9, 0.05, 2) }},
	{name: "growskew", p: 0.37, drift: func() distgen.Drift { return distgen.NewGrowingSkew(19, 1.2, 1<<16) }},
	{name: "replay", p: 0.37, drift: func() distgen.Drift { return distgen.NewReplay([]uint64{5, 3, 8, 1, 9}) }},
	{name: "schedule", p: 0.37, drift: func() distgen.Drift {
		return distgen.NewSchedule(distgen.Static{G: uniform(20)}, distgen.NewBlend(21, uniform(22), zipf(23)))
	}},
	{name: "controller/zipf", p: 0.37, drift: func() distgen.Drift {
		return driftctl.New(24, zipf(25), uniform(26), driftctl.Knob{Factor: 0.5})
	}},
	{name: "controller/email", p: 0.37, emails: 1, drift: func() distgen.Drift {
		return driftctl.NewCalibrated(27, email, uniform, driftctl.Knob{Factor: 0.5}, 0.25)
	}},
}

func sameKeys(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s diverges at key %d: %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestFillIsTheOneStream: on identically seeded instances, the fresh-slice
// package functions, one whole-buffer Fill/FillAt and n one-key fills (how
// the workload generator draws) all yield the same keys.
func TestFillIsTheOneStream(t *testing.T) {
	const n = 1024
	for _, c := range drawCases {
		t.Run(c.name, func(t *testing.T) {
			want := make([]uint64, n)
			c.make().FillAt(c.p, want)

			sameKeys(t, "KeysAt", distgen.KeysAt(c.make(), c.p, n), want)
			if c.gen != nil {
				sameKeys(t, "Keys", distgen.Keys(c.gen(), n), want)
			}
			perKey := make([]uint64, n)
			d := c.make()
			for i := range perKey {
				d.FillAt(c.p, perKey[i:i+1])
			}
			sameKeys(t, "one-key fills", perKey, want)
		})
	}
}

var addressSink string

// TestOneKeyDrawAllocations: a one-key draw allocates nothing, except where
// it builds an email address, and there it allocates only what Address does.
func TestOneKeyDrawAllocations(t *testing.T) {
	e := distgen.NewEmail(11)
	perAddress := testing.AllocsPerRun(200, func() { addressSink = e.Address() })
	if perAddress == 0 {
		t.Fatal("Address allocates nothing: the email rows below check nothing")
	}
	for _, c := range drawCases {
		d := c.make()
		var key [1]uint64
		got := testing.AllocsPerRun(200, func() { d.FillAt(c.p, key[:]) })
		if want := float64(c.emails) * perAddress; got != want {
			t.Errorf("%s: one-key draw allocates %v, want %v", c.name, got, want)
		}
	}
}
