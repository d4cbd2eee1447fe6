package workload

import (
	"math"
	"testing"

	"repro/internal/distgen"
)

func uniformSpec() Spec {
	return Spec{
		Name:   "test",
		Mix:    Mix{GetFrac: 0.5, PutFrac: 0.3, DeleteFrac: 0.1, ScanFrac: 0.1, ScanLimit: 50},
		Access: distgen.Static{G: distgen.NewUniform(1, 0, 1000)},
	}
}

func TestMixNormalize(t *testing.T) {
	m := Mix{GetFrac: 2, PutFrac: 2}.Normalize()
	if m.GetFrac != 0.5 || m.PutFrac != 0.5 {
		t.Fatalf("normalize = %+v", m)
	}
	if m.ScanLimit != 100 {
		t.Fatal("default scan limit")
	}
	z := Mix{}.Normalize()
	if z.GetFrac != 1 {
		t.Fatal("zero mix must default to all-get")
	}
}

func TestGeneratorProportions(t *testing.T) {
	g := NewGenerator(uniformSpec(), 42)
	counts := map[OpType]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		op := g.Next(0.5)
		counts[op.Type]++
	}
	check := func(ot OpType, want float64) {
		got := float64(counts[ot]) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("%v fraction = %v, want %v", ot, got, want)
		}
	}
	check(Get, 0.5)
	check(Put, 0.3)
	check(Delete, 0.1)
	check(Scan, 0.1)
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(uniformSpec(), 7)
	b := NewGenerator(uniformSpec(), 7)
	for i := 0; i < 1000; i++ {
		x, y := a.Next(0.3), b.Next(0.3)
		if x != y {
			t.Fatalf("op %d diverged: %+v vs %+v", i, x, y)
		}
	}
}

func TestGeneratorScanLimit(t *testing.T) {
	spec := uniformSpec()
	spec.Mix = Mix{ScanFrac: 1, ScanLimit: 77}
	g := NewGenerator(spec, 1)
	op := g.Next(0)
	if op.Type != Scan || op.ScanLimit != 77 {
		t.Fatalf("op = %+v", op)
	}
}

func TestGeneratorInsertKeysSeparate(t *testing.T) {
	spec := Spec{
		Mix:        Mix{PutFrac: 1},
		Access:     distgen.Static{G: distgen.NewUniform(1, 0, 10)},
		InsertKeys: distgen.Static{G: distgen.NewUniform(2, 1000, 2000)},
	}
	g := NewGenerator(spec, 3)
	for i := 0; i < 100; i++ {
		op := g.Next(0)
		if op.Key < 1000 || op.Key >= 2000 {
			t.Fatalf("put key %d not from InsertKeys", op.Key)
		}
	}
}

func TestGeneratorMixTransition(t *testing.T) {
	end := Mix{PutFrac: 1}
	spec := Spec{
		Mix:    Mix{GetFrac: 1},
		MixEnd: &end,
		Access: distgen.Static{G: distgen.NewUniform(1, 0, 1000)},
	}
	g := NewGenerator(spec, 5)
	frac := func(p float64) float64 {
		puts := 0
		for i := 0; i < 5000; i++ {
			if g.Next(p).Type == Put {
				puts++
			}
		}
		return float64(puts) / 5000
	}
	if f := frac(0); f > 0.02 {
		t.Fatalf("puts at start = %v", f)
	}
	if f := frac(0.5); math.Abs(f-0.5) > 0.05 {
		t.Fatalf("puts at midpoint = %v", f)
	}
	if f := frac(1); f < 0.98 {
		t.Fatalf("puts at end = %v", f)
	}
	// Out-of-range progress clamps.
	g.Next(-1)
	g.Next(2)
}

func TestGeneratorPanicsWithoutAccess(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil Access")
		}
	}()
	NewGenerator(Spec{Mix: ReadHeavy}, 1)
}

func TestOpTypeString(t *testing.T) {
	for _, ot := range []OpType{Get, Put, Delete, Scan} {
		if ot.String() == "" {
			t.Fatal("empty op name")
		}
	}
	if OpType(42).String() == "" {
		t.Fatal("unknown op must stringify")
	}
}

func TestStandardMixesNormalized(t *testing.T) {
	for _, m := range []Mix{ReadHeavy, Balanced, WriteHeavy, ScanHeavy} {
		n := m.Normalize()
		sum := n.GetFrac + n.PutFrac + n.DeleteFrac + n.ScanFrac
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("mix sums to %v", sum)
		}
	}
}

func TestClosedLoop(t *testing.T) {
	c := ClosedLoop{}
	if c.NextGap(0.5) != 0 || c.Name() == "" {
		t.Fatal("closed loop")
	}
}

// TestPoissonMeanRate checks the gaps against the exponential law they
// must follow: mean 1/λ, coefficient of variation 1 and P(gap > 1/λ) = e⁻¹.
// The CV and tail bounds are 4 standard errors (1/√n for the CV of an
// exponential sample, √(p(1−p)/n) for the tail share); seeds 1–500 all
// stayed inside them, the largest deviation 2.95 standard errors.
func TestPoissonMeanRate(t *testing.T) {
	p := NewPoisson(1, 1000) // 1000/s => mean gap 1ms
	var sum, sumSq float64
	over := 0
	const n = 50000
	for i := 0; i < n; i++ {
		g := p.NextGap(0)
		if g < 0 {
			t.Fatal("negative gap")
		}
		sum += float64(g)
		sumSq += float64(g) * float64(g)
		if g > 1e6 {
			over++
		}
	}
	mean := sum / n
	if math.Abs(mean-1e6)/1e6 > 0.03 {
		t.Fatalf("mean gap = %v ns, want ~1e6", mean)
	}
	cv := math.Sqrt((sumSq-n*mean*mean)/(n-1)) / mean
	if se := 1 / math.Sqrt(n); math.Abs(cv-1) > 4*se {
		t.Fatalf("gap CV = %v, want 1 ± %v", cv, 4*se)
	}
	tail, want := float64(over)/n, math.Exp(-1)
	if se := math.Sqrt(want * (1 - want) / n); math.Abs(tail-want) > 4*se {
		t.Fatalf("P(gap > 1/λ) = %v, want %v ± %v", tail, want, 4*se)
	}
}

func TestPoissonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewPoisson(1, 0)
}

func TestDiurnalRateVaries(t *testing.T) {
	d := NewDiurnal(2, 1000, 0.8, 1)
	peak := d.RateAt(0.25)   // sin peak
	trough := d.RateAt(0.75) // sin trough
	if peak <= trough {
		t.Fatalf("diurnal rates: peak %v, trough %v", peak, trough)
	}
	if math.Abs(peak-1800) > 1 || math.Abs(trough-200) > 1 {
		t.Fatalf("rates = %v, %v", peak, trough)
	}
	// Gaps at the trough are longer on average.
	gapMean := func(p float64) float64 {
		var s int64
		for i := 0; i < 20000; i++ {
			s += d.NextGap(p)
		}
		return float64(s) / 20000
	}
	if gapMean(0.25) >= gapMean(0.75) {
		t.Fatal("diurnal gap means not ordered")
	}
}

func TestBurstyBursts(t *testing.T) {
	b := NewBursty(3, 100, 10, 0.2, 2)
	if !b.InBurst(0.05) {
		t.Fatal("expected burst at start of period")
	}
	if b.InBurst(0.3) {
		t.Fatal("no burst expected at 0.3")
	}
	// Burst gaps are ~10x shorter.
	mean := func(p float64) float64 {
		var s int64
		for i := 0; i < 20000; i++ {
			s += b.NextGap(p)
		}
		return float64(s) / 20000
	}
	ratio := mean(0.3) / mean(0.05)
	if ratio < 5 || ratio > 20 {
		t.Fatalf("burst speedup ratio = %v, want ~10", ratio)
	}
}

func TestArrivalNames(t *testing.T) {
	for _, a := range []Arrival{
		ClosedLoop{},
		NewPoisson(1, 100),
		NewDiurnal(1, 100, 0.5, 2),
		NewBursty(1, 100, 5, 0.1, 3),
	} {
		if a.Name() == "" {
			t.Fatal("empty arrival name")
		}
	}
}

// TestOpenLoopGapNeverZero: a gap of 0 means closed loop to the runner, so
// an open-loop process must never emit one — not even at a rate where
// nearly every exponential draw truncates to 0 ns.
func TestOpenLoopGapNeverZero(t *testing.T) {
	for _, a := range []Arrival{
		NewPoisson(1, 1e9),
		NewDiurnal(2, 1e9, 0.5, 3),
		NewBursty(3, 1e9, 10, 0.2, 2),
		NewSessionArrival(4, 1000, 1, 1_000_000, 1_000_000),
	} {
		for i := 0; i < 100_000; i++ {
			if g := a.NextGap(float64(i) / 100_000); g < 1 {
				t.Fatalf("%s: draw %d is a %d ns gap, which the runner reads as closed loop", a.Name(), i, g)
			}
		}
	}
}

func TestArrivalPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"diurnal-amp":     func() { NewDiurnal(1, 100, 1.5, 1) },
		"diurnal-rate":    func() { NewDiurnal(1, 0, 0.5, 1) },
		"bursty-factor":   func() { NewBursty(1, 100, 0.5, 0.1, 1) },
		"bursty-fraction": func() { NewBursty(1, 100, 5, 1.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
