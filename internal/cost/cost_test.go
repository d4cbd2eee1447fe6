package cost

import (
	"errors"
	"math"
	"testing"
)

func TestTrainingCostTiers(t *testing.T) {
	m := DefaultModel()
	// 1000 work units at 0.001 CPU-hours each = 1 CPU-hour.
	cpu := m.TrainingCost(1000, 0.001, CPU)
	if math.Abs(cpu-0.80) > 1e-9 {
		t.Fatalf("cpu cost = %v", cpu)
	}
	gpu := m.TrainingCost(1000, 0.001, GPU)
	// GPU: 1/12 hour at $3.20/h ≈ $0.267 — cheaper AND faster.
	if gpu >= cpu {
		t.Fatalf("gpu training should be cheaper here: %v vs %v", gpu, cpu)
	}
	if m.TrainingCost(0, 0.001, CPU) != 0 || m.TrainingCost(10, 0, CPU) != 0 {
		t.Fatal("degenerate training cost must be 0")
	}
}

func TestExecutionAndDBACost(t *testing.T) {
	m := DefaultModel()
	if m.ExecutionCost(10) != 8 {
		t.Fatalf("execution = %v", m.ExecutionCost(10))
	}
	if m.DBACost(2) != 240 {
		t.Fatalf("dba = %v", m.DBACost(2))
	}
	if m.ExecutionCost(-1) != 0 || m.DBACost(-1) != 0 {
		t.Fatal("negative hours must cost 0")
	}
}

func TestTCO(t *testing.T) {
	m := DefaultModel()
	// 100 exec hours/year over 3 years at $0.80 = $240, plus $500 one-time.
	if got := m.TCO(100, 500); math.Abs(got-740) > 1e-9 {
		t.Fatalf("TCO = %v", got)
	}
}

func TestCurveAt(t *testing.T) {
	c := Curve{
		{Dollars: 0, Throughput: 100},
		{Dollars: 50, Throughput: 300},
		{Dollars: 200, Throughput: 250}, // spending more can measure worse...
	}
	if c.At(-1) != 0 {
		t.Fatal("unaffordable")
	}
	if c.At(0) != 100 {
		t.Fatal("free point")
	}
	if c.At(60) != 300 {
		t.Fatal("mid budget")
	}
	// ...but At keeps the best affordable configuration.
	if c.At(1000) != 300 {
		t.Fatal("step semantics violated")
	}
}

func TestTrainingCostToOutperform(t *testing.T) {
	learned := Curve{
		{Dollars: 10, Throughput: 80, Label: "b10"},
		{Dollars: 100, Throughput: 550, Label: "b100"},
		{Dollars: 40, Throughput: 450, Label: "b40"},
	}
	trad := Curve{
		{Dollars: 0, Throughput: 100},
		{Dollars: 480, Throughput: 500}, // fully tuned
	}
	d, p, err := TrainingCostToOutperform(learned, trad)
	if err != nil {
		t.Fatal(err)
	}
	// Must beat the *best* traditional point (500): first learned point
	// above 500 in cost order is b100 at $100.
	if d != 100 || p.Label != "b100" {
		t.Fatalf("got $%v at %s", d, p.Label)
	}
}

func TestTrainingCostNeverOutperforms(t *testing.T) {
	learned := Curve{{Dollars: 10, Throughput: 80}}
	trad := Curve{{Dollars: 0, Throughput: 100}}
	_, _, err := TrainingCostToOutperform(learned, trad)
	if !errors.Is(err, ErrNeverOutperforms) {
		t.Fatalf("err = %v", err)
	}
}

func TestCrossoverBudget(t *testing.T) {
	learned := Curve{
		{Dollars: 10, Throughput: 150},
		{Dollars: 100, Throughput: 550},
	}
	trad := Curve{
		{Dollars: 0, Throughput: 100},
		{Dollars: 480, Throughput: 500},
	}
	// At $10 spend, traditional.At(10) = 100 < 150: crossover at $10.
	d, err := CrossoverBudget(learned, trad)
	if err != nil || d != 10 {
		t.Fatalf("crossover = %v, %v", d, err)
	}
	// A learned system that never wins at equal spend.
	weak := Curve{{Dollars: 1000, Throughput: 90}}
	if _, err := CrossoverBudget(weak, trad); !errors.Is(err, ErrNeverOutperforms) {
		t.Fatalf("err = %v", err)
	}
}

func TestCurveSortStable(t *testing.T) {
	c := Curve{
		{Dollars: 50, Throughput: 2, Label: "a"},
		{Dollars: 10, Throughput: 1, Label: "b"},
		{Dollars: 50, Throughput: 3, Label: "c"},
	}
	c.Sort()
	if c[0].Label != "b" || c[1].Label != "a" || c[2].Label != "c" {
		t.Fatalf("sort order: %v %v %v", c[0].Label, c[1].Label, c[2].Label)
	}
}

func TestCurvePointString(t *testing.T) {
	if (CurvePoint{Dollars: 1, Throughput: 2, Label: "x"}).String() == "" {
		t.Fatal("empty string")
	}
}

func TestGPUVsCPUTradeoffShape(t *testing.T) {
	// The Figure 1d discussion: "it could be more profitable to use a
	// learned system with a GPU" — same work, GPU finishes sooner; check
	// the model yields the expected dominance when speedup/price > 1.
	m := DefaultModel()
	work, unit := 50000.0, 0.0005
	cpuCost := m.TrainingCost(work, unit, CPU)
	gpuCost := m.TrainingCost(work, unit, GPU)
	tpu := HardwareTier{Name: "tpu", DollarsPerH: 8.00, Speedup: 40}
	tpuCost := m.TrainingCost(work, unit, tpu)
	if !(gpuCost < cpuCost && tpuCost < cpuCost) {
		t.Fatalf("accelerators should cut dollar cost: cpu=%v gpu=%v tpu=%v",
			cpuCost, gpuCost, tpuCost)
	}
}
