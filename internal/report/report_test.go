package report

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/metrics"
	"repro/internal/stats"
)

func sampleSummary(vals ...float64) stats.Summary {
	return stats.Summarize(vals)
}

func TestBoxPlotSortsAndRenders(t *testing.T) {
	var sb strings.Builder
	rows := []BoxRow{
		{Label: "far", Phi: 0.9, Summary: sampleSummary(10, 20, 30, 40, 50)},
		{Label: "base", Phi: 0, Summary: sampleSummary(100, 110, 120, 130, 140)},
		{Label: "held", Phi: 0.5, Summary: sampleSummary(60, 70, 80), Holdout: true},
	}
	BoxPlot(&sb, "fig1a", rows, 60)
	out := sb.String()
	if !strings.Contains(out, "fig1a") {
		t.Fatal("missing title")
	}
	// Sorted by phi: base before held before far.
	if strings.Index(out, "base") > strings.Index(out, "held") ||
		strings.Index(out, "held") > strings.Index(out, "far") {
		t.Fatalf("rows not sorted by phi:\n%s", out)
	}
	if !strings.Contains(out, "(holdout)") {
		t.Fatal("holdout marker missing")
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "[") {
		t.Fatal("box glyphs missing")
	}
}

func TestBoxPlotEmptyRows(t *testing.T) {
	var sb strings.Builder
	BoxPlot(&sb, "empty", []BoxRow{{Label: "x", Phi: 0}}, 50)
	if sb.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestBoxCSV(t *testing.T) {
	var sb strings.Builder
	BoxCSV(&sb, []BoxRow{
		{Label: "with,comma", Phi: 0.1, Summary: sampleSummary(1, 2, 3)},
	})
	out := sb.String()
	if !strings.HasPrefix(out, "label,phi,holdout") {
		t.Fatal("missing header")
	}
	if !strings.Contains(out, `"with,comma"`) {
		t.Fatal("csv escaping failed")
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Fatal("row count")
	}
}

func makeCurve(n int, gap int64) *metrics.CumCurve {
	c := &metrics.CumCurve{}
	for i := 1; i <= n; i++ {
		c.Add(int64(i) * gap)
	}
	return c
}

func TestCumulativePlot(t *testing.T) {
	var sb strings.Builder
	fast := makeCurve(1000, 1e6)
	slow := makeCurve(500, 2e6)
	CumulativePlot(&sb, "fig1b", []string{"learned", "traditional"},
		[]*metrics.CumCurve{fast, slow}, 60, 10)
	out := sb.String()
	if !strings.Contains(out, "area-vs-ideal") {
		t.Fatal("missing area score")
	}
	if !strings.Contains(out, "area difference") {
		t.Fatal("missing pairwise area difference")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("curve marks missing")
	}
}

func TestCumulativePlotEmpty(t *testing.T) {
	var sb strings.Builder
	CumulativePlot(&sb, "x", []string{"a"}, []*metrics.CumCurve{{}}, 40, 8)
	if !strings.Contains(sb.String(), "no data") {
		t.Fatal("empty curve must say no data")
	}
}

func TestCumulativePlotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	CumulativePlot(&strings.Builder{}, "x", []string{"a", "b"}, []*metrics.CumCurve{{}}, 40, 8)
}

func TestCumulativeCSV(t *testing.T) {
	var sb strings.Builder
	CumulativeCSV(&sb, []string{"a"}, []*metrics.CumCurve{makeCurve(100, 1e6)}, 10)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 11 { // header + 10 points
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestBandChart(t *testing.T) {
	bt := metrics.NewBandTracker(1000, 1e9)
	for i := 0; i < 50; i++ {
		bt.Record(int64(i)*1e8, 500) // within
	}
	for i := 0; i < 20; i++ {
		bt.Record(5e9+int64(i)*1e8, 5000) // violations later
	}
	var sb strings.Builder
	BandChart(&sb, "fig1c", bt, 8)
	out := sb.String()
	if !strings.Contains(out, "#") {
		t.Fatal("within-SLA glyph missing")
	}
	if !strings.Contains(out, "!") {
		t.Fatal("violation glyph missing")
	}
	if !strings.Contains(out, "violation rate") {
		t.Fatal("violation rate missing")
	}
}

func TestBandChartMergesWideRuns(t *testing.T) {
	bt := metrics.NewBandTracker(1000, 1e6)
	for i := 0; i < 1000; i++ { // 1000 intervals -> must merge below 120 cols
		bt.Record(int64(i)*1e6, 500)
	}
	var sb strings.Builder
	BandChart(&sb, "wide", bt, 6)
	for _, line := range strings.Split(sb.String(), "\n") {
		if len(line) > 135 {
			t.Fatalf("line too wide: %d", len(line))
		}
	}
}

// A run whose every op failed has a table of failures only: Fig 1c has no
// completion to chart, and the robustness panel reads a full outage.
func TestAllFailedRun(t *testing.T) {
	c := metrics.NewCollector(metrics.CollectorConfig{IntervalNs: 1e6})
	for i := int64(0); i < 30; i++ {
		c.RecordFailed(i * 1e5)
	}
	s := c.Snapshot()
	var sb strings.Builder
	BandChart(&sb, "fig1c", s.Bands, 8)
	if sb.String() != "fig1c\n(no data)\n" {
		t.Fatalf("band chart of an all-failed run:\n%s", sb.String())
	}
	sb.Reset()
	RobustnessPanel(&sb, "robustness", s, s.Recovery(0, 3e6))
	for _, want := range []string{"(30 failed / 30 ops)", "-> 100.00% peak", "failures/interval   ###  (peak 10)"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("robustness panel lacks %q:\n%s", want, sb.String())
		}
	}
}

func TestBandCSV(t *testing.T) {
	bt := metrics.NewBandTracker(1000, 1e9)
	bt.Record(0, 100)
	bt.Record(0, 3000)
	var sb strings.Builder
	BandCSV(&sb, bt)
	out := sb.String()
	if !strings.Contains(out, "green,yellow,orange,red") {
		t.Fatal("header missing levels")
	}
	if !strings.Contains(out, "0,2,1,1,") {
		t.Fatalf("row wrong:\n%s", out)
	}
}

func TestCostPlot(t *testing.T) {
	learned := cost.Curve{
		{Dollars: 5, Throughput: 100, Label: "b1"},
		{Dollars: 50, Throughput: 800, Label: "b2"},
	}
	trad := cost.Curve{
		{Dollars: 0, Throughput: 200, Label: "untuned"},
		{Dollars: 100, Throughput: 600, Label: "tuned"},
	}
	var sb strings.Builder
	CostPlot(&sb, "fig1d", learned, trad, 60, 10)
	out := sb.String()
	if !strings.Contains(out, "L") || !strings.Contains(out, "T") {
		t.Fatal("curve marks missing")
	}
	if !strings.Contains(out, "training cost to outperform") {
		t.Fatal("headline metric missing")
	}
	if !strings.Contains(out, "$50.00") {
		t.Fatalf("wrong crossover:\n%s", out)
	}
}

func TestCostPlotNeverWins(t *testing.T) {
	learned := cost.Curve{{Dollars: 5, Throughput: 10, Label: "b"}}
	trad := cost.Curve{{Dollars: 0, Throughput: 100, Label: "u"}}
	var sb strings.Builder
	CostPlot(&sb, "x", learned, trad, 40, 8)
	if !strings.Contains(sb.String(), "never outperforms") {
		t.Fatal("missing never-outperforms note")
	}
}

func TestCostCSV(t *testing.T) {
	var sb strings.Builder
	CostCSV(&sb,
		cost.Curve{{Dollars: 2, Throughput: 5, Label: "l"}},
		cost.Curve{{Dollars: 1, Throughput: 3, Label: "t"}})
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "learned,") || !strings.HasPrefix(lines[2], "traditional,") {
		t.Fatalf("rows:\n%s", sb.String())
	}
}

func TestTableAlignment(t *testing.T) {
	var sb strings.Builder
	Table(&sb, []string{"name", "value"}, [][]string{
		{"alpha", "1"},
		{"a-much-longer-name", "22"},
	})
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Fatal("separator missing")
	}
}

func TestSortedKeys(t *testing.T) {
	got := SortedKeys(map[string]int{"b": 1, "a": 2, "c": 3})
	if strings.Join(got, "") != "abc" {
		t.Fatalf("sorted keys = %v", got)
	}
}

func TestTruncate(t *testing.T) {
	if truncate("short", 10) != "short" {
		t.Fatal("no-op truncate")
	}
	if got := truncate("averylonglabelindeed", 8); len(got) > 10 { // ellipsis is multi-byte
		t.Fatalf("truncate = %q", got)
	}
}
