// Package report renders benchmark results as text: ASCII box plots
// (Fig 1a), cumulative-completion step plots (Fig 1b), SLA band charts
// (Fig 1c), throughput-vs-cost step plots (Fig 1d), plus CSV emitters so
// every figure's data can be regenerated and re-plotted elsewhere.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// BoxRow is one box of a Figure 1a chart: a label (workload/data
// distribution), its Φ distance from the baseline, and the throughput
// summary.
type BoxRow struct {
	Label   string
	Phi     float64
	Summary stats.Summary
	Holdout bool
}

// BoxPlot renders rows as horizontal ASCII box plots on a shared scale,
// sorted by Φ ascending (the paper: "it should be sufficient to sort the
// results by Φ value").
func BoxPlot(w io.Writer, title string, rows []BoxRow, width int) {
	if width < 40 {
		width = 40
	}
	sorted := append([]BoxRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Phi < sorted[j].Phi })

	lo, hi := 0.0, 0.0
	first := true
	for _, r := range sorted {
		if r.Summary.N == 0 {
			continue
		}
		if first || r.Summary.Min < lo {
			lo = r.Summary.Min
		}
		if first || r.Summary.Max > hi {
			hi = r.Summary.Max
		}
		first = false
	}
	if hi <= lo {
		hi = lo + 1
	}
	scale := func(v float64) int {
		p := int((v - lo) / (hi - lo) * float64(width-1))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}

	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-24s %8s  %s\n", "distribution", "phi", "throughput (min |--[ q1 | median | q3 ]--| max)")
	for _, r := range sorted {
		line := make([]byte, width)
		for i := range line {
			line[i] = ' '
		}
		if r.Summary.N > 0 {
			wl, wh := scale(r.Summary.WhiskerLow), scale(r.Summary.WhiskerHigh)
			q1, q3 := scale(r.Summary.P25), scale(r.Summary.P75)
			med := scale(r.Summary.Median)
			for i := wl; i <= wh; i++ {
				line[i] = '-'
			}
			for i := q1; i <= q3; i++ {
				line[i] = '='
			}
			line[wl] = '|'
			line[wh] = '|'
			if q1 >= 0 {
				line[q1] = '['
			}
			if q3 < width {
				line[q3] = ']'
			}
			line[med] = '#'
		}
		label := r.Label
		if r.Holdout {
			label += " (holdout)"
		}
		fmt.Fprintf(w, "%-24s %8.3f  %s  med=%.0f n=%d out=%d\n",
			truncate(label, 24), r.Phi, string(line),
			r.Summary.Median, r.Summary.N, r.Summary.OutlierCount)
	}
	fmt.Fprintf(w, "scale: %.0f .. %.0f ops/s\n", lo, hi)
}

// BoxCSV emits the Figure 1a data series.
func BoxCSV(w io.Writer, rows []BoxRow) {
	fmt.Fprintln(w, "label,phi,holdout,n,min,p25,median,p75,max,mean,stddev,outliers")
	sorted := append([]BoxRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Phi < sorted[j].Phi })
	for _, r := range sorted {
		s := r.Summary
		fmt.Fprintf(w, "%s,%.6f,%v,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%d\n",
			csvEscape(r.Label), r.Phi, r.Holdout, s.N, s.Min, s.P25, s.Median,
			s.P75, s.Max, s.Mean, s.Stddev, s.OutlierCount)
	}
}

// CumulativePlot renders one or more cumulative curves (Fig 1b) as an
// ASCII chart of completed queries over time, plus the area scores.
func CumulativePlot(w io.Writer, title string, labels []string, curves []*metrics.CumCurve, width, height int) {
	if len(labels) != len(curves) {
		panic("report: labels/curves mismatch")
	}
	if width < 40 {
		width = 40
	}
	if height < 8 {
		height = 8
	}
	var maxT, maxC int64
	for _, c := range curves {
		if c.Duration() > maxT {
			maxT = c.Duration()
		}
		if c.Total() > maxC {
			maxC = c.Total()
		}
	}
	if maxT == 0 || maxC == 0 {
		fmt.Fprintf(w, "%s\n(no data)\n", title)
		return
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := []byte{'*', 'o', '+', 'x', '%', '@'}
	for ci, c := range curves {
		m := marks[ci%len(marks)]
		for col := 0; col < width; col++ {
			t := int64(float64(col) / float64(width-1) * float64(maxT))
			cnt := c.At(t)
			row := height - 1 - int(float64(cnt)/float64(maxC)*float64(height-1))
			if row < 0 {
				row = 0
			}
			if grid[row][col] == ' ' || grid[row][col] == m {
				grid[row][col] = m
			} else {
				grid[row][col] = '&' // overlap
			}
		}
	}
	fmt.Fprintf(w, "%s\n", title)
	for _, row := range grid {
		fmt.Fprintf(w, "|%s\n", string(row))
	}
	fmt.Fprintf(w, "+%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "0 .. %.3fs, ymax=%d queries\n", float64(maxT)/1e9, maxC)
	for ci, label := range labels {
		fmt.Fprintf(w, "  %c %s: %d queries, area-vs-ideal=%.3f\n",
			marks[ci%len(marks)], label, curves[ci].Total(), curves[ci].AreaVsIdeal())
	}
	if len(curves) == 2 {
		fmt.Fprintf(w, "  area difference (%s vs %s): %.3f\n",
			labels[0], labels[1], metrics.AreaBetween(curves[0], curves[1]))
	}
}

// CumulativeCSV emits the Fig 1b series, downsampled to at most points.
func CumulativeCSV(w io.Writer, labels []string, curves []*metrics.CumCurve, points int) {
	fmt.Fprintln(w, "label,time_ns,completed")
	for i, c := range curves {
		c.Sample(points, func(t, cnt int64) {
			fmt.Fprintf(w, "%s,%d,%d\n", csvEscape(labels[i]), t, cnt)
		})
	}
}

// BandChart renders Figure 1c: one column per interval, split into
// within-SLA (#) and violating (!) completions, normalized to the busiest
// interval; "(no data)" when no interval holds a completion.
func BandChart(w io.Writer, title string, bt *metrics.BandTracker, height int) {
	ivs := bt.Intervals()
	merge, cols := chartColumns(len(ivs))
	type col struct{ ok, bad int64 }
	columns := make([]col, cols)
	for i, iv := range ivs {
		columns[i/merge].ok += iv.WithinSLA()
		columns[i/merge].bad += iv.Violated()
	}
	var maxC int64
	for _, c := range columns {
		maxC = max(maxC, c.ok+c.bad)
	}
	if maxC == 0 {
		fmt.Fprintf(w, "%s\n(no data)\n", title)
		return
	}
	height = max(height, 6)
	fmt.Fprintf(w, "%s (SLA=%.3fms, interval=%.3fms x%d)\n",
		title, float64(bt.SLA())/1e6, float64(bt.Width())/1e6, merge)
	for row := height; row >= 1; row-- {
		thresh := float64(row) / float64(height) * float64(maxC)
		var sb strings.Builder
		for _, c := range columns {
			total := float64(c.ok + c.bad)
			switch {
			case total < thresh:
				sb.WriteByte(' ')
			case float64(c.ok) >= thresh:
				sb.WriteByte('#')
			default:
				sb.WriteByte('!')
			}
		}
		fmt.Fprintf(w, "|%s\n", sb.String())
	}
	fmt.Fprintf(w, "+%s\n", strings.Repeat("-", cols))
	fmt.Fprintf(w, "# within SLA, ! violation; violation rate %.2f%%\n", bt.ViolationRate()*100)
}

// chartColumns caps a per-interval chart at 120 columns: it returns how
// many intervals each column merges and how many columns n intervals take.
func chartColumns(n int) (merge, cols int) {
	merge, cols = 1, n
	for cols > 120 {
		merge *= 2
		cols = (n + merge - 1) / merge
	}
	return merge, cols
}

// BandCSV emits the Fig 1c series with the four color-coded levels.
func BandCSV(w io.Writer, bt *metrics.BandTracker) {
	fmt.Fprintln(w, "start_ns,completed,within_sla,violated,green,yellow,orange,red,over_sla_ns")
	for _, iv := range bt.Intervals() {
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			iv.Start, iv.Completed(), iv.WithinSLA(), iv.Violated(),
			iv.ByLevel[metrics.Green], iv.ByLevel[metrics.Yellow],
			iv.ByLevel[metrics.Orange], iv.ByLevel[metrics.Red], iv.OverSLATime)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
