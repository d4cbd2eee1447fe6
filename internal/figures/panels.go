package figures

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Panel is one independently runnable artifact of the reproduction: the
// key figures -only selects it by, and the run that computes it and
// renders it.
type Panel struct {
	Key string
	run func(scale Scale, seed uint64) (any, *Output, error)
}

// Output is one rendered panel: its stdout section, and the CSV files it
// writes in the order it writes them.
type Output struct {
	Stdout []byte
	CSVs   []CSV
}

// CSV is one named CSV file of a panel.
type CSV struct {
	Name string
	Data []byte
}

// Run computes the panel at scale and seed and renders it. A panel's
// output is byte-identical at any scale.Parallel for the same seed.
func (p Panel) Run(scale Scale, seed uint64) (*Output, error) {
	_, out, err := p.run(scale, seed)
	return out, err
}

// Panels lists every panel in output order.
func Panels() []Panel {
	return []Panel{
		newPanel("fig1a", "Figure 1a — throughput per workload/data distribution", Fig1a, renderFig1a),
		newPanel("fig1aw", "Figure 1a (workload variant) — throughput per workload, Φ = plan-subtree Jaccard", Fig1aWorkload, renderFig1aWorkload),
		newPanel("fig1b", "Figure 1b — cumulative queries over time", Fig1b, renderFig1b),
		newPanel("fig1c", "Figure 1c — SLA violations around a distribution change", Fig1c, renderFig1c),
		newPanel("fig1d", "Figure 1d — throughput per cost (training vs manual tuning)", Fig1d, renderFig1d),
		newPanel("fig1e", "Figure 1e — robustness: degradation and recovery under injected faults", Fig1e, renderFig1e),
		newPanel("fig1f", "Figure 1f — storage tier: buffer pool, eviction policy, and compaction", Fig1f, renderFig1f),
		newPanel("fig1g", "Figure 1g — adaptability: the metric quadruple vs drift intensity D", Fig1g, renderFig1g),
		newPanel("lessons", "Lesson ablations", lessons, renderLessons),
		newPanel("optdrift", "Extension — learned query optimizer under data drift", OptDrift, renderOptDrift),
		newPanel("ablations", "Design-choice ablations (DESIGN.md §5)", ablations, renderAblations),
	}
}

// csvFunc adds the CSV file name to a panel's output; emit writes its rows.
type csvFunc func(name string, emit func(w io.Writer))

// newPanel pairs a panel's computation with its renderer, which writes
// the stdout section below the panel's title banner and hands each CSV
// file to csv.
func newPanel[R any](key, title string, compute func(Scale, uint64) (R, error), render func(w io.Writer, res R, csv csvFunc)) Panel {
	return Panel{Key: key, run: func(scale Scale, seed uint64) (any, *Output, error) {
		res, err := compute(scale, seed)
		if err != nil {
			return nil, nil, err
		}
		out := &Output{}
		var stdout bytes.Buffer
		banner := strings.Repeat("=", len(title))
		fmt.Fprintf(&stdout, "%s\n%s\n%s\n", banner, title, banner)
		render(&stdout, res, func(name string, emit func(io.Writer)) {
			var b bytes.Buffer
			emit(&b)
			out.CSVs = append(out.CSVs, CSV{Name: name, Data: b.Bytes()})
		})
		out.Stdout = stdout.Bytes()
		return res, out, nil
	}}
}
