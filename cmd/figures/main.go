// Command figures regenerates every evaluation artifact of the paper —
// the four panels of Figure 1 plus the Lesson ablations — printing ASCII
// plots to stdout and, with -csv, the raw data series for external
// plotting. This is the end-to-end reproduction entry point referenced by
// EXPERIMENTS.md.
//
// Panels run concurrently under -parallel (default GOMAXPROCS): each
// panel renders into its own buffer and buffers are flushed in
// declaration order, so stdout and every CSV are byte-identical at any
// parallelism level for the same seed.
//
// Usage:
//
//	figures [-scale small|full] [-seed N] [-only fig1a,...] [-csv dir] [-parallel N]
//
// An unknown -only key is an error. Fig 1g's drift grid and session pacing
// are figures.Fig1gIntensities and the Fig1gSession* constants.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/figures"
	"repro/internal/par"
	"repro/internal/prof"
)

// panelKeys lists every panel key in output order.
func panelKeys() (keys []string) {
	for _, p := range figures.Panels() {
		keys = append(keys, p.Key)
	}
	return keys
}

// selectPanels returns the panels named in only, a comma list of keys, in
// output order; "" selects every panel. An unknown key is an error that
// lists the valid ones.
func selectPanels(only string) ([]figures.Panel, error) {
	if only == "" {
		return figures.Panels(), nil
	}
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		k = strings.TrimSpace(k)
		if !slices.Contains(panelKeys(), k) {
			return nil, fmt.Errorf("unknown panel %q (have: %s)", k, strings.Join(panelKeys(), ","))
		}
		want[k] = true
	}
	return slices.DeleteFunc(figures.Panels(), func(p figures.Panel) bool { return !want[p.Key] }), nil
}

func main() {
	var (
		scaleName  = flag.String("scale", "small", "experiment scale: small or full")
		seed       = flag.Uint64("seed", 42, "base random seed")
		only       = flag.String("only", "", "comma-separated subset: "+strings.Join(panelKeys(), ","))
		csvDir     = flag.String("csv", "", "directory for CSV series")
		parallelN  = flag.Int("parallel", 0, "max concurrent experiment runs (0 = GOMAXPROCS, 1 = serial); output is byte-identical at any setting")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	var scale figures.Scale
	switch *scaleName {
	case "small":
		scale = figures.SmallScale()
	case "full":
		scale = figures.FullScale()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	scale.Parallel = *parallelN

	selected, err := selectPanels(*only)
	if err != nil {
		fatal(err)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	// Fan the panels out; each renders into its own output so stdout and
	// the CSV files stay in declaration order regardless of completion
	// order.
	outs := make([]*figures.Output, len(selected))
	err = par.ForEach(len(selected), *parallelN, func(i int) (err error) {
		outs[i], err = selected[i].Run(scale, *seed)
		return err
	})
	for _, out := range outs {
		if out != nil {
			os.Stdout.Write(out.Stdout)
		}
	}
	for _, out := range outs {
		if out == nil || *csvDir == "" {
			continue
		}
		for _, c := range out.CSVs {
			if err := os.WriteFile(filepath.Join(*csvDir, c.Name), c.Data, 0o666); err != nil {
				fatal(err)
			}
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
