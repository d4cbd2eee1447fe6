// Command dataqual is the dataset/workload quality tool the paper proposes
// in §V-C: it scores a key trace (and optionally an inter-arrival trace)
// for benchmark suitability, attributing low marks to uniform/static
// inputs and high marks to skew, structure, drift, and load variation.
//
// Usage:
//
//	dataqual -keys trace.txt [-gaps gaps.txt]      # one integer per line
//	dataqual -demo                                  # score built-in examples
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/distgen"
	"repro/internal/quality"
	"repro/internal/workload"
)

func main() {
	var (
		keysPath = flag.String("keys", "", "file with one key (uint64) per line, in arrival order")
		gapsPath = flag.String("gaps", "", "optional file with inter-arrival gaps in ns, one per line")
		demo     = flag.Bool("demo", false, "score built-in example traces and exit")
	)
	flag.Parse()

	if *demo {
		runDemo()
		return
	}
	if *keysPath == "" {
		fmt.Fprintln(os.Stderr, "dataqual: -keys is required (or -demo)")
		os.Exit(2)
	}
	keys, err := readUints(*keysPath)
	if err != nil {
		fatal(err)
	}
	var gaps []int64
	if *gapsPath != "" {
		raw, err := readUints(*gapsPath)
		if err != nil {
			fatal(err)
		}
		gaps = make([]int64, len(raw))
		for i, g := range raw {
			gaps[i] = int64(g)
		}
	}
	r := quality.Score(keys, gaps)
	printReport("input", r)
}

func runDemo() {
	const n = 50000
	cases := []struct {
		name string
		keys []uint64
		gaps []int64
	}{
		{"uniform-static", distgen.Keys(distgen.NewUniform(1, 0, distgen.KeyDomain), n), nil},
		{"zipf-skewed", distgen.Keys(distgen.NewZipfKeys(2, 1.3, 100000), n), nil},
		{"clustered", distgen.Keys(distgen.NewClustered(3, 10, 1e9), n), nil},
		{"drifting", driftTrace(n), nil},
		{"bursty-load", distgen.Keys(distgen.NewZipfKeys(4, 1.1, 100000), n), burstGaps(n)},
	}
	for _, c := range cases {
		printReport(c.name, quality.Score(c.keys, c.gaps))
	}
}

func driftTrace(n int) []uint64 {
	d := distgen.NewBlend(5,
		distgen.NewUniform(6, 0, distgen.KeyDomain/8),
		distgen.NewClustered(7, 5, 1e8))
	out := make([]uint64, n)
	for i := range out {
		d.FillAt(float64(i)/float64(n), out[i:i+1])
	}
	return out
}

func burstGaps(n int) []int64 {
	b := workload.NewBursty(8, 10000, 20, 0.1, 5)
	out := make([]int64, n)
	for i := range out {
		out[i] = b.NextGap(float64(i) / float64(n))
	}
	return out
}

func printReport(name string, r quality.Report) {
	fmt.Printf("%-16s skew=%.2f shape=%.2f drift=%.2f load=%.2f overall=%.2f — %s\n",
		name, r.SkewScore, r.ShapeScore, r.DriftScore, r.LoadScore, r.Overall,
		quality.Grade(r.Overall))
}

func readUints(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		s := sc.Text()
		if s == "" {
			continue
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dataqual:", err)
	os.Exit(1)
}
