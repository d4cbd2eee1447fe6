// Command datagen generates synthetic datasets and workload traces to
// files — the §V-C synthetic-data path of the benchmark. Output is one
// uint64 key per line, suitable for dataqual and external tooling.
//
// Usage:
//
//	datagen -kind zipf -n 100000 -theta 1.2 > keys.txt
//	datagen -kind email -n 50000 -addresses       # emit raw addresses
//	datagen -kind drift -n 100000                 # uniform->clustered trace
//	datagen -synth trace.txt -n 100000            # fit §V-C synthesizer to a
//	                                              # recorded trace, emit a
//	                                              # statistically equivalent one
//	datagen -list                                 # show available kinds
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/config"
	"repro/internal/distgen"
	"repro/internal/synth"
)

func main() {
	var (
		kind      = flag.String("kind", "uniform", "distribution kind")
		n         = flag.Int("n", 100000, "number of keys")
		seed      = flag.Uint64("seed", 1, "random seed")
		theta     = flag.Float64("theta", 1.1, "zipf skew")
		clusters  = flag.Int("clusters", 20, "clustered: cluster count")
		segments  = flag.Int("segments", 16, "segmented: segment count")
		sorted    = flag.Bool("sorted", false, "emit keys sorted ascending")
		addresses = flag.Bool("addresses", false, "email kind: emit raw addresses")
		list      = flag.Bool("list", false, "list available kinds and exit")
		synthPath = flag.String("synth", "", "fit the §V-C synthesizer to this trace file and emit a synthetic equivalent")
		anonymize = flag.Bool("anonymize", false, "with -synth: remap hot-key identities (costs marginal fidelity)")
	)
	flag.Parse()

	if *list {
		fmt.Println("kinds: uniform normal lognormal zipf clustered segmented sequential email drift")
		fmt.Println("or: -synth <trace file>")
		return
	}
	if *n <= 0 {
		fatal(fmt.Errorf("-n must be positive"))
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	if *synthPath != "" {
		trace, err := readTrace(*synthPath)
		if err != nil {
			fatal(err)
		}
		opts := synth.FitOptions{}
		if *anonymize {
			opts.RemapSeed = *seed | 1
		}
		model, err := synth.Fit(trace, opts)
		if err != nil {
			fatal(err)
		}
		for _, k := range model.Generate(*n, *seed) {
			fmt.Fprintln(w, k)
		}
		return
	}

	if *kind == "email" && *addresses {
		g := distgen.NewEmail(*seed)
		for i := 0; i < *n; i++ {
			fmt.Fprintln(w, g.Address())
		}
		return
	}
	if *kind == "drift" {
		d := distgen.NewBlend(*seed,
			distgen.NewUniform(*seed+1, 0, distgen.KeyDomain/8),
			distgen.NewClustered(*seed+2, *clusters, float64(distgen.KeyDomain)/1e6))
		for i := 0; i < *n; i++ {
			fmt.Fprintln(w, distgen.KeysAt(d, float64(i)/float64(*n), 1)[0])
		}
		return
	}

	// The kinds and their defaults are config.GenSpec's, the catalog scenario
	// files draw from; only the sequential start is datagen's own.
	g, err := config.GenSpec{Kind: *kind, Theta: *theta, Clusters: *clusters, Segments: *segments, Start: 1 << 20}.Build(*seed)
	if err != nil {
		fatal(fmt.Errorf("%w (try -list)", err))
	}

	var keys []uint64
	if *sorted {
		keys = distgen.Sorted(g, *n)
	} else {
		keys = distgen.Keys(g, *n)
	}
	for _, k := range keys {
		fmt.Fprintln(w, k)
	}
}

func readTrace(path string) ([]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		s := sc.Text()
		if s == "" {
			continue
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
