package figures

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// testSeed is the seed figures prints by default; with SmallScale and
// Parallel 1 it fixes the one run of each panel every test here reads.
const testSeed = 42

// panelRun is one panel computed once per test binary.
type panelRun struct {
	Panel
	once sync.Once
	res  any
	out  *Output
	err  error
}

var panelRuns = func() map[string]*panelRun {
	m := map[string]*panelRun{}
	for _, p := range Panels() {
		m[p.Key] = &panelRun{Panel: p}
	}
	return m
}()

// serialRun returns the panel's result and output at SmallScale, seed 42,
// Parallel 1 — what figures prints by default — computing it on first use.
func serialRun(t *testing.T, key string) (any, *Output) {
	t.Helper()
	r := panelRuns[key]
	r.once.Do(func() {
		scale := SmallScale()
		scale.Parallel = 1
		r.res, r.out, r.err = r.run(scale, testSeed)
	})
	if r.err != nil {
		t.Fatalf("%s: %v", key, r.err)
	}
	return r.res, r.out
}

// result is the typed result of the panel's cached serial run.
func result[R any](t *testing.T, key string) R {
	t.Helper()
	res, _ := serialRun(t, key)
	return res.(R)
}

// checkParallel: a Parallel 8 run of a panel that fans out must equal the
// cached serial run, rendered bytes and typed result alike — which also
// catches state leaking from one run to the next in one process. It marks
// the test parallel and returns the parallel run's result.
func checkParallel[R any](t *testing.T, key string) R {
	t.Helper()
	t.Parallel()
	res, out := serialRun(t, key)
	scale := SmallScale()
	scale.Parallel = 8
	pres, pout, err := panelRuns[key].run(scale, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pout, out) {
		t.Fatalf("%s: output differs between the serial and the parallel run", key)
	}
	if !reflect.DeepEqual(pres, res) {
		t.Fatalf("%s: result differs between the serial and the parallel run", key)
	}
	return pres.(R)
}

// golden is a panel's stdout section followed by every CSV it writes.
func golden(out *Output) []byte {
	var b bytes.Buffer
	b.Write(out.Stdout)
	for _, c := range out.CSVs {
		fmt.Fprintf(&b, "--- %s ---\n", c.Name)
		b.Write(c.Data)
	}
	return b.Bytes()
}

// TestPanelGolden pins every panel's stdout and CSVs byte for byte, as
// figures prints them by default. Regenerate one panel with
//
//	go test ./internal/figures -run TestPanelGolden/<key> -update
func TestPanelGolden(t *testing.T) {
	for _, p := range Panels() {
		t.Run(p.Key, func(t *testing.T) {
			t.Parallel()
			_, out := serialRun(t, p.Key)
			got := golden(out)
			path := filepath.Join("testdata", p.Key+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s drifted from its golden\n--- got ---\n%s\n--- want ---\n%s", p.Key, got, want)
			}
		})
	}
}
