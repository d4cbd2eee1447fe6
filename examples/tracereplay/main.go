// Tracereplay: the record → replay → synthesize flywheel over the
// benchmark service. A recording job runs on the service, the client
// pulls the binary trace over HTTP, replays it locally (byte-identical
// result JSON — the portability contract), then fits the trace and
// sweeps the Redbench-style repeat-frac knob to study how temporal
// locality changes each SUT's behaviour under otherwise identical
// statistics.
//
//	go run ./examples/tracereplay
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/distgen"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/workload"
)

const spec = `{
  "name": "flywheel",
  "seed": 11,
  "initialData": {"kind": "uniform"},
  "initialSize": 20000,
  "trainBefore": true,
  "intervalNs": 1000000,
  "phases": [{
    "name": "prod",
    "ops": 40000,
    "mix": {"get": 0.8, "put": 0.15, "scan": 0.05, "scanLimit": 32},
    "access": {"kind": "static", "gen": {"kind": "zipf", "theta": 1.2, "universe": 1048576}},
    "arrival": {"kind": "poisson", "rate": 400000}
  }]
}`

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracereplay:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// --- Service side: run and record ---------------------------------
	// The service keeps a recording job's trace in traces/ beside its
	// result store.
	dir, err := os.MkdirTemp("", "tracereplay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	svc, err := service.New(service.Config{StorePath: filepath.Join(dir, "results.jsonl")})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(svc.Handler())
	defer func() { ts.Close(); svc.Close() }()

	job, err := submit(ts.URL, `{"sut": "btree", "record": true, "spec": `+spec+`}`)
	if err != nil {
		return err
	}
	if err := waitDone(ts.URL, job); err != nil {
		return err
	}
	golden, err := get(ts.URL + "/v1/jobs/" + job + "/result")
	if err != nil {
		return err
	}
	traceData, err := get(ts.URL + "/v1/jobs/" + job + "/trace")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "service recorded job %s: %d bytes of trace, %d bytes of result JSON\n",
		job, len(traceData), len(golden))

	// --- Client side: replay locally ----------------------------------
	tr, err := workload.ReadTrace(bytes.NewReader(traceData))
	if err != nil {
		return err
	}
	// The job's own config document, each phase fed from its recorded
	// stream: the same initial database, training and retrain windows as
	// the service's run. The database is drawn once and pinned, so that
	// every run below, sweep cells included, loads the same keys.
	sc, err := config.Parse([]byte(spec))
	if err != nil {
		return err
	}
	sc.InitialKeys = distgen.UniqueKeys(sc.InitialData, sc.InitialSize)
	for i := range sc.Phases {
		sc.Phases[i].Source = tr.PhaseReader(i)
	}
	res, err := core.NewRunner().Run(sc, core.NewBTreeSUT())
	if err != nil {
		return err
	}
	local, err := report.MarshalResult(res)
	if err != nil {
		return err
	}
	if bytes.Equal(bytes.TrimSpace(local), bytes.TrimSpace(golden)) {
		fmt.Fprintln(w, "local replay reproduced the service's result JSON byte-for-byte")
	} else {
		fmt.Fprintln(w, "WARNING: local replay diverged from the service result")
	}

	// --- Flywheel: fit and sweep temporal locality --------------------
	st := workload.FitTrace(tr, workload.FitOptions{})
	fmt.Fprintf(w, "\nfitted: %d ops in %d segments, mean gap %.0fns\n",
		st.Ops, len(st.Segments), st.GapMeanNs)
	fmt.Fprintln(w, "\nrepeat-frac sweep (synthesized load, same fitted statistics):")
	fmt.Fprintln(w, "  frac   btree ops/s    rmi ops/s")
	for _, frac := range []float64{0, 0.25, 0.5, 0.75} {
		row := fmt.Sprintf("  %.2f", frac)
		for _, mk := range []func() core.SUT{core.NewBTreeSUT, core.NewRMISUT} {
			ss := sc
			ss.Phases = []core.Phase{{
				Name:   "synth",
				Ops:    40_000,
				Source: workload.NewSynthesizer(st, 0, frac),
			}}
			r, err := core.NewRunner().Run(ss, mk())
			if err != nil {
				return err
			}
			row += fmt.Sprintf("  %12.0f", r.Throughput())
		}
		fmt.Fprintln(w, row)
	}
	return nil
}

func submit(base, body string) (string, error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var v struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", err
	}
	if v.Error != "" {
		return "", fmt.Errorf("submit: %s", v.Error)
	}
	return v.ID, nil
}

func waitDone(base, id string) error {
	for i := 0; i < 600; i++ {
		data, err := get(base + "/v1/jobs/" + id)
		if err != nil {
			return err
		}
		var v struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		switch v.State {
		case "done":
			return nil
		case "failed", "canceled", "timeout":
			return fmt.Errorf("job %s: %s (%s)", id, v.State, v.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("job %s never finished", id)
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
