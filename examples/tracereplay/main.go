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
	"strings"
	"time"

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
	// --- Service side: run and record ---------------------------------
	dir, err := os.MkdirTemp("", "tracereplay")
	must(err)
	defer os.RemoveAll(dir)
	svc, err := service.New(service.Config{TraceDir: dir})
	must(err)
	ts := httptest.NewServer(svc.Handler())
	defer func() { ts.Close(); svc.Close() }()

	job := submit(ts.URL, `{"sut": "btree", "record": true, "spec": `+spec+`}`)
	waitDone(ts.URL, job)
	golden := get(ts.URL + "/v1/jobs/" + job + "/result")
	traceData := get(ts.URL + "/v1/jobs/" + job + "/trace")
	fmt.Printf("service recorded job %s: %d bytes of trace, %d bytes of result JSON\n",
		job, len(traceData), len(golden))

	// --- Client side: replay locally ----------------------------------
	tr, err := workload.ReadTrace(bytes.NewReader(traceData))
	must(err)
	// Same initial database as the service's run: the spec's uniform
	// generator with the seed the config layer derives (seed+1).
	sc := core.Scenario{
		Name:        "flywheel",
		Seed:        11,
		InitialData: distgen.NewUniform(11+1, 0, distgen.KeyDomain),
		InitialSize: 20_000,
		TrainBefore: true,
		IntervalNs:  1_000_000,
	}.Replay(tr)
	res, err := core.NewRunner().Run(sc, core.NewBTreeSUT())
	must(err)
	local, err := report.MarshalResult(res)
	must(err)
	if bytes.Equal(bytes.TrimSpace(local), bytes.TrimSpace(golden)) {
		fmt.Println("local replay reproduced the service's result JSON byte-for-byte")
	} else {
		fmt.Println("WARNING: local replay diverged from the service result")
	}

	// --- Flywheel: fit and sweep temporal locality --------------------
	st := workload.FitTrace(tr, workload.FitOptions{})
	fmt.Printf("\nfitted: %d ops in %d segments, mean gap %.0fns\n",
		st.Ops, len(st.Segments), st.GapMeanNs)
	fmt.Println("\nrepeat-frac sweep (synthesized load, same fitted statistics):")
	fmt.Println("  frac   btree ops/s    rmi ops/s")
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
			must(err)
			row += fmt.Sprintf("  %12.0f", r.Throughput())
		}
		fmt.Println(row)
	}
}

func submit(base, body string) string {
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	must(err)
	defer resp.Body.Close()
	var v struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	must(json.NewDecoder(resp.Body).Decode(&v))
	if v.Error != "" {
		must(fmt.Errorf("submit: %s", v.Error))
	}
	return v.ID
}

func waitDone(base, id string) {
	for i := 0; i < 600; i++ {
		var v struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		must(json.Unmarshal(get(base+"/v1/jobs/"+id), &v))
		switch v.State {
		case "done":
			return
		case "failed", "canceled", "timeout":
			must(fmt.Errorf("job %s: %s (%s)", id, v.State, v.Error))
		}
		time.Sleep(50 * time.Millisecond)
	}
	must(fmt.Errorf("job %s never finished", id))
}

func get(url string) []byte {
	resp, err := http.Get(url)
	must(err)
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	must(err)
	return data
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracereplay:", err)
		os.Exit(1)
	}
}
