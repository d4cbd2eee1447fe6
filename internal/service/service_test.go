package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// detSpec is a small deterministic inline scenario for e2e tests.
const detSpec = `{
  "name": "det",
  "seed": 3,
  "initialData": {"kind": "uniform"},
  "initialSize": 2000,
  "trainBefore": true,
  "intervalNs": 1000000,
  "phases": [{
    "name": "p",
    "ops": 5000,
    "mix": {"get": 0.9, "put": 0.1},
    "access": {"kind": "static", "gen": {"kind": "zipf", "theta": 1.1, "universe": 1048576}}
  }]
}`

// blockSUT blocks in Load until released — a controllable long run.
type blockSUT struct{ release chan struct{} }

func (b *blockSUT) Name() string                    { return "block" }
func (b *blockSUT) Load(keys, values []uint64)      { <-b.release }
func (b *blockSUT) Do(op workload.Op) core.OpResult { return core.OpResult{Found: true, Work: 1} }

// panicSUT panics on its first op.
type panicSUT struct{}

func (panicSUT) Name() string                    { return "panic" }
func (panicSUT) Load(keys, values []uint64)      {}
func (panicSUT) Do(op workload.Op) core.OpResult { panic("panicSUT: boom") }

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func submit(t *testing.T, ts *httptest.Server, body string) JobView {
	t.Helper()
	code, data := postJSON(t, ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, data)
	}
	var v JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("submit response: %v: %s", err, data)
	}
	return v
}

func waitState(t *testing.T, ts *httptest.Server, id string, want JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, data := get(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status poll: %d: %s", code, data)
		}
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached terminal state %s (err %q), want %s", id, v.State, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

// TestSubmitPollResultDeterministic is the acceptance path: two identical
// submissions, polled to completion, must return byte-identical result
// JSON.
func TestSubmitPollResultDeterministic(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"sut":"rmi","seed":3,"spec":%s}`, detSpec)

	j1 := submit(t, ts, body)
	j2 := submit(t, ts, body)
	if j1.Scenario != "det" || j1.Seed != 3 {
		t.Fatalf("resolved job wrong: %+v", j1)
	}
	waitState(t, ts, j1.ID, JobDone)
	waitState(t, ts, j2.ID, JobDone)

	code, r1 := get(t, ts.URL+"/v1/jobs/"+j1.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, r1)
	}
	_, r2 := get(t, ts.URL+"/v1/jobs/"+j2.ID+"/result")
	if !bytes.Equal(r1, r2) {
		t.Fatal("identical submissions returned different result JSON")
	}
	var view struct {
		Scenario  string `json:"scenario"`
		Completed int64  `json:"completed"`
	}
	if err := json.Unmarshal(r1, &view); err != nil {
		t.Fatal(err)
	}
	if view.Scenario != "det" || view.Completed != 5000 {
		t.Fatalf("result content wrong: %+v", view)
	}
}

func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // before cleanups: the pool drain needs the SUT unblocked
	suts := DefaultSUTs()
	suts["block"] = func() core.SUT { return &blockSUT{release: release} }
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 1, SUTs: suts})

	blocked := fmt.Sprintf(`{"sut":"block","spec":%s}`, detSpec)
	j1 := submit(t, ts, blocked)
	waitState(t, ts, j1.ID, JobRunning) // worker occupied, queue empty
	submit(t, ts, blocked)              // fills the queue

	code, data := postJSON(t, ts.URL+"/v1/jobs", blocked)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overfull queue: status %d (%s), want 429", code, data)
	}
}

func TestJobTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // before cleanups: the pool drain needs the SUT unblocked
	suts := DefaultSUTs()
	suts["block"] = func() core.SUT { return &blockSUT{release: release} }
	_, ts := newTestService(t, Config{Workers: 1, SUTs: suts})

	j := submit(t, ts, fmt.Sprintf(`{"sut":"block","timeoutMs":30,"spec":%s}`, detSpec))
	v := waitState(t, ts, j.ID, JobTimeout)
	if !strings.Contains(v.Error, "deadline") {
		t.Fatalf("timeout error = %q", v.Error)
	}
	// No result, and the worker slot is free again for a real run.
	code, _ := get(t, ts.URL+"/v1/jobs/"+j.ID+"/result")
	if code != http.StatusConflict {
		t.Fatalf("result of timed-out job: %d, want 409", code)
	}
	j2 := submit(t, ts, fmt.Sprintf(`{"sut":"btree","spec":%s}`, detSpec))
	waitState(t, ts, j2.ID, JobDone)
}

// TestPanickingSUTFailsItsJob: a SUT that panics fails its job with the
// panic text, and the one worker goes on to serve the next job.
func TestPanickingSUTFailsItsJob(t *testing.T) {
	suts := DefaultSUTs()
	suts["panic"] = func() core.SUT { return panicSUT{} }
	_, ts := newTestService(t, Config{Workers: 1, SUTs: suts})

	j := submit(t, ts, fmt.Sprintf(`{"sut":"panic","spec":%s}`, detSpec))
	if v := waitState(t, ts, j.ID, JobFailed); !strings.Contains(v.Error, "panicSUT: boom") {
		t.Fatalf("panicked job error = %q, want the panic text", v.Error)
	}
	next := submit(t, ts, fmt.Sprintf(`{"sut":"btree","spec":%s}`, detSpec))
	waitState(t, ts, next.ID, JobDone)
}

func TestJobCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // before cleanups: the pool drain needs the SUT unblocked
	suts := DefaultSUTs()
	suts["block"] = func() core.SUT { return &blockSUT{release: release} }
	_, ts := newTestService(t, Config{Workers: 1, SUTs: suts})

	running := submit(t, ts, fmt.Sprintf(`{"sut":"block","spec":%s}`, detSpec))
	waitState(t, ts, running.ID, JobRunning)
	queued := submit(t, ts, fmt.Sprintf(`{"sut":"btree","spec":%s}`, detSpec))

	// Cancel the queued job first: it must never run.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: %d", resp.StatusCode)
	}
	waitState(t, ts, queued.ID, JobCanceled)

	// Cancel the running job.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, running.ID, JobCanceled)

	// Canceling a terminal job is a conflict.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of terminal job: %d, want 409", resp.StatusCode)
	}
}

func TestHoldoutSingleAttempt(t *testing.T) {
	reg := core.NewHoldoutRegistry()
	if err := reg.Register("sealed", func() core.Scenario {
		sc, err := builtinScenarioDocs["smoke"].Build()
		if err != nil {
			panic(err)
		}
		sc.Name = "sealed"
		return sc
	}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Config{Workers: 1, Holdouts: reg})

	code, data := get(t, ts.URL+"/v1/holdouts")
	if code != http.StatusOK || !strings.Contains(string(data), "sealed") {
		t.Fatalf("holdout listing: %d %s", code, data)
	}

	j1 := submit(t, ts, `{"sut":"rmi","holdout":"sealed"}`)
	waitState(t, ts, j1.ID, JobDone)

	j2 := submit(t, ts, `{"sut":"rmi","holdout":"sealed"}`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, data := get(t, ts.URL+"/v1/jobs/"+j2.ID)
		if code != http.StatusOK {
			t.Fatalf("poll: %d", code)
		}
		var v JobView
		json.Unmarshal(data, &v)
		if v.State == JobFailed {
			if !strings.Contains(v.Error, "already consumed") {
				t.Fatalf("second attempt error = %q", v.Error)
			}
			break
		}
		if v.State.Terminal() {
			t.Fatalf("second attempt ended %s, want failed", v.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("second attempt never resolved")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A different SUT still gets its attempt.
	j3 := submit(t, ts, `{"sut":"btree","holdout":"sealed"}`)
	waitState(t, ts, j3.ID, JobDone)
}

func TestLeaderboardAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	for _, sut := range []string{"btree", "rmi"} {
		j := submit(t, ts, fmt.Sprintf(`{"sut":%q,"spec":%s}`, sut, detSpec))
		waitState(t, ts, j.ID, JobDone)
	}

	code, data := get(t, ts.URL+"/v1/leaderboard?scenario=det")
	if code != http.StatusOK {
		t.Fatalf("leaderboard: %d: %s", code, data)
	}
	var lb struct {
		Scenario string `json:"scenario"`
		Rows     []Row  `json:"rows"`
	}
	if err := json.Unmarshal(data, &lb); err != nil {
		t.Fatal(err)
	}
	if len(lb.Rows) != 2 {
		t.Fatalf("leaderboard rows = %d, want 2", len(lb.Rows))
	}
	if lb.Rows[0].Throughput < lb.Rows[1].Throughput {
		t.Fatalf("leaderboard not sorted by throughput: %+v", lb.Rows)
	}

	if code, _ := get(t, ts.URL+"/v1/leaderboard"); code != http.StatusBadRequest {
		t.Fatalf("leaderboard without scenario: %d, want 400", code)
	}

	code, data = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	page := string(data)
	for _, want := range []string{
		`lsbench_jobs{state="done"} 2`,
		"lsbench_queue_depth 0",
		"lsbench_runs_total 2",
		"lsbench_results_stored 2",
		"lsbench_run_latency_ns_count 2",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics page missing %q:\n%s", want, page)
		}
	}

	code, data = get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(data), "ok") {
		t.Fatalf("healthz: %d %s", code, data)
	}
}

// TestStoreSurvivesRestart is the acceptance criterion: a new service on
// the same store path sees the previous runs in /v1/results and the
// leaderboard.
func TestStoreSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")

	svc1, err := New(Config{Workers: 1, StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1.Handler())
	j := submit(t, ts1, fmt.Sprintf(`{"sut":"rmi","spec":%s}`, detSpec))
	waitState(t, ts1, j.ID, JobDone)
	ts1.Close()
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestService(t, Config{Workers: 1, StorePath: path})
	code, data := get(t, ts2.URL+"/v1/results?scenario=det")
	if code != http.StatusOK {
		t.Fatalf("results after restart: %d", code)
	}
	var res struct {
		Results []Entry `json:"results"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || res.Results[0].SUT != "rmi" {
		t.Fatalf("restart lost results: %+v", res.Results)
	}
	code, data = get(t, ts2.URL+"/v1/leaderboard?scenario=det")
	if code != http.StatusOK || !strings.Contains(string(data), `"rmi"`) {
		t.Fatalf("leaderboard after restart: %d %s", code, data)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"no sut", fmt.Sprintf(`{"spec":%s}`, detSpec)},
		{"unknown sut", fmt.Sprintf(`{"sut":"nope","spec":%s}`, detSpec)},
		{"no selector", `{"sut":"rmi"}`},
		{"two selectors", fmt.Sprintf(`{"sut":"rmi","scenario":"smoke","spec":%s}`, detSpec)},
		{"unknown scenario", `{"sut":"rmi","scenario":"nope"}`},
		{"unknown holdout", `{"sut":"rmi","holdout":"nope"}`},
		{"seed without spec", `{"sut":"rmi","scenario":"smoke","seed":1}`},
		{"bad spec", `{"sut":"rmi","spec":{"name":"x"}}`},
		{"unknown field", `{"sut":"rmi","scenrio":"smoke"}`},
		{"negative timeout", fmt.Sprintf(`{"sut":"rmi","timeoutMs":-1,"spec":%s}`, detSpec)},
		{"job id", fmt.Sprintf(`{"id":"c1","sut":"rmi","spec":%s}`, detSpec)},
		{"oversized spec", `{"sut":"btree","spec":{"name":"big","initialData":{"kind":"uniform"},` +
			`"phases":[{"ops":4611686018427387904,"access":{"gen":{"kind":"uniform"}}}]}}`},
	}
	for _, c := range cases {
		if code, data := postJSON(t, ts.URL+"/v1/jobs", c.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, code, data)
		}
	}
	for _, path := range []string{"/v1/jobs/nope", "/v1/store/ids", "/v1/store/entries"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, code)
		}
	}
}

// TestDiskTierIsServable runs a disk-lsm job — a SUT only cmd/lsbench
// could name before the service read the core catalog — and looks for the
// buffer-pool block in its result; it also pins /v1/suts and the
// unknown-SUT error to the catalog's own list.
func TestDiskTierIsServable(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	j := submit(t, ts, fmt.Sprintf(`{"sut":"disk-lsm","spec":%s}`, detSpec))
	waitState(t, ts, j.ID, JobDone)
	code, data := get(t, ts.URL+"/v1/jobs/"+j.ID+"/result")
	var res struct {
		SUT     string `json:"sut"`
		Storage *struct {
			PoolPages    int    `json:"poolPages"`
			PagesWritten uint64 `json:"pagesWritten"`
			Fsyncs       uint64 `json:"fsyncs"`
		} `json:"storage"`
	}
	if err := json.Unmarshal(data, &res); code != http.StatusOK || err != nil {
		t.Fatalf("result: %d %v %s", code, err, data)
	}
	if res.SUT != "disk-lsm" || res.Storage == nil || res.Storage.PoolPages == 0 || res.Storage.PagesWritten == 0 || res.Storage.Fsyncs == 0 {
		t.Fatalf("disk-lsm result has no storage block: %s", data)
	}

	names := strings.Join(core.SUTNames(), ",")
	code, data = get(t, ts.URL+"/v1/suts")
	var suts struct{ SUTs []string }
	if err := json.Unmarshal(data, &suts); code != http.StatusOK || err != nil || strings.Join(suts.SUTs, ",") != names {
		t.Fatalf("/v1/suts = %d %s, want %s", code, data, names)
	}
	code, data = postJSON(t, ts.URL+"/v1/jobs", `{"sut":"nope","scenario":"smoke"}`)
	if want := fmt.Sprintf(`unknown SUT \"nope\" (have: %s)`, names); code != http.StatusBadRequest || !strings.Contains(string(data), want) {
		t.Fatalf("unknown SUT: %d %s, want 400 with %s", code, data, want)
	}
}

func TestNamedScenarioAndCatalogEndpoints(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	code, data := get(t, ts.URL+"/v1/scenarios")
	if code != http.StatusOK || !strings.Contains(string(data), "smoke") {
		t.Fatalf("scenarios: %d %s", code, data)
	}
	code, data = get(t, ts.URL+"/v1/suts")
	if code != http.StatusOK || !strings.Contains(string(data), "kvstore") {
		t.Fatalf("suts: %d %s", code, data)
	}
	j := submit(t, ts, `{"sut":"hash","scenario":"smoke"}`)
	waitState(t, ts, j.ID, JobDone)
	code, data = get(t, ts.URL+"/v1/jobs/"+j.ID+"/result")
	if code != http.StatusOK || !strings.Contains(string(data), `"smoke"`) {
		t.Fatalf("named scenario result: %d %s", code, data)
	}
	// Jobs listing shows both states and order.
	code, data = get(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || !strings.Contains(string(data), j.ID) {
		t.Fatalf("jobs listing: %d %s", code, data)
	}
}

func TestRequestLogging(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestService(t, Config{Workers: 1, LogWriter: &buf})
	get(t, ts.URL+"/healthz")
	line := strings.TrimSpace(buf.String())
	var entry struct {
		Method string `json:"method"`
		Path   string `json:"path"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &entry); err != nil {
		t.Fatalf("log line not JSON: %q", line)
	}
	if entry.Method != "GET" || entry.Path != "/healthz" || entry.Status != 200 {
		t.Fatalf("log entry wrong: %+v", entry)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for concurrent log writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
