// Package service runs the benchmark as a service — the deployment model
// the paper proposes in §V-B: systems are submitted to a daemon that owns
// the workloads (including sealed hold-outs a SUT may execute exactly
// once), runs them under the deterministic virtual-clock runner, and
// keeps every result in a persistent store behind a leaderboard.
//
// The HTTP surface (stdlib only):
//
//	POST   /v1/jobs             submit a run (named scenario, hold-out, or inline spec)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        poll job status
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/result full core.Result as deterministic JSON
//	GET    /v1/jobs/{id}/trace  recorded binary trace (jobs submitted with "record": true)
//	GET    /v1/results          stored results (survive restarts)
//	GET    /v1/leaderboard      rank SUTs on a scenario (?scenario=&metric=)
//	GET    /v1/scenarios        catalog scenario names
//	GET    /v1/holdouts         sealed hold-out names (contents never leave)
//	GET    /v1/suts             available systems under test
//	GET    /healthz             liveness
//	GET    /metrics             queue depth, jobs by state, run latency
//
// Runs execute on a bounded worker pool (internal/par); a full queue is
// surfaced as 429 so clients back off instead of piling up. Identical
// submissions (same scenario, same seed) produce byte-identical result
// JSON — the determinism contract of the virtual-clock runner carried
// through the wire format.
package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pager"
	"repro/internal/par"
	"repro/internal/report"
)

// Config wires a Service.
type Config struct {
	// SUTs maps SUT names to factories. Nil means DefaultSUTs().
	SUTs map[string]func() core.SUT
	// Scenarios is the named catalog. Factories must return a fresh
	// scenario per call (generators are stateful). Nil means
	// BuiltinScenarios().
	Scenarios map[string]func() (core.Scenario, error)
	// Holdouts is the sealed hold-out registry. Nil means an empty one.
	Holdouts *core.HoldoutRegistry
	// Runner executes the jobs. Nil means core.NewRunner().
	Runner *core.Runner
	// Workers is the number of concurrent runs (default 2).
	Workers int
	// QueueDepth bounds pending jobs; a full queue returns 429
	// (default 16).
	QueueDepth int
	// JobTimeout bounds each run's wall time; 0 means no timeout.
	// Individual jobs may override via timeoutMs.
	JobTimeout time.Duration
	// StorePath is the JSON-lines result store ("" = in-memory only).
	StorePath string
	// TraceDir, when set, enables trace-recording jobs: a submission
	// with "record": true has its materialized scenario written there
	// before it runs and serves that binary trace from
	// GET /v1/jobs/{id}/trace. "" disables recording.
	TraceDir string
	// LogWriter receives structured request logs (nil = disabled).
	LogWriter io.Writer
	// Fault, when set, is the chaos-drill hook: workers picking up a job
	// inside one of its WorkerStall windows sleep the window out before
	// running (the queue backs up, clients see 429 + Retry-After, and the
	// service's recovery is measurable from /metrics).
	Fault *fault.Injector
}

// Service is the benchmark-as-a-service daemon state.
type Service struct {
	cfg    Config
	runner *core.Runner
	pool   *par.Pool
	store  *Store
	obs    *observer

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order for listings
	nextID int
}

// New builds a Service from cfg. Call Close to drain and release it.
func New(cfg Config) (*Service, error) {
	if cfg.SUTs == nil {
		cfg.SUTs = DefaultSUTs()
	}
	if cfg.Scenarios == nil {
		cfg.Scenarios = BuiltinScenarios()
	}
	if cfg.Holdouts == nil {
		cfg.Holdouts = core.NewHoldoutRegistry()
	}
	if cfg.Runner == nil {
		cfg.Runner = core.NewRunner()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	store, err := OpenStore(cfg.StorePath)
	if err != nil {
		return nil, err
	}
	return &Service{
		cfg:    cfg,
		runner: cfg.Runner,
		pool:   par.NewPool(cfg.Workers, cfg.QueueDepth),
		store:  store,
		obs:    newObserver(),
		jobs:   make(map[string]*Job),
	}, nil
}

// Close drains the queue (waiting for running jobs) and closes the store.
func (s *Service) Close() error {
	s.pool.Close()
	return s.store.Close()
}

// Store exposes the result store (read-only use expected).
func (s *Service) Store() *Store { return s.store }

// Handler returns the service's HTTP handler with request logging.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/results", s.handleResults)
	mux.HandleFunc("GET /v1/leaderboard", s.handleLeaderboard)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/holdouts", s.handleHoldouts)
	mux.HandleFunc("GET /v1/suts", s.handleSUTs)
	return withLogging(s.cfg.LogWriter, mux)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	byState := make(map[JobState]int)
	s.mu.Lock()
	for _, j := range s.jobs {
		byState[j.State]++
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.obs.writeMetrics(w, s.pool.Depth(), byState, s.store.Len())
}

// handleSubmit validates the request, resolves what to run, and enqueues
// the job. A full queue answers 429 — the service's backpressure signal.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job request: %v", err)
		return
	}
	job, err := s.newJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	s.nextID++
	job.ID = "j" + strconv.Itoa(s.nextID)
	job.State = JobQueued
	job.cancel = make(chan struct{})
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()

	// Clients resubmitting after a 429 mark the attempt so the
	// rejected-vs-retried balance is observable in /metrics.
	if r.Header.Get("X-Retry-Attempt") != "" {
		s.obs.observeRetried()
	}

	if !s.pool.TrySubmit(func() { s.execute(job) }) {
		s.mu.Lock()
		job.State = JobFailed
		job.Err = "queue full"
		s.mu.Unlock()
		s.obs.observeRejected()
		// Retry-After derived from observed run latency: one mean run
		// frees one worker slot (floor 1s, the header's granularity).
		w.Header().Set("Retry-After", strconv.Itoa(s.obs.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "job queue full, retry later")
		return
	}
	s.mu.Lock()
	view := job.view()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, view)
}

// newJob validates a request into a Job (not yet registered or queued).
func (s *Service) newJob(req JobRequest) (*Job, error) {
	if req.SUT == "" {
		return nil, fmt.Errorf("service: job needs a sut (see /v1/suts)")
	}
	if _, ok := s.cfg.SUTs[req.SUT]; !ok {
		return nil, fmt.Errorf("service: %w", core.UnknownSUT(req.SUT, s.sutNames()))
	}
	selectors := 0
	for _, set := range []bool{req.Scenario != "", req.Holdout != "", len(req.Spec) > 0} {
		if set {
			selectors++
		}
	}
	if selectors != 1 {
		return nil, fmt.Errorf("service: job needs exactly one of scenario, holdout, or spec")
	}
	if req.Seed != nil && len(req.Spec) == 0 {
		return nil, fmt.Errorf("service: seed override is only valid with an inline spec")
	}
	if req.TimeoutMs < 0 {
		return nil, fmt.Errorf("service: negative timeoutMs")
	}
	if req.Record {
		if s.cfg.TraceDir == "" {
			return nil, fmt.Errorf("service: recording disabled (no trace directory configured)")
		}
		if req.Holdout != "" {
			return nil, fmt.Errorf("service: hold-out workloads are sealed and cannot be recorded")
		}
	}

	job := &Job{Req: req}
	switch {
	case req.Scenario != "":
		if _, ok := s.cfg.Scenarios[req.Scenario]; !ok {
			return nil, fmt.Errorf("service: unknown scenario %q (see /v1/scenarios)", req.Scenario)
		}
		job.Scenario = req.Scenario
	case req.Holdout != "":
		found := false
		for _, n := range s.cfg.Holdouts.Names() {
			if n == req.Holdout {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("service: unknown hold-out %q (see /v1/holdouts)", req.Holdout)
		}
		job.Scenario = req.Holdout
	default:
		var doc config.Scenario
		if err := json.Unmarshal(req.Spec, &doc); err != nil {
			return nil, fmt.Errorf("service: invalid spec: %w", err)
		}
		if req.Seed != nil {
			doc.Seed = *req.Seed
		}
		sc, err := doc.Build()
		if err != nil {
			return nil, fmt.Errorf("service: invalid spec: %w", err)
		}
		if sc.Name == "" {
			return nil, fmt.Errorf("service: spec needs a name (it keys the leaderboard)")
		}
		job.spec = &sc
		job.Scenario = sc.Name
		job.Seed = sc.Seed
	}
	return job, nil
}

// execute is the queue worker body: run the job under its deadline,
// encode the result deterministically, and persist it.
func (s *Service) execute(job *Job) {
	s.mu.Lock()
	if job.State != JobQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	job.State = JobRunning
	timeout := s.cfg.JobTimeout
	if job.Req.TimeoutMs > 0 {
		timeout = time.Duration(job.Req.TimeoutMs) * time.Millisecond
	}
	s.mu.Unlock()

	// Chaos drill: a worker inside a stall window sleeps it out before
	// running, so the queue visibly backs up and drains.
	if s.cfg.Fault != nil {
		if d := s.cfg.Fault.StallFor(); d > 0 {
			time.Sleep(d)
		}
	}

	type outcome struct {
		res *core.Result
		err error
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		// A panicking SUT or run fails its job, not the worker.
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: fmt.Errorf("service: run panicked: %v", p)}
			}
		}()
		res, err := s.run(job)
		ch <- outcome{res, err}
	}()

	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}

	select {
	case out := <-ch:
		s.finish(job, out.res, out.err, time.Since(start))
	case <-deadline:
		// The run goroutine is abandoned; it discards its result when
		// it eventually finishes (the job is no longer running).
		s.mu.Lock()
		job.State = JobTimeout
		job.Err = fmt.Sprintf("exceeded %v deadline", timeout)
		s.mu.Unlock()
	case <-job.cancel:
		s.mu.Lock()
		job.State = JobCanceled
		job.Err = "canceled"
		s.mu.Unlock()
	}
}

// run resolves the job's scenario and executes it.
func (s *Service) run(job *Job) (*core.Result, error) {
	sutFactory := s.cfg.SUTs[job.Req.SUT]
	if job.Req.Holdout != "" {
		// RunOnce consumes the (hold-out, SUT) attempt — spent even if
		// the run later times out, exactly like a sealed submission.
		// (Hold-outs are never recorded; newJob refuses the combination.)
		return s.cfg.Holdouts.RunOnce(s.runner, job.Req.Holdout, sutFactory)
	}
	var sc core.Scenario
	if job.spec != nil {
		sc = *job.spec
	} else {
		built, err := s.cfg.Scenarios[job.Req.Scenario]()
		if err != nil {
			return nil, fmt.Errorf("service: building scenario %q: %w", job.Req.Scenario, err)
		}
		sc = built
	}
	if !job.Req.Record {
		return s.runner.Run(sc, sutFactory())
	}

	// Recording run: the job's trace is its materialized scenario, written
	// before the SUT runs — nothing is teed off the shared runner.
	sc = sc.Materialize()
	path := filepath.Join(s.cfg.TraceDir, job.ID+".lstrace")
	tr, err := sc.Trace()
	if err == nil {
		err = tr.WriteFile(path)
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	job.tracePath = path
	s.mu.Unlock()
	return s.runner.Run(sc, sutFactory())
}

// finish records a completed run: encodes the deterministic result JSON,
// appends to the store, and flips the job state — unless the job was
// canceled or timed out while the run was in flight.
func (s *Service) finish(job *Job, res *core.Result, err error, wall time.Duration) {
	s.obs.observeRun(wall.Nanoseconds())
	if err != nil {
		s.mu.Lock()
		if job.State == JobRunning {
			job.State = JobFailed
			job.Err = err.Error()
		}
		s.mu.Unlock()
		return
	}
	data, mErr := report.MarshalResult(res)
	if mErr != nil {
		s.mu.Lock()
		if job.State == JobRunning {
			job.State = JobFailed
			job.Err = mErr.Error()
		}
		s.mu.Unlock()
		return
	}

	s.mu.Lock()
	if job.State != JobRunning {
		s.mu.Unlock()
		return
	}
	job.State = JobDone
	job.ResultJSON = data
	entry := Entry{
		JobID:    job.ID,
		Scenario: job.Scenario,
		SUT:      res.SUT,
		Seed:     job.Seed,
		Result:   report.NewResultView(res),
	}
	s.mu.Unlock()

	if sErr := s.store.Append(entry); sErr != nil {
		s.mu.Lock()
		job.Err = "result not persisted: " + sErr.Error()
		s.mu.Unlock()
	}
}

func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Service) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var view JobView
	if ok {
		view = job.view()
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	switch {
	case job.State == JobQueued:
		job.State = JobCanceled
		job.Err = "canceled before start"
	case job.State == JobRunning && !job.canceled:
		job.canceled = true
		close(job.cancel) // execute's select flips the state
	case job.State.Terminal():
		view := job.view()
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, view)
		return
	}
	view := job.view()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleJobResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var state JobState
	var data []byte
	if ok {
		state = job.State
		data = job.ResultJSON
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if state != JobDone {
		writeError(w, http.StatusConflict, "job %s is %s, no result", r.PathValue("id"), state)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleJobTrace serves a recorded job's binary trace. The trace is only
// available once the job is done (the writer is closed when the run
// finishes, so a served file is always complete and crc-framed).
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	job, ok := s.jobs[r.PathValue("id")]
	var state JobState
	var path string
	var recorded bool
	if ok {
		state = job.State
		path = job.tracePath
		recorded = job.Req.Record
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !recorded {
		writeError(w, http.StatusConflict, "job %s did not record a trace", r.PathValue("id"))
		return
	}
	if state != JobDone || path == "" {
		writeError(w, http.StatusConflict, "job %s is %s, no trace", r.PathValue("id"), state)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, path)
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	scenario := r.URL.Query().Get("scenario")
	sut := r.URL.Query().Get("sut")
	var out []Entry
	for _, e := range s.store.Entries() {
		if scenario != "" && e.Scenario != scenario {
			continue
		}
		if sut != "" && e.SUT != sut {
			continue
		}
		out = append(out, e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": out})
}

func (s *Service) handleLeaderboard(w http.ResponseWriter, r *http.Request) {
	scenario := r.URL.Query().Get("scenario")
	if scenario == "" {
		writeError(w, http.StatusBadRequest, "leaderboard needs ?scenario=")
		return
	}
	rows, err := Leaderboard(s.store.Entries(), scenario, r.URL.Query().Get("metric"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenario": scenario, "rows": rows})
}

func (s *Service) handleScenarios(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(s.cfg.Scenarios))
	for n := range s.cfg.Scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": names})
}

func (s *Service) handleHoldouts(w http.ResponseWriter, r *http.Request) {
	names := s.cfg.Holdouts.Names()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"holdouts": names})
}

func (s *Service) handleSUTs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"suts": s.sutNames()})
}

// sutNames lists the SUTs this service offers: the core catalog's names
// in catalog order, then any the configuration added.
func (s *Service) sutNames() []string {
	names := make([]string, 0, len(s.cfg.SUTs))
	for _, n := range core.SUTNames() {
		if _, ok := s.cfg.SUTs[n]; ok {
			names = append(names, n)
		}
	}
	catalog := len(names)
	for n := range s.cfg.SUTs {
		if !slices.Contains(names[:catalog], n) {
			names = append(names, n)
		}
	}
	sort.Strings(names[catalog:])
	return names
}

// DefaultSUTs is the core SUT catalog as a map, with the disk-backed SUTs
// over the stock buffer pool.
func DefaultSUTs() map[string]func() core.SUT {
	suts := map[string]func() core.SUT{}
	for _, n := range core.SUTNames() {
		suts[n], _ = core.SUTByName(n, pager.DefaultPoolKnobs())
	}
	return suts
}

// builtinScenarioDocs are the catalog scenarios shipped with the service,
// as config documents so every build yields fresh (stateful) generators.
var builtinScenarioDocs = map[string]config.Scenario{
	"smoke": {
		Name:        "smoke",
		Seed:        1,
		InitialData: config.GenSpec{Kind: "uniform"},
		InitialSize: 20_000,
		TrainBefore: true,
		IntervalNs:  1_000_000,
		Phases: []config.Phase{{
			Name: "steady",
			Ops:  30_000,
			Mix:  config.MixSpec{Get: 0.95, Put: 0.05},
			Access: config.DriftSpec{Kind: "static",
				Gen: &config.GenSpec{Kind: "zipf", Theta: 1.1, Universe: 1 << 20}},
		}},
	},
	"drift-shift": {
		Name:        "drift-shift",
		Seed:        7,
		InitialData: config.GenSpec{Kind: "zipf", Theta: 1.1, Universe: 1 << 21},
		InitialSize: 50_000,
		TrainBefore: true,
		IntervalNs:  1_000_000,
		Phases: []config.Phase{
			{
				Name: "steady",
				Ops:  40_000,
				Mix:  config.MixSpec{Get: 0.9, Put: 0.1},
				Access: config.DriftSpec{Kind: "static",
					Gen: &config.GenSpec{Kind: "zipf", Theta: 1.1, Universe: 1 << 21}},
			},
			{
				Name:          "shift",
				Ops:           40_000,
				RetrainBefore: true,
				Mix:           config.MixSpec{Get: 0.5, Put: 0.5},
				Access: config.DriftSpec{Kind: "static",
					Gen: &config.GenSpec{Kind: "clustered", Clusters: 25}},
				InsertKeys: &config.DriftSpec{Kind: "static",
					Gen: &config.GenSpec{Kind: "clustered", Clusters: 25}},
			},
		},
	},
}

// BuiltinScenarios returns the shipped scenario catalog.
func BuiltinScenarios() map[string]func() (core.Scenario, error) {
	out := make(map[string]func() (core.Scenario, error), len(builtinScenarioDocs))
	for name, doc := range builtinScenarioDocs {
		doc := doc
		out[name] = func() (core.Scenario, error) { return doc.Build() }
	}
	return out
}
