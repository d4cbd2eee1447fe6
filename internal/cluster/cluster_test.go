package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/service"
	"repro/internal/workload"
)

// detSpec mirrors the service e2e scenario: small, deterministic, fast.
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

// fastConfig shrinks every coordinator period so failures are detected and
// repaired within test timescales.
func fastConfig(workers []string) Config {
	return Config{
		Workers:             workers,
		RequestTimeout:      2 * time.Second,
		MaxRetries:          2,
		RetryBase:           time.Millisecond,
		RetryMax:            10 * time.Millisecond,
		RetrySeed:           11,
		HealthInterval:      20 * time.Millisecond,
		HealthFailures:      2,
		PollInterval:        10 * time.Millisecond,
		AntiEntropyInterval: 50 * time.Millisecond,
		MaxDispatches:       3,
	}
}

// worker is one `lsbench serve worker` daemon under httptest.
type worker struct {
	svc *service.Service
	ts  *httptest.Server
}

func newWorker(t *testing.T, cfg service.Config) *worker {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return &worker{svc: svc, ts: ts}
}

func newCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

func submitJob(t *testing.T, co *Coordinator, sut string) JobView {
	t.Helper()
	var seed uint64 = 3
	view, _, err := co.Submit(service.JobRequest{
		SUT:  sut,
		Spec: json.RawMessage(detSpec),
		Seed: &seed,
	})
	if err != nil {
		t.Fatalf("submit %s: %v (view %+v)", sut, err, view)
	}
	return view
}

// waitDone polls until the job is done. Its limit is the test binary's own
// deadline less a margin for the failure report (2 min under -timeout 0), not
// a fixed wall time: a loaded race tier waits instead of failing.
func waitDone(t *testing.T, co *Coordinator, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	if d, ok := t.Deadline(); ok {
		deadline = d.Add(-15 * time.Second)
	}
	for time.Now().Before(deadline) {
		view, ok := co.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if view.State == service.JobDone {
			return view
		}
		if view.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q), want done", id, view.State, view.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// referenceRows runs the same jobs on one plain single-node service and
// returns its leaderboard — the ground truth a converged cluster must
// reproduce byte for byte.
func referenceRows(t *testing.T, suts []string) []byte {
	t.Helper()
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, sut := range suts {
		body := fmt.Sprintf(`{"sut":%q,"seed":3,"spec":%s}`, sut, detSpec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var view service.JobView
		json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("reference submit %s: %d", sut, resp.StatusCode)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			r2, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
			if err != nil {
				t.Fatal(err)
			}
			json.NewDecoder(r2.Body).Decode(&view)
			r2.Body.Close()
			if view.State == service.JobDone {
				break
			}
			if view.State.Terminal() || time.Now().After(deadline) {
				t.Fatalf("reference job %s: state %s err %q", view.ID, view.State, view.Error)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	rows, err := service.Leaderboard(svc.Store().Entries(), "det", "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterEndToEnd is the tentpole happy path: jobs sharded across a
// 3-worker cluster all finish, their results replicate to the
// coordinator, and the merged leaderboard is byte-identical to a
// single-node run of the same jobs.
func TestClusterEndToEnd(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		addrs = append(addrs, newWorker(t, service.Config{Workers: 2}).ts.URL)
	}
	co := newCoordinator(t, fastConfig(addrs))

	suts := []string{"btree", "rmi", "hash", "alex"}
	var ids []string
	for _, sut := range suts {
		ids = append(ids, submitJob(t, co, sut).ID)
	}
	for _, id := range ids {
		waitDone(t, co, id)
	}

	// Anti-entropy must converge the merged store to every job's entry.
	deadline := time.Now().Add(10 * time.Second)
	for co.Store().Len() < len(ids) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := co.Store().Len(); got != len(ids) {
		t.Fatalf("replicated %d entries, want %d", got, len(ids))
	}

	rows, err := co.Leaderboard("det", "")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rows)
	want := referenceRows(t, suts)
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster leaderboard diverged from single-node reference:\n got %s\nwant %s", got, want)
	}

	view := co.View()
	if len(view.Nodes) != 3 {
		t.Fatalf("cluster view has %d nodes: %+v", len(view.Nodes), view)
	}
	for _, n := range view.Nodes {
		if !n.Alive {
			t.Fatalf("node %s marked dead in a healthy cluster", n.Addr)
		}
	}
	if view.Replicated != len(ids) {
		t.Fatalf("view reports %d replicated, want %d", view.Replicated, len(ids))
	}
}

// TestClusterRejectsExternalID: cluster IDs are coordinator-assigned.
func TestClusterRejectsExternalID(t *testing.T) {
	w := newWorker(t, service.Config{Workers: 1})
	co := newCoordinator(t, fastConfig([]string{w.ts.URL}))
	_, status, err := co.Submit(service.JobRequest{ID: "mine", SUT: "btree", Scenario: "smoke"})
	if err == nil || status != http.StatusBadRequest {
		t.Fatalf("external ID accepted (status %d, err %v)", status, err)
	}
}

// TestClusterHTTPSurface drives the coordinator through its own HTTP
// handler: submit, poll, result proxy, cluster view.
func TestClusterHTTPSurface(t *testing.T) {
	w := newWorker(t, service.Config{Workers: 2})
	co := newCoordinator(t, fastConfig([]string{w.ts.URL}))
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	body := fmt.Sprintf(`{"sut":"btree","seed":3,"spec":%s}`, detSpec)
	resp, err := http.Post(cts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || view.ID != "c1" || view.Node == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, view)
	}
	waitDone(t, co, view.ID)

	r2, err := http.Get(cts.URL + "/v1/jobs/c1/result")
	if err != nil {
		t.Fatal(err)
	}
	var result struct {
		Scenario string `json:"scenario"`
	}
	json.NewDecoder(r2.Body).Decode(&result)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK || result.Scenario != "det" {
		t.Fatalf("result proxy: %d %+v", r2.StatusCode, result)
	}

	r3, err := http.Get(cts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cv ClusterView
	json.NewDecoder(r3.Body).Decode(&cv)
	r3.Body.Close()
	if len(cv.Nodes) != 1 || cv.Jobs != 1 {
		t.Fatalf("cluster view: %+v", cv)
	}
}

// TestClusterJoinLeave grows the fleet at runtime, then shrinks it, and
// checks the departed node's results survived in the merged store.
func TestClusterJoinLeave(t *testing.T) {
	w1 := newWorker(t, service.Config{Workers: 2})
	w2 := newWorker(t, service.Config{Workers: 2})
	co := newCoordinator(t, fastConfig([]string{w1.ts.URL}))
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	// Join via the HTTP surface.
	joinBody := fmt.Sprintf(`{"addr":%q}`, w2.ts.URL)
	resp, err := http.Post(cts.URL+"/v1/cluster/join", "application/json", strings.NewReader(joinBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d", resp.StatusCode)
	}
	if got := co.View().Nodes; len(got) != 2 {
		t.Fatalf("after join: %d nodes", len(got))
	}

	// Spread enough jobs that both nodes get some.
	var ids []string
	for i := 0; i < 6; i++ {
		sut := []string{"btree", "rmi", "hash"}[i%3]
		ids = append(ids, submitJob(t, co, sut).ID)
	}
	placed := make(map[string]bool)
	for _, id := range ids {
		placed[waitDone(t, co, id).Node] = true
	}
	if len(placed) != 2 {
		t.Skipf("all %d jobs hashed to one node; placement spread not exercised", len(ids))
	}

	// Leave: the departing node's entries must be pulled before it goes.
	leaveBody := fmt.Sprintf(`{"addr":%q}`, w2.ts.URL)
	resp, err = http.Post(cts.URL+"/v1/cluster/leave", "application/json", strings.NewReader(leaveBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: %d", resp.StatusCode)
	}
	if got := co.View().Nodes; len(got) != 1 {
		t.Fatalf("after leave: %d nodes", len(got))
	}
	if got := co.Store().Len(); got != len(ids) {
		t.Fatalf("after leave the merged store has %d entries, want %d", got, len(ids))
	}
	// The survivors still serve the merged leaderboard.
	if _, err := co.Leaderboard("det", ""); err != nil {
		t.Fatal(err)
	}
}

// blockFirstSUT gates the globally-first instantiation: the chaos job's
// original run blocks in Load (simulating a benchmark in progress) until
// the test releases it, while every later instance — including the
// re-dispatched run — executes normally. It delegates everything else, so
// a completed run's results are identical to a plain btree run.
type blockFirstSUT struct {
	inner core.SUT
	gate  chan struct{}
}

func (b *blockFirstSUT) Name() string { return b.inner.Name() }
func (b *blockFirstSUT) Load(keys, values []uint64) {
	<-b.gate
	b.inner.Load(keys, values)
}
func (b *blockFirstSUT) Do(op workload.Op) core.OpResult { return b.inner.Do(op) }

// TestClusterSurvivesWorkerCrashMidJob is the acceptance chaos drill: a
// seeded fault plan times a worker kill while that worker is mid-job. The
// coordinator must detect the death, re-route the job to a surviving node
// exactly once (idempotent dispatch — no double execution), and converge
// the merged leaderboard to byte-equality with a no-fault single-node run
// of the same jobs.
func TestClusterSurvivesWorkerCrashMidJob(t *testing.T) {
	// The drill's timing comes from a deterministic fault plan, same
	// grammar as the service's chaos drills: kill 25ms into the run.
	plan, err := fault.ParseSpec("crash@25ms", 11)
	if err != nil {
		t.Fatal(err)
	}
	killDelay := time.Duration(plan.Windows[0].StartNs)

	gate := make(chan struct{})
	var instances int32
	gatedSUTs := func() map[string]func() core.SUT {
		return map[string]func() core.SUT{
			"btree": func() core.SUT {
				if atomic.AddInt32(&instances, 1) == 1 {
					return &blockFirstSUT{inner: core.NewBTreeSUT(), gate: gate}
				}
				return core.NewBTreeSUT()
			},
			"rmi": core.NewRMISUT,
		}
	}
	workers := make([]*worker, 3)
	var addrs []string
	for i := range workers {
		workers[i] = newWorker(t, service.Config{Workers: 2, SUTs: gatedSUTs()})
		addrs = append(addrs, workers[i].ts.URL)
	}
	// Registered after the workers: cleanups run LIFO, so the gate opens
	// before the killed worker's svc.Close waits on its wedged pool run.
	var released bool
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	t.Cleanup(release)
	co := newCoordinator(t, fastConfig(addrs))

	// The chaos job: its first run blocks "mid-benchmark" on the owner.
	chaos := submitJob(t, co, "btree")
	if chaos.Dispatches != 1 {
		t.Fatalf("fresh job has %d dispatches", chaos.Dispatches)
	}

	// Wait until the owner worker has actually started the run (the gated
	// Load is reached in state running), then kill it per the fault plan.
	deadline := time.Now().Add(10 * time.Second)
	for {
		view, ok := co.Job(chaos.ID)
		if !ok {
			t.Fatal("chaos job vanished")
		}
		if view.State == service.JobRunning && atomic.LoadInt32(&instances) >= 1 {
			break
		}
		if view.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("chaos job never started: %+v", view)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var owner *worker
	for _, w := range workers {
		if w.ts.URL == chaos.Node {
			owner = w
		}
	}
	if owner == nil {
		t.Fatalf("job placed on unknown node %q", chaos.Node)
	}
	time.Sleep(killDelay)
	owner.ts.Close() // the crash: connection refused from here on

	// A bystander job submitted after the crash: it must route around the
	// dead node and be unaffected by the recovery.
	bystander := submitJob(t, co, "rmi")

	done := waitDone(t, co, chaos.ID)
	if done.Node == owner.ts.URL {
		t.Fatalf("job finished on the killed node %s", done.Node)
	}
	if done.Dispatches != 2 {
		t.Fatalf("job dispatched %d times, want exactly 2 (one re-route)", done.Dispatches)
	}
	waitDone(t, co, bystander.ID)

	// The killed node must be marked dead in the topology.
	deadSeen := false
	for _, n := range co.View().Nodes {
		if n.Addr == strings.TrimRight(owner.ts.URL, "/") && !n.Alive {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Fatalf("killed node still alive in view: %+v", co.View())
	}

	// Converged leaderboard == no-fault single-node reference, byte for
	// byte. Runs counts are part of the rows, so a double-executed (and
	// twice-persisted) job would diverge here.
	rows, err := co.Leaderboard("det", "")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rows)
	want := referenceRows(t, []string{"btree", "rmi"})
	if !bytes.Equal(got, want) {
		t.Fatalf("post-crash leaderboard diverged from reference:\n got %s\nwant %s", got, want)
	}
}
