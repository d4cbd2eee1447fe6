package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/netdriver"
	"repro/internal/service"
	"repro/internal/stats"
)

// workerClient speaks the service HTTP API to one worker node with the
// wire discipline the netdriver established: every call gets a per-op
// deadline, failures carry netdriver's typed retry classes
// (ErrTransient/ErrFatal) so callers branch with errors.Is, and transient
// failures re-send with seeded capped-exponential backoff. Re-sends are
// safe because every mutating call is idempotent — job dispatch carries
// an explicit job ID the worker dedupes.
type workerClient struct {
	base       string
	hc         *http.Client
	maxRetries int
	retryBase  time.Duration
	retryMax   time.Duration

	mu      sync.Mutex
	rng     *stats.RNG
	retries int64
}

// newWorkerClient builds a client for the worker at base URL, seeding its
// retry jitter from (cfg.RetrySeed, base) so cluster retry timing is
// reproducible per node for a fixed seed.
func newWorkerClient(base string, cfg Config) *workerClient {
	return &workerClient{
		base:       strings.TrimRight(base, "/"),
		hc:         &http.Client{Timeout: cfg.RequestTimeout},
		maxRetries: cfg.MaxRetries,
		retryBase:  cfg.RetryBase,
		retryMax:   cfg.RetryMax,
		rng:        stats.NewRNG(cfg.RetrySeed ^ ringHash(base) ^ 0xC00D),
	}
}

// Retries returns how many transient-failure re-sends this client made.
func (wc *workerClient) Retries() int64 {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.retries
}

// backoff counts a re-send and sleeps out netdriver's Backoff delay for
// retry attempt (0-based).
func (wc *workerClient) backoff(attempt int) {
	wc.mu.Lock()
	jitter := wc.rng.Float64()
	wc.retries++
	wc.mu.Unlock()
	time.Sleep(netdriver.Backoff(wc.retryBase, wc.retryMax, attempt, jitter))
}

// statusError is a non-2xx worker answer, preserved for relay.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("worker answered %d: %s", e.status, strings.TrimSpace(e.body))
}

// classifyNetErr maps a transport error to netdriver's retry classes the
// same way the wire layer does: timeouts are transient (the request may
// merely be slow, or lost in flight), everything else — refused, reset,
// unreachable — means the node is gone and retrying this call cannot
// help.
func classifyNetErr(stage string, err error) error {
	class := netdriver.ErrFatal
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		class = netdriver.ErrTransient
	}
	return &netdriver.WireError{Stage: stage, Class: class, Err: err}
}

// classifyStatus maps a non-2xx status to a retry class: 429 (queue
// backpressure) and 5xx are transient — the worker may recover — while
// other 4xx mean the request itself is wrong and re-sending is futile.
func classifyStatus(stage string, status int, body []byte) error {
	class := netdriver.ErrFatal
	if status == http.StatusTooManyRequests || status >= 500 {
		class = netdriver.ErrTransient
	}
	return &netdriver.WireError{Stage: stage, Class: class, Err: &statusError{status, string(body)}}
}

// once issues a single HTTP request (no retries) and decodes a 2xx JSON
// answer into out (skipped when out is nil). The returned status is 0
// when the transport failed before an answer arrived.
func (wc *workerClient) once(method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, wc.base+path, rd)
	if err != nil {
		return 0, &netdriver.WireError{Stage: "cluster request", Class: netdriver.ErrFatal, Err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := wc.hc.Do(req)
	if err != nil {
		return 0, classifyNetErr("cluster "+method+" "+path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, classifyNetErr("cluster response", err)
	}
	if resp.StatusCode >= 400 {
		return resp.StatusCode, classifyStatus("cluster "+method+" "+path, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, &netdriver.WireError{Stage: "cluster response", Class: netdriver.ErrFatal, Err: err}
		}
	}
	return resp.StatusCode, nil
}

// do is once plus the transient retry loop: ErrTransient failures re-send
// up to maxRetries times with capped-exponential backoff before the error
// surfaces. The request body is re-sent verbatim per attempt.
func (wc *workerClient) do(method, path string, body []byte, out any) (int, error) {
	for attempt := 0; ; attempt++ {
		status, err := wc.once(method, path, body, out)
		if err == nil {
			return status, nil
		}
		if errors.Is(err, netdriver.ErrTransient) && attempt < wc.maxRetries {
			wc.backoff(attempt)
			continue
		}
		return status, err
	}
}

// submit dispatches a job (its ID set by the coordinator, making re-sends
// idempotent) and returns the worker's view of it.
func (wc *workerClient) submit(req service.JobRequest) (service.JobView, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return service.JobView{}, 0, err
	}
	var view service.JobView
	status, err := wc.do(http.MethodPost, "/v1/jobs", body, &view)
	return view, status, err
}

// jobStatus polls one job's state.
func (wc *workerClient) jobStatus(id string) (service.JobView, int, error) {
	var view service.JobView
	status, err := wc.do(http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &view)
	return view, status, err
}

// jobResult fetches a done job's full deterministic result JSON.
func (wc *workerClient) jobResult(id string) (json.RawMessage, int, error) {
	var raw json.RawMessage
	status, err := wc.do(http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, &raw)
	return raw, status, err
}

// storeIDs lists the JobIDs in the worker's result store — the cheap half
// of anti-entropy.
func (wc *workerClient) storeIDs() ([]string, error) {
	var out struct {
		IDs []string `json:"ids"`
	}
	_, err := wc.do(http.MethodGet, "/v1/store/ids", nil, &out)
	return out.IDs, err
}

// storeEntriesChunk bounds how many IDs one pull request carries, keeping
// the query string well under URL length limits.
const storeEntriesChunk = 128

// storeEntries pulls the named entries from the worker's store, chunking
// large ID sets across requests.
func (wc *workerClient) storeEntries(ids []string) ([]service.Entry, error) {
	var out []service.Entry
	for len(ids) > 0 {
		chunk := ids
		if len(chunk) > storeEntriesChunk {
			chunk = ids[:storeEntriesChunk]
		}
		ids = ids[len(chunk):]
		var page struct {
			Entries []service.Entry `json:"entries"`
		}
		path := "/v1/store/entries?ids=" + url.QueryEscape(strings.Join(chunk, ","))
		if _, err := wc.do(http.MethodGet, path, nil, &page); err != nil {
			return out, err
		}
		out = append(out, page.Entries...)
	}
	return out, nil
}

// health is a single liveness probe — deliberately no retry loop; the
// coordinator's health checker does its own consecutive-failure damping.
func (wc *workerClient) health() error {
	_, err := wc.once(http.MethodGet, "/healthz", nil, nil)
	return err
}
