package service

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

func postWithHeaders(t *testing.T, url, body string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data
}

// TestRetryAfterOn429: a rejected submission tells the client when to come
// back, and both sides of the conversation show up in /metrics.
func TestRetryAfterOn429(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // before cleanups: the pool drain needs the SUT unblocked
	suts := DefaultSUTs()
	suts["block"] = func() core.SUT { return &blockSUT{release: release} }
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 1, SUTs: suts})

	blocked := fmt.Sprintf(`{"sut":"block","spec":%s}`, detSpec)
	j1 := submit(t, ts, blocked)
	waitState(t, ts, j1.ID, JobRunning) // worker occupied, queue empty
	submit(t, ts, blocked)              // fills the queue

	code, hdr, data := postWithHeaders(t, ts.URL+"/v1/jobs", blocked, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overfull queue: status %d (%s), want 429", code, data)
	}
	ra := hdr.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}

	// The retrying client marks its resubmission; still rejected (the
	// queue is still full), but both counters advance.
	code, _, _ = postWithHeaders(t, ts.URL+"/v1/jobs", blocked,
		map[string]string{"X-Retry-Attempt": "1"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("retry while full: status %d, want 429", code)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	m := string(metrics)
	if !strings.Contains(m, "lsbench_jobs_rejected_total 2") {
		t.Fatalf("metrics missing rejected=2:\n%s", m)
	}
	if !strings.Contains(m, "lsbench_jobs_retried_total 1") {
		t.Fatalf("metrics missing retried=1:\n%s", m)
	}
}
