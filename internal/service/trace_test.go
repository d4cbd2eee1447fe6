package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestJobTraceRecordReplay walks the service's record→replay loop: a
// recording job serves its binary trace, and a second job replaying that
// trace as an inline source produces byte-identical result JSON. The
// trace is kept in traces/ beside the result store.
func TestJobTraceRecordReplay(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestService(t, Config{StorePath: filepath.Join(dir, "results.jsonl")})

	rec := submit(t, ts, `{"sut": "btree", "record": true, "spec": `+detSpec+`}`)
	waitState(t, ts, rec.ID, JobDone)
	if _, err := os.Stat(filepath.Join(dir, "traces", rec.ID+".lstrace")); err != nil {
		t.Fatalf("trace not beside the store: %v", err)
	}
	code, golden := get(t, ts.URL+"/v1/jobs/"+rec.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, golden)
	}
	code, traceData := get(t, ts.URL+"/v1/jobs/"+rec.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: %d: %s", code, traceData)
	}

	// The replay spec carries the trace inline (base64 in JSON) — no
	// shared filesystem with the service needed. Everything but the op
	// source matches the recorded scenario.
	spec := map[string]any{
		"name":        "det",
		"seed":        3,
		"initialData": map[string]any{"kind": "uniform"},
		"initialSize": 2000,
		"trainBefore": true,
		"intervalNs":  1_000_000,
		"phases": []any{map[string]any{
			"name":   "p",
			"source": map[string]any{"kind": "trace", "data": traceData},
		}},
	}
	body, err := json.Marshal(map[string]any{"sut": "btree", "spec": spec})
	if err != nil {
		t.Fatal(err)
	}
	rep := submit(t, ts, string(body))
	waitState(t, ts, rep.ID, JobDone)
	code, replayed := get(t, ts.URL+"/v1/jobs/"+rep.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("replay result: %d: %s", code, replayed)
	}
	if !bytes.Equal(golden, replayed) {
		t.Fatalf("replayed result JSON diverges from recorded run\n--- recorded ---\n%s\n--- replayed ---\n%s", golden, replayed)
	}
}

func TestJobTraceErrors(t *testing.T) {
	// Recording refused by an in-memory store, naming the flag that fixes it.
	_, tsOff := newTestService(t, Config{})
	code, data := postJSON(t, tsOff.URL+"/v1/jobs", `{"sut": "btree", "record": true, "spec": `+detSpec+`}`)
	if code != http.StatusBadRequest || !strings.Contains(string(data), "-store") {
		t.Fatalf("record without a result store: %d: %s", code, data)
	}

	// Sealed hold-outs cannot be recorded.
	holdouts := core.NewHoldoutRegistry()
	if err := holdouts.Register("sealed", func() core.Scenario { return core.Scenario{} }); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestService(t, Config{StorePath: filepath.Join(t.TempDir(), "results.jsonl"), Holdouts: holdouts})
	code, data = postJSON(t, ts.URL+"/v1/jobs", `{"sut": "btree", "record": true, "holdout": "sealed"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("record holdout: %d: %s", code, data)
	}

	// A non-recording job has no trace.
	v := submit(t, ts, `{"sut": "btree", "spec": `+detSpec+`}`)
	waitState(t, ts, v.ID, JobDone)
	code, data = get(t, ts.URL+"/v1/jobs/"+v.ID+"/trace")
	if code != http.StatusConflict {
		t.Fatalf("trace of non-recording job: %d: %s", code, data)
	}

	// Unknown job.
	code, _ = get(t, ts.URL+"/v1/jobs/nope/trace")
	if code != http.StatusNotFound {
		t.Fatalf("trace of unknown job: %d", code)
	}
}
