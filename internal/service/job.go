package service

import (
	"encoding/json"

	"repro/internal/core"
)

// JobState is the lifecycle of a submitted benchmark job.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker slot.
	JobQueued JobState = "queued"
	// JobRunning: a queue worker is executing the run.
	JobRunning JobState = "running"
	// JobDone: finished; the result JSON is available.
	JobDone JobState = "done"
	// JobFailed: the run returned an error (bad scenario, spent hold-out…).
	JobFailed JobState = "failed"
	// JobCanceled: canceled via DELETE before completing.
	JobCanceled JobState = "canceled"
	// JobTimeout: exceeded its deadline and was abandoned.
	JobTimeout JobState = "timeout"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled || s == JobTimeout
}

// JobRequest is the POST /v1/jobs body. Exactly one of Scenario (a name
// from the service catalog), Holdout (a sealed hold-out name), or Spec
// (an inline internal/config scenario document) selects what to run.
type JobRequest struct {
	// SUT names the system under test (see GET /v1/suts).
	SUT string `json:"sut"`
	// Scenario names a catalog scenario (see GET /v1/scenarios).
	Scenario string `json:"scenario,omitempty"`
	// Holdout names a sealed hold-out; the (holdout, SUT) pair is
	// consumed by the run — a second submission fails (paper §V-A).
	Holdout string `json:"holdout,omitempty"`
	// Spec is an inline scenario document (internal/config schema).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Seed overrides the spec's seed before building (inline specs
	// only); identical spec+seed submissions return byte-identical
	// result JSON.
	Seed *uint64 `json:"seed,omitempty"`
	// TimeoutMs overrides the service's default job timeout.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// Record asks the service to record the run's exact op stream as a
	// binary trace, retrievable from GET /v1/jobs/{id}/trace once the
	// job is done. Requires Config.StorePath; refused for sealed
	// hold-outs (their workloads never leave the service).
	Record bool `json:"record,omitempty"`
}

// Job is one submitted run and its outcome.
type Job struct {
	ID       string
	Req      JobRequest
	Scenario string // resolved scenario/hold-out name for display
	Seed     uint64 // effective seed (0 for sealed hold-outs)
	State    JobState
	Err      string
	// ResultJSON is the encoded report.ResultView, byte-identical for
	// identical (scenario, seed) runs. Set only in state done.
	ResultJSON []byte

	// spec is the pre-built scenario for inline-spec jobs; named and
	// hold-out jobs build fresh at run time.
	spec *core.Scenario
	// tracePath is where the run's recording landed (Record jobs only),
	// set when the trace file is complete.
	tracePath string
	// cancel is closed by DELETE while the job is running.
	cancel   chan struct{}
	canceled bool
}

// JobView is the status JSON for a job.
type JobView struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Scenario string   `json:"scenario"`
	SUT      string   `json:"sut"`
	Seed     uint64   `json:"seed,omitempty"`
	Error    string   `json:"error,omitempty"`
}

// view snapshots the job for status responses. Callers must hold the
// service mutex.
func (j *Job) view() JobView {
	return JobView{
		ID:       j.ID,
		State:    j.State,
		Scenario: j.Scenario,
		SUT:      j.Req.SUT,
		Seed:     j.Seed,
		Error:    j.Err,
	}
}
