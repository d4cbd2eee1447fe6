package figures

import (
	"encoding/json"
	"testing"

	"repro/internal/report"
)

func TestOptDriftShape(t *testing.T) {
	t.Parallel()
	res := result[*OptDriftResult](t, "optdrift")
	static, ok := res.Results["static-histogram"]
	if !ok {
		t.Fatal("missing static system")
	}
	learned, ok := res.Results["learned-steered"]
	if !ok {
		t.Fatal("missing learned system")
	}
	if static.Completed != learned.Completed {
		t.Fatal("unequal query counts")
	}
	if learned.OnlineTrainWork <= 0 {
		t.Fatal("learned system reports no training work")
	}
	if static.OnlineTrainWork != 0 {
		t.Fatal("static system reports training work")
	}
	// Both have a change instant and post-change data.
	for name, r := range res.Results {
		if len(r.PhaseStarts) != 2 || r.PhaseStarts[1] <= 0 {
			t.Fatalf("%s: no change instant", name)
		}
		if len(r.AdjustmentNs) != 1 {
			t.Fatalf("%s: adjustment speeds %v, want one", name, r.AdjustmentNs)
		}
	}
	// The headline: after drift, the learned/steered optimizer ends up
	// completing the run in less virtual time than the stale static one
	// (it adapts; the static one keeps choosing plans from wrong
	// statistics).
	if learned.DurationNs >= static.DurationNs {
		t.Fatalf("learned (%d ns) not faster than stale static (%d ns)",
			learned.DurationNs, static.DurationNs)
	}
	// A SQL run is a core.Result like any other: it goes through the one
	// marshaller, with its learning work and its one change instant.
	data, err := report.MarshalResult(learned)
	if err != nil {
		t.Fatal(err)
	}
	var v report.ResultView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.Scenario != "optdrift" || v.SUT != "learned-steered" || v.Completed != learned.Completed ||
		v.OnlineTrainWork != learned.OnlineTrainWork || len(v.AdjustmentNs) != 1 {
		t.Fatalf("SQL result view: %+v", v)
	}
}
