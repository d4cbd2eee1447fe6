package figures

import "testing"

func TestFig1aWorkloadShape(t *testing.T) {
	t.Parallel()
	res := result[*Fig1aWorkloadResult](t, "fig1aw")
	rows := res.Rows["histogram-optimizer"]
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Summary.N == 0 || r.Summary.Median <= 0 {
			t.Fatalf("%s: empty throughput summary", r.Label)
		}
	}
	// Φ structure per §V-D1:
	// the baseline's distance to itself is 0;
	if res.Phi["baseline-join"] != 0 {
		t.Fatalf("baseline self-distance = %v", res.Phi["baseline-join"])
	}
	// literals don't matter — same template is identical;
	if res.Phi["same-template"] != 0 {
		t.Fatalf("same-template distance = %v (literals leaked into Φ)", res.Phi["same-template"])
	}
	// shared-subtree variants sit strictly between identical and disjoint;
	for _, name := range []string{"extra-filter", "three-way"} {
		if p := res.Phi[name]; p <= 0 || p >= 1 {
			t.Fatalf("%s distance = %v, want in (0,1)", name, p)
		}
	}
	// and a disjoint template is maximally distant.
	if res.Phi["disjoint-scan"] != 1 {
		t.Fatalf("disjoint distance = %v", res.Phi["disjoint-scan"])
	}
	// The ordering is meaningful: extra-filter (supersets the baseline
	// plan) is closer than the three-way join.
	if res.Phi["extra-filter"] >= res.Phi["three-way"] {
		t.Fatalf("phi ordering: extra-filter %v !< three-way %v",
			res.Phi["extra-filter"], res.Phi["three-way"])
	}
}
