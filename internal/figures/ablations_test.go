package figures

import "testing"

func TestAblationSLA(t *testing.T) {
	t.Parallel()
	res := result[*ablationsResult](t, "ablations").sla
	// Calibrated threshold must be discriminative: some violations
	// (adaptation disruptions) but far from drowning.
	if res.CalibratedViolationRate <= 0 || res.CalibratedViolationRate >= 0.9 {
		t.Fatalf("calibrated violation rate %v not discriminative", res.CalibratedViolationRate)
	}
	// A 100x threshold hides nearly everything.
	if res.LooseViolationRate >= res.CalibratedViolationRate/2 {
		t.Fatalf("loose threshold should hide violations: %v vs %v",
			res.LooseViolationRate, res.CalibratedViolationRate)
	}
	// A 1/20 threshold flags most steady-state ops too.
	if res.TightViolationRate <= res.CalibratedViolationRate*2 {
		t.Fatalf("tight threshold should drown in noise: %v vs %v",
			res.TightViolationRate, res.CalibratedViolationRate)
	}
}

func TestAblationPhi(t *testing.T) {
	t.Parallel()
	res := result[*ablationsResult](t, "ablations").phi
	if res.OrderAgreement < 0.7 {
		t.Fatalf("KS/MMD ordering agreement %v below 0.7 — Φ choice would matter too much",
			res.OrderAgreement)
	}
	if len(res.KS) != len(Fig1aCases()) || len(res.MMD) != len(res.KS) {
		t.Fatal("missing Φ values")
	}
	for name, v := range res.KS {
		if v < 0 || v > 1 {
			t.Fatalf("KS[%s] = %v", name, v)
		}
	}
}

func TestAblationTransition(t *testing.T) {
	t.Parallel()
	res := result[*ablationsResult](t, "ablations").tr
	if res.AbruptDip < 0 || res.AbruptDip > 1 || res.GradualDip < 0 || res.GradualDip > 1 {
		t.Fatalf("dips out of range: %+v", res)
	}
	// The abrupt switch concentrates adaptation work; the gradual blend
	// spreads it. The concentrated variant must show the deeper dip or
	// the larger over-SLA burst (either signal suffices; both being
	// smaller would contradict §V-B).
	if res.AbruptDip <= res.GradualDip && res.AbruptOverSLA <= res.GradualOverSLA {
		t.Fatalf("abrupt transition shows no concentrated cost: %+v", res)
	}
}

func TestAblationTrainingPlacement(t *testing.T) {
	t.Parallel()
	res := result[*ablationsResult](t, "ablations").tp
	if res.ScheduledRetrainWork <= 0 {
		t.Fatal("scheduled window did no retraining")
	}
	// The maintenance window removes the mid-serving merge from the
	// settle phase: less over-SLA time while serving.
	if res.ScheduledOverSLA > res.OnlineOverSLA {
		t.Fatalf("scheduled retrain did not reduce serving-path violations: %+v", res)
	}
	if res.OnlineThroughput <= 0 || res.ScheduledThroughput <= 0 {
		t.Fatal("throughput missing")
	}
}

func TestAblationHoldout(t *testing.T) {
	t.Parallel()
	res := result[*ablationsResult](t, "ablations").ho
	// The learned index's in-sample advantage must shrink out of sample
	// more than the traditional baseline's (which should be ~1.0).
	if res.LearnedGap <= res.TraditionalGap {
		t.Fatalf("hold-out failed to expose specialization: learned %v vs traditional %v",
			res.LearnedGap, res.TraditionalGap)
	}
	if res.TraditionalGap < 0.8 || res.TraditionalGap > 1.3 {
		t.Fatalf("traditional gap %v should be near 1", res.TraditionalGap)
	}
}
