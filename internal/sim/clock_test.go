package sim

import (
	"testing"
	"time"
)

func TestVirtualClock(t *testing.T) {
	v := &Virtual{}
	if v.Now() != 0 {
		t.Fatal("epoch not zero")
	}
	v.Advance(100)
	v.Advance(50)
	if v.Now() != 150 {
		t.Fatalf("now = %d", v.Now())
	}
	v.AdvanceTo(120) // past: no-op
	if v.Now() != 150 {
		t.Fatal("AdvanceTo moved backwards")
	}
	v.AdvanceTo(200)
	if v.Now() != 200 {
		t.Fatalf("now = %d", v.Now())
	}
}

func TestVirtualPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Virtual{}).Advance(-1)
}

func TestRealClockMonotone(t *testing.T) {
	r := NewReal()
	a := r.Now()
	time.Sleep(time.Millisecond)
	b := r.Now()
	if b <= a {
		t.Fatalf("real clock not advancing: %d, %d", a, b)
	}
	r.Advance(1 << 40) // no-op
	if r.Now() > b+int64(time.Second) {
		t.Fatal("Advance affected real clock")
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCostModel()
	if c.ServiceTime(0) != c.BaseNs {
		t.Fatal("zero-work service time")
	}
	if c.ServiceTime(10) != c.BaseNs+10*c.PerWorkNs {
		t.Fatal("service time formula")
	}
	if c.ServiceTime(-5) != c.BaseNs {
		t.Fatal("negative work must clamp")
	}
	if c.TrainTime(100) != 100*c.PerTrainNs {
		t.Fatal("train time formula")
	}
	if c.TrainTime(-1) != 0 {
		t.Fatal("negative train work")
	}
}
