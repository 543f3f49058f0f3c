package core

import (
	"math"
	"testing"
)

// TestExoticClassAccounting pins the bugfix for classes past the
// small ones (8 and 200 here, which once always took the slow path):
// their completions must land in their own per-class accumulator. Conservation is checked per class: everything submitted
// is either completed or shed, under its own class ID.
func TestExoticClassAccounting(t *testing.T) {
	eng, fe := rig(t, 2, nil)
	classes := []Class{8, 200}
	const perClass = 10
	for i := 0; i < perClass; i++ {
		for _, c := range classes {
			submit(fe, 0.5, c)
		}
	}
	// A tracked-class item in the same run, so the exotic entries must
	// coexist with fast-path accounting.
	submit(fe, 0.5, ClassLow)
	eng.RunAll()

	m := fe.Metrics()
	if got := m.All.Count(); got != 2*perClass+1 {
		t.Fatalf("all count = %d, want %d", got, 2*perClass+1)
	}
	for _, c := range classes {
		cm := m.ClassMetric(c)
		if cm.Completed() != perClass {
			t.Errorf("class %d completed = %d, want %d", c, cm.Completed(), perClass)
		}
		if cm.RT.Mean() <= 0 {
			t.Errorf("class %d mean RT = %v, want > 0", c, cm.RT.Mean())
		}
	}
	if cm := m.ClassMetric(ClassLow); cm.Completed() != 1 {
		t.Errorf("tracked class completed = %d, want 1", cm.Completed())
	}
	// Classes is sorted ascending by class ID.
	for i := 1; i < len(m.Classes); i++ {
		if m.Classes[i-1].Class >= m.Classes[i].Class {
			t.Fatalf("Classes not sorted: %v >= %v", m.Classes[i-1].Class, m.Classes[i].Class)
		}
	}
}

// TestExoticClassShedConservation runs exotic classes under an
// admission deadline tight enough to shed, and reconciles per-class
// conservation: submitted == completed + shed for each class ID.
func TestExoticClassShedConservation(t *testing.T) {
	eng, fe := rig(t, 1, nil)
	classes := []Class{8, 200}
	for _, c := range classes {
		fe.SetAdmitDeadline(c, 0.75)
	}
	const perClass = 12
	for i := 0; i < perClass; i++ {
		for _, c := range classes {
			submit(fe, 0.5, c)
		}
	}
	eng.RunAll()

	m := fe.Metrics()
	shed := fe.ShedClasses()
	var completed, shedTotal uint64
	for _, c := range classes {
		got := m.ClassMetric(c).Completed() + shed[c]
		if got != perClass {
			t.Errorf("class %d completed+shed = %d, want %d", c, got, perClass)
		}
		completed += m.ClassMetric(c).Completed()
		shedTotal += shed[c]
	}
	if shedTotal == 0 {
		t.Fatal("deadline shed nothing; the test needs a tighter setup")
	}
	if total := fe.Shed(); total != shedTotal {
		t.Errorf("Shed total = %d, want %d", total, shedTotal)
	}
	if m.Completed != completed {
		t.Errorf("Completed = %d, want %d", m.Completed, completed)
	}
}

func TestTenantRegistry(t *testing.T) {
	_, fe := rig(t, 4, nil)
	if fe.Tenants() != nil {
		t.Fatal("fresh frontend has tenants")
	}
	a := fe.RegisterClass("batch", 1, 0)
	b := fe.RegisterClass("interactive", 4, 0.5)
	if a != 0 || b != 1 {
		t.Fatalf("class IDs = %d,%d, want 0,1", a, b)
	}
	ts := fe.Tenants()
	if len(ts) != 2 {
		t.Fatalf("tenants = %d, want 2", len(ts))
	}
	if ts[1].Name != "interactive" || ts[1].Weight != 4 || ts[1].SLOTarget != 0.5 {
		t.Errorf("tenant 1 = %+v", ts[1])
	}
	if fe.TenantName(b) != "interactive" || fe.TenantName(Class(99)) != "" {
		t.Error("TenantName lookup wrong")
	}
	// The returned slice is a copy.
	ts[0].Name = "mutated"
	if fe.TenantName(a) != "batch" {
		t.Error("Tenants() exposed internal state")
	}
}

func TestRegisterClassPanicsOnBadWeight(t *testing.T) {
	_, fe := rig(t, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("weight 0 did not panic")
		}
	}()
	fe.RegisterClass("bad", 0, 0)
}

func TestClassMetricsReset(t *testing.T) {
	eng, fe := rig(t, 0, nil)
	submit(fe, 1.0, Class(3))
	eng.RunAll()
	if len(fe.Metrics().Classes) != 1 {
		t.Fatal("class entry missing before reset")
	}
	fe.ResetMetrics()
	m := fe.Metrics()
	if cm := m.ClassMetric(Class(3)); cm.Completed() != 0 {
		t.Errorf("class 3 survived reset with count %d", cm.Completed())
	}
	submit(fe, 1.0, Class(3))
	eng.RunAll()
	if cm := fe.Metrics().ClassMetric(Class(3)); cm.Completed() != 1 {
		t.Errorf("post-reset count = %d, want 1", cm.Completed())
	}
}

func TestMergeClassMetrics(t *testing.T) {
	mk := func(rts map[Class][]float64) Metrics {
		var m Metrics
		for c, vals := range rts {
			for _, v := range vals {
				m.Record(&Item{Class: c, Complete: v})
			}
		}
		return m
	}
	out := mk(map[Class][]float64{0: {1, 2}, 5: {10}})
	b := mk(map[Class][]float64{2: {3}, 5: {20, 30}})
	out.Merge(&b)
	if out.Completed != 6 || out.All.Count() != 6 {
		t.Errorf("merged completed = %d (all %d), want 6", out.Completed, out.All.Count())
	}
	cls := out.Classes
	if len(cls) != 3 || cls[0].Class != 0 || cls[1].Class != 2 || cls[2].Class != 5 {
		t.Fatalf("merged classes = %+v", cls)
	}
	if cls[2].Completed() != 3 {
		t.Errorf("class 5 merged count = %d, want 3", cls[2].Completed())
	}
	if math.Abs(cls[2].RT.Mean()-20) > 1e-9 {
		t.Errorf("class 5 merged mean = %v, want 20", cls[2].RT.Mean())
	}
}
