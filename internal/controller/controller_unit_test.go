package controller

import (
	"testing"

	"extsched/internal/core"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/dist"
	"extsched/internal/sim"
)

// unitRig builds a minimal frontend for reaction-logic tests: a fast
// CPU-bound DB driven manually.
func unitRig(t *testing.T, mpl int) (*sim.Engine, *dbfe.Frontend) {
	t.Helper()
	eng := sim.NewEngine()
	db, err := dbms.New(eng, dbms.Config{
		CPUs: 1, Disks: 1,
		LogService: dist.NewDeterministic(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, dbfe.New(eng, db, mpl, nil)
}

func TestConfigDefaults(t *testing.T) {
	c := Config{MaxThroughputLoss: 0.05}.withDefaults()
	if c.MinObservations != 100 {
		t.Errorf("MinObservations = %d", c.MinObservations)
	}
	if got := c.tputRelCI(); got != 0.025 {
		t.Errorf("tputRelCI = %v, want loss/2 = 0.025", got)
	}
	if c.MaxWindow != 5000 {
		t.Errorf("MaxWindow = %d, want 50x observations", c.MaxWindow)
	}
	// Tiny loss: CI floor applies.
	c2 := Config{MaxThroughputLoss: 0.01}.withDefaults()
	if got := c2.tputRelCI(); got != 0.02 {
		t.Errorf("tputRelCI floor = %v, want 0.02", got)
	}
}

func TestNextStepAdaptive(t *testing.T) {
	eng, fe := unitRig(t, 5)
	ctl, err := New(eng.Clock(), fe, Config{
		MaxThroughputLoss:   0.05,
		ReferenceThroughput: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Repeated same-direction steps double up to the cap.
	got := []int{}
	ctl.last.Action = Increase
	for i := 0; i < 6; i++ {
		got = append(got, ctl.nextStep(Increase))
		ctl.last.Action = Increase
	}
	want := []int{2, 4, 8, 16, 16, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("adaptive steps = %v, want %v", got, want)
		}
	}
	// Direction change resets.
	if s := ctl.nextStep(Decrease); s != 1 {
		t.Errorf("step after reversal = %d, want 1", s)
	}
}

func TestReactIncreasesOnViolation(t *testing.T) {
	eng, fe := unitRig(t, 3)
	ctl, err := New(eng.Clock(), fe, Config{
		MaxThroughputLoss:   0.05,
		ReferenceThroughput: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Feed a synthetic window: throughput far below target.
	m := syntheticWindow(50, 0.1, 200)
	ctl.react(m)
	if fe.MPL() != 4 {
		t.Errorf("MPL = %d after violation, want 4", fe.MPL())
	}
	if ctl.floor != 3 {
		t.Errorf("floor = %d, want 3 (marked infeasible)", ctl.floor)
	}
	d := ctl.Status().Last
	if d.Action != Increase || d.TputOK {
		t.Errorf("decision = %+v", d)
	}
}

func TestReactDecreasesWithMargin(t *testing.T) {
	eng, fe := unitRig(t, 10)
	ctl, err := New(eng.Clock(), fe, Config{
		MaxThroughputLoss:   0.05,
		ReferenceThroughput: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Comfortably above target (100 > 95 + margin).
	ctl.react(syntheticWindow(100, 0.05, 200))
	if fe.MPL() != 9 {
		t.Errorf("MPL = %d, want 9 (probe lower)", fe.MPL())
	}
}

func TestReactHoldsAtBoundary(t *testing.T) {
	eng, fe := unitRig(t, 4)
	ctl, err := New(eng.Clock(), fe, Config{
		MaxThroughputLoss:   0.05,
		ReferenceThroughput: 100,
		HoldWindows:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.floor = 3 // 3 known infeasible
	ctl.react(syntheticWindow(96, 0.05, 200))
	if fe.MPL() != 4 {
		t.Errorf("MPL = %d, want hold at 4", fe.MPL())
	}
	if ctl.Status().Converged {
		t.Error("converged after one hold, want 2")
	}
	ctl.react(syntheticWindow(96, 0.05, 200))
	if !ctl.Status().Converged {
		t.Error("not converged after HoldWindows holds")
	}
}

func TestReactRTViolation(t *testing.T) {
	eng, fe := unitRig(t, 4)
	ctl, err := New(eng.Clock(), fe, Config{
		MaxThroughputLoss: 0.05, MaxRTIncrease: 0.10,
		ReferenceThroughput: 100, ReferenceRT: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Throughput fine but RT 50% above the reference → increase.
	ctl.react(syntheticWindow(99, 0.15, 200))
	if fe.MPL() != 5 {
		t.Errorf("MPL = %d, want 5 (RT violated)", fe.MPL())
	}
	d := ctl.Status().Last
	if d.RTOK || !d.TputOK {
		t.Errorf("decision flags wrong: %+v", d)
	}
}

// syntheticWindow fabricates a Metrics value with the given throughput
// (completions over 1s), mean RT, and completion count.
func syntheticWindow(tput float64, meanRT float64, n int) core.Metrics {
	var m core.Metrics
	m.Completed = uint64(tput) // windowTime normalized below
	for i := 0; i < n; i++ {
		m.All.Add(meanRT)
	}
	// Completions over exactly one second → Throughput() == tput.
	return m.WithWindow(1.0)
}
