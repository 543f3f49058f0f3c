package runner

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"extsched/internal/trace"
	"extsched/internal/workload"
	"extsched/metrics"
)

// testStack assembles a fresh setup-1 stack (the paper's CPU-bound
// TPC-C-like workload on 1 CPU / 1 disk).
func testStack(t *testing.T, mpl int, seed uint64) Stack {
	t.Helper()
	return setupStack(t, 1, mpl, seed)
}

// setupStack assembles a fresh stack for the given Table 2 setup.
func setupStack(t *testing.T, setupID, mpl int, seed uint64) Stack {
	t.Helper()
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStack(Build{Setup: setup, MPL: mpl, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSpecValidate(t *testing.T) {
	neg := -1
	zero := 0.0
	cases := []struct {
		name string
		spec Scenario
		ok   bool
	}{
		{"empty", Scenario{}, false},
		{"negative warmup", Scenario{Warmup: -1, Phases: []Phase{{Kind: PhaseClosed, Duration: 1}}}, false},
		{"unknown kind", Scenario{Phases: []Phase{{Kind: "weird", Duration: 1}}}, false},
		{"open without lambda", Scenario{Phases: []Phase{{Kind: PhaseOpen, Duration: 1}}}, false},
		{"ramp without duration", Scenario{Phases: []Phase{{Kind: PhaseRamp, Lambda: 1, Lambda2: 2}}}, false},
		{"ramp both rates zero", Scenario{Phases: []Phase{{Kind: PhaseRamp, Duration: 1}}}, false},
		{"burst factor below one", Scenario{Phases: []Phase{{Kind: PhaseBurst, Lambda: 5, BurstFactor: 0.5, Duration: 1}}}, false},
		{"trace without trace", Scenario{Phases: []Phase{{Kind: PhaseTrace, Duration: 1}}}, false},
		{"negative event offset", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1, Events: []Event{{At: -1}}}}}, false},
		{"negative event MPL", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1, Events: []Event{{SetMPL: &neg}}}}}, false},
		{"controller without reference", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1,
			Events: []Event{{EnableController: &ControllerSpec{MaxThroughputLoss: 0.05}}}}}}, false},
		{"bad wfq weight", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1, Events: []Event{{SetWeights: map[string]float64{"high": zero}}}}}}, false},
		{"valid closed", Scenario{Warmup: 1, Phases: []Phase{{Kind: PhaseClosed, Duration: 1}}}, true},
		{"valid multi", Scenario{Phases: []Phase{
			{Kind: PhaseClosed, Duration: 1},
			{Kind: PhaseRamp, Lambda: 1, Lambda2: 5, Duration: 2},
			{Kind: PhaseBurst, Lambda: 5, Duration: 1},
		}}, true},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
	}
}

// TestWindowingRule is the regression test for the unified measurement
// window: an overloaded open run must count exactly the completions
// that happened inside [warmup, warmup+duration] — draining the
// backlog afterwards must not change the report.
func TestWindowingRule(t *testing.T) {
	st := testStack(t, 2, 1)
	// Offered load far above what MPL 2 can serve: a large backlog is
	// guaranteed to be in flight when the window closes.
	out, err := Run(context.Background(), st, Scenario{
		Warmup: 5,
		Phases: []Phase{{Kind: PhaseOpen, Lambda: 300, Duration: 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Total.SimSeconds != 30 {
		t.Errorf("window = %v, want 30", out.Total.SimSeconds)
	}
	if st.FE.QueueLen() == 0 {
		t.Fatal("test needs a backlog at window close to be meaningful")
	}
	inWindow := out.Total.Completed
	// Drain everything still queued or in flight; the report must not
	// move (the runner's accounting hook is off).
	st.Eng.RunAll()
	after := st.FE.Metrics().Completed
	if after <= inWindow {
		t.Fatalf("drain completed nothing (%d vs %d): backlog assumption broken", after, inWindow)
	}
	if got := out.Total.Completed; got != inWindow {
		t.Errorf("report changed after drain: %d -> %d", inWindow, got)
	}
	// Throughput is in-window completions over the window, and cannot
	// exceed the service capacity at MPL 2 (far below the offered 300/s).
	if tput := out.Total.Throughput; tput >= 300 {
		t.Errorf("throughput %v includes post-window completions", tput)
	}
}

func TestPhaseSequencingAndReports(t *testing.T) {
	st := testStack(t, 5, 2)
	out, err := Run(context.Background(), st, Scenario{
		Warmup: 10,
		Phases: []Phase{
			{Name: "steady", Kind: PhaseClosed, Clients: 50, Duration: 40},
			{Name: "surge", Kind: PhaseOpen, Lambda: 60, Duration: 40},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(out.Phases))
	}
	if out.Phases[0].Name != "steady" || out.Phases[1].Name != "surge" {
		t.Errorf("phase names wrong: %q, %q", out.Phases[0].Name, out.Phases[1].Name)
	}
	if out.Phases[0].SimSeconds != 40 || out.Phases[1].SimSeconds != 40 {
		t.Errorf("phase windows = %v, %v, want 40 each (warmup excluded)",
			out.Phases[0].SimSeconds, out.Phases[1].SimSeconds)
	}
	if out.Total.SimSeconds != 80 {
		t.Errorf("total window = %v, want 80", out.Total.SimSeconds)
	}
	if sum := out.Phases[0].Completed + out.Phases[1].Completed; sum != out.Total.Completed {
		t.Errorf("phase completions %d don't sum to total %d", sum, out.Total.Completed)
	}
	if out.Total.Completed == 0 || out.Total.CPUUtil <= 0 {
		t.Errorf("empty total report: %+v", out.Total)
	}
}

func TestSnapshotsAreWindowed(t *testing.T) {
	st := testStack(t, 5, 3)
	var col metrics.Collector
	out, err := Run(context.Background(), st, Scenario{
		Warmup:         5,
		SampleInterval: 10,
		Phases:         []Phase{{Kind: PhaseClosed, Clients: 50, Duration: 100}},
	}, &col)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Snapshots) != 10 {
		t.Fatalf("snapshots = %d, want 10", len(col.Snapshots))
	}
	var sum uint64
	prev := 5.0
	for i, s := range col.Snapshots {
		if s.Window != 10 {
			t.Errorf("snapshot %d window = %v, want 10", i, s.Window)
		}
		if s.Time != prev+10 {
			t.Errorf("snapshot %d at %v, want %v", i, s.Time, prev+10)
		}
		prev = s.Time
		if s.Completed == 0 || s.Throughput <= 0 {
			t.Errorf("snapshot %d empty: %+v", i, s)
		}
		if s.Limit != 5 {
			t.Errorf("snapshot %d limit = %d, want 5", i, s.Limit)
		}
		if s.Phase != "closed" {
			t.Errorf("snapshot %d phase = %q", i, s.Phase)
		}
		sum += s.Completed
	}
	if sum != out.Total.Completed {
		t.Errorf("snapshot completions %d don't sum to total %d", sum, out.Total.Completed)
	}
}

func TestMidPhaseEvents(t *testing.T) {
	st := testStack(t, 2, 4)
	mpl := 20
	var col metrics.Collector
	out, err := Run(context.Background(), st, Scenario{
		SampleInterval: 10,
		Phases: []Phase{{
			Kind: PhaseClosed, Clients: 50, Duration: 100,
			Events: []Event{{At: 50, SetMPL: &mpl}},
		}},
	}, &col)
	if err != nil {
		t.Fatal(err)
	}
	if out.FinalMPL != 20 {
		t.Errorf("final MPL = %d, want 20", out.FinalMPL)
	}
	// Snapshots taken before t=50 see limit 2; after, 20.
	for _, s := range col.Snapshots {
		want := 2
		if s.Time >= 50 {
			want = 20
		}
		if s.Limit != want {
			t.Errorf("snapshot at %v: limit %d, want %d", s.Time, s.Limit, want)
		}
	}
}

func TestControllerEventAndEarlyStop(t *testing.T) {
	// Measure a no-MPL reference, then let the controller tune a fresh
	// stack from a deliberately wrong start.
	ref := testStack(t, 0, 5)
	base, err := Run(context.Background(), ref, Scenario{
		Warmup: 20,
		Phases: []Phase{{Kind: PhaseClosed, Duration: 150}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := testStack(t, 30, 5)
	out, err := Run(context.Background(), st, Scenario{
		Warmup:         20,
		SampleInterval: 25,
		Phases: []Phase{{
			Kind: PhaseClosed, Duration: 4000,
			Events: []Event{{At: 0, EnableController: &ControllerSpec{
				MaxThroughputLoss:   0.05,
				ReferenceThroughput: base.Total.Throughput,
				StopOnConverge:      true,
			}}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Tune == nil {
		t.Fatal("no tune report")
	}
	if !out.Tune.Converged {
		t.Errorf("controller did not converge: %+v", out.Tune)
	}
	if out.Tune.StartMPL != 30 {
		t.Errorf("start MPL = %d, want 30", out.Tune.StartMPL)
	}
	if out.Tune.FinalMPL < 1 || out.Tune.FinalMPL >= 30 {
		t.Errorf("final MPL = %d, want tuned below the wasteful 30", out.Tune.FinalMPL)
	}
	// Early stop: the run ended well before the 4000-second horizon.
	if out.Total.SimSeconds >= 4000 {
		t.Errorf("run used the whole horizon (%v): early stop broken", out.Total.SimSeconds)
	}
}

// TestStopOnConvergeWithoutSampling: early stop must not depend on
// snapshot breakpoints — a converging controller halts the engine from
// the completion stream even when the spec has no SampleInterval.
func TestStopOnConvergeWithoutSampling(t *testing.T) {
	ref := testStack(t, 0, 5)
	base, err := Run(context.Background(), ref, Scenario{
		Warmup: 20,
		Phases: []Phase{{Kind: PhaseClosed, Duration: 150}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := testStack(t, 30, 5)
	out, err := Run(context.Background(), st, Scenario{
		Warmup: 20,
		Phases: []Phase{{
			Kind: PhaseClosed, Duration: 100000,
			Events: []Event{{At: 0, EnableController: &ControllerSpec{
				MaxThroughputLoss:   0.05,
				ReferenceThroughput: base.Total.Throughput,
				StopOnConverge:      true,
			}}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Tune == nil || !out.Tune.Converged {
		t.Fatalf("controller did not converge: %+v", out.Tune)
	}
	if out.Total.SimSeconds >= 100000 {
		t.Errorf("run consumed the whole horizon (%v) despite convergence", out.Total.SimSeconds)
	}
}

func TestDisableControllerFreezesTuneReport(t *testing.T) {
	ref := testStack(t, 0, 5)
	base, err := Run(context.Background(), ref, Scenario{
		Warmup: 20,
		Phases: []Phase{{Kind: PhaseClosed, Duration: 150}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := testStack(t, 8, 5)
	out, err := Run(context.Background(), st, Scenario{
		Warmup:         20,
		SampleInterval: 25,
		Phases: []Phase{
			{Kind: PhaseClosed, Duration: 600, Events: []Event{{EnableController: &ControllerSpec{
				MaxThroughputLoss:   0.05,
				ReferenceThroughput: base.Total.Throughput,
			}}}},
			{Kind: PhaseClosed, Duration: 50, Events: []Event{{DisableController: true}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Tune == nil {
		t.Fatal("tune report lost after DisableController")
	}
	if out.Tune.Iterations == 0 {
		t.Error("tune report recorded no iterations")
	}
	if out.Tune.FinalMPL != out.FinalMPL {
		t.Errorf("disabled controller's MPL %d should be frozen (final %d)",
			out.Tune.FinalMPL, out.FinalMPL)
	}
}

// TestLoopSlotHandoff: a run holds one MPL loop and one partition
// loop. The controller stacks with the SLO loop; the SLO and fairness
// loops both write the class partition, so the second of them is
// refused; one event can hand the partition from one loop to the next,
// and every loop that ran reports.
func TestLoopSlotHandoff(t *testing.T) {
	enable := &ControllerSpec{MaxThroughputLoss: 0.05, ReferenceThroughput: 50}
	out, err := Run(context.Background(), testStack(t, 8, 3), Scenario{
		Phases: []Phase{{Kind: PhaseClosed, Duration: 100, Events: []Event{
			{EnableController: enable},
			{At: 20, SetSLO: &SLOSpec{Target: 1}},
		}}},
	})
	if err != nil {
		t.Fatalf("SLO loop refused next to the controller: %v", err)
	}
	if out.Tune == nil || out.Tune.Iterations == 0 || out.SLO == nil || out.SLO.Iterations == 0 {
		t.Errorf("stacked reports: tune %+v, SLO %+v", out.Tune, out.SLO)
	}

	_, err = Run(context.Background(), testStack(t, 8, 3), Scenario{
		Phases: []Phase{{Kind: PhaseClosed, Duration: 60, Events: []Event{
			{SetSLO: &SLOSpec{Target: 1}},
			{At: 20, EnableFairness: &FairnessSpec{Weights: map[string]float64{"high": 1, "low": 1}}},
		}}},
	})
	if err == nil || !strings.Contains(err.Error(), "class partition") {
		t.Fatalf("fairness attached over the SLO loop: err = %v", err)
	}

	out, err = Run(context.Background(), testStack(t, 8, 3), Scenario{
		Phases: []Phase{{Kind: PhaseClosed, Duration: 300, Events: []Event{
			{EnableController: enable},
			{At: 100, DisableController: true, SetSLO: &SLOSpec{Target: 1}},
			{At: 200, DisableSLO: true, EnableFairness: &FairnessSpec{Weights: map[string]float64{"high": 1, "low": 1}}},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Tune == nil || out.Tune.Iterations == 0 {
		t.Errorf("controller report: %+v", out.Tune)
	}
	if out.SLO == nil || out.SLO.Iterations == 0 || out.SLO.Class != "high" {
		t.Errorf("SLO report: %+v", out.SLO)
	}
	if f := out.Fairness; f == nil || f.Iterations == 0 || f.Limits[0]+f.Limits[1] != out.FinalMPL {
		t.Errorf("fairness report: %+v (final MPL %d)", f, out.FinalMPL)
	}
}

// stackedScenario runs the paper's recipe on three weighted tenants:
// the MPL controller and the fairness loop both attach at t=0, the
// controller searching for the lowest MPL within the throughput bound
// while fairness partitions whatever MPL it sets.
func stackedScenario(reference float64) Scenario {
	return Scenario{
		Tenants: []TenantSpec{
			{Name: "small", Weight: 1, Share: 0.25},
			{Name: "mid", Weight: 1, Share: 0.25},
			{Name: "big", Weight: 2, Share: 0.5},
		},
		Phases: []Phase{{Kind: PhaseClosed, Clients: 60, Duration: 600, Events: []Event{{
			EnableController: &ControllerSpec{MaxThroughputLoss: 0.05, ReferenceThroughput: reference},
			EnableFairness:   &FairnessSpec{},
		}}}},
	}
}

// TestLoopStackingControllerFairness: with both loops attached the
// controller converges, and fairness ends with a partition of exactly
// the converged MPL that leaves every tenant a slot. The run is a pure
// function of its seed.
func TestLoopStackingControllerFairness(t *testing.T) {
	ref, err := Run(context.Background(), setupStack(t, 12, 0, 5), Scenario{
		Warmup: 20,
		Phases: []Phase{{Kind: PhaseClosed, Clients: 60, Duration: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() Result {
		out, err := Run(context.Background(), setupStack(t, 12, 12, 5), stackedScenario(ref.Total.Throughput))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := run()
	if out.Tune == nil || !out.Tune.Converged {
		t.Fatalf("controller did not converge: %+v", out.Tune)
	}
	f := out.Fairness
	if f == nil || f.Iterations == 0 || len(f.Limits) != 3 {
		t.Fatalf("fairness report: %+v", f)
	}
	sum := 0
	for c, l := range f.Limits {
		if l < 1 {
			t.Errorf("tenant %d holds %d slots, want >= 1", c, l)
		}
		sum += l
	}
	if sum != out.FinalMPL || out.Tune.FinalMPL != out.FinalMPL {
		t.Errorf("fairness limits %v sum to %d, want the converged MPL %d (tune %+v)", f.Limits, sum, out.FinalMPL, out.Tune)
	}
	if again := run(); !reflect.DeepEqual(out, again) {
		t.Errorf("rerun differs:\n%+v\nvs\n%+v", out, again)
	}
}

// TestLoopStackingBelowTenantCount: when the controller settles below
// one slot per tenant, the fairness loop holds its last partition — it
// cannot floor every tenant at one slot — instead of failing the run.
func TestLoopStackingBelowTenantCount(t *testing.T) {
	// A reference far below what MPL 1 delivers: every window meets
	// the target with margin, so the controller walks down to MPL 1.
	out, err := Run(context.Background(), testStack(t, 12, 5), stackedScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Tune == nil || !out.Tune.Converged || out.FinalMPL >= 3 {
		t.Fatalf("controller did not settle below the tenant count: %+v (final MPL %d)", out.Tune, out.FinalMPL)
	}
	f := out.Fairness
	if f == nil || len(f.Limits) != 3 {
		t.Fatalf("fairness report: %+v", f)
	}
	sum := 0
	for c, l := range f.Limits {
		if l < 1 {
			t.Errorf("tenant %d holds %d slots, want >= 1", c, l)
		}
		sum += l
	}
	if sum < 3 {
		t.Errorf("held partition %v no longer floors every tenant", f.Limits)
	}
}

func TestZeroDurationPhase(t *testing.T) {
	st := testStack(t, 5, 6)
	out, err := Run(context.Background(), st, Scenario{
		Phases: []Phase{
			{Name: "blip", Kind: PhaseClosed, Clients: 10, Duration: 0},
			{Name: "main", Kind: PhaseOpen, Lambda: 40, Duration: 50},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(out.Phases))
	}
	if out.Phases[0].SimSeconds != 0 {
		t.Errorf("zero-duration phase window = %v", out.Phases[0].SimSeconds)
	}
	// The blip's 10 clients were submitted at the boundary instant and
	// completed during the main phase (stopped clients do not recycle).
	if out.Total.Completed == 0 {
		t.Error("no completions")
	}
	if out.Total.SimSeconds != 50 {
		t.Errorf("total window = %v, want 50", out.Total.SimSeconds)
	}
}

func TestRunDeterministicAcrossRebuilds(t *testing.T) {
	tr := trace.SyntheticRetailer(2000, 9)
	spec := Scenario{
		Warmup:         5,
		SampleInterval: 7,
		Phases: []Phase{
			{Kind: PhaseClosed, Clients: 30, Duration: 30},
			{Kind: PhaseRamp, Lambda: 10, Lambda2: 80, Duration: 30},
			{Kind: PhaseTrace, Trace: tr, TraceSpeedup: 2, Duration: 20},
		},
	}
	do := func() (Result, []metrics.Snapshot) {
		st := testStack(t, 4, 7)
		var col metrics.Collector
		out, err := Run(context.Background(), st, spec, &col)
		if err != nil {
			t.Fatal(err)
		}
		return out, col.Snapshots
	}
	o1, s1 := do()
	o2, s2 := do()
	if !reflect.DeepEqual(o1, o2) {
		t.Errorf("same-seed outcomes differ:\n%+v\nvs\n%+v", o1, o2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("same-seed snapshot streams differ")
	}
	if len(s1) == 0 {
		t.Error("no snapshots collected")
	}
	if o1.Total.P95 <= 0 || o1.Total.P95 < o1.Total.P50 {
		t.Errorf("percentiles not populated/ordered: p50 %v p95 %v", o1.Total.P50, o1.Total.P95)
	}
}

func TestRunContextCancellation(t *testing.T) {
	st := testStack(t, 5, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, st, Scenario{
		SampleInterval: 1,
		Phases:         []Phase{{Kind: PhaseClosed, Duration: 100}},
	}); err == nil {
		t.Error("canceled context accepted")
	}
}
