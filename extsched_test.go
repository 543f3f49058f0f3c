package extsched

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"extsched/internal/experiments"
	"extsched/internal/workload"
)

func TestNewSystemFromSetupID(t *testing.T) {
	s, err := NewSystem(Config{SetupID: 1, MPL: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.MPL() != 5 {
		t.Errorf("MPL = %d, want 5", s.MPL())
	}
	if s.Setup() == "" {
		t.Error("empty setup description")
	}
}

func TestNewSystemFromWorkloadName(t *testing.T) {
	s, err := NewSystem(Config{Workload: "W_CPU-inventory", CPUs: 2, Disks: 1, Isolation: "UR"})
	if err != nil {
		t.Fatal(err)
	}
	if s.MPL() != 0 {
		t.Errorf("default MPL = %d, want 0 (unlimited)", s.MPL())
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring of the error; "" means valid
	}{
		{"empty", Config{}, "either SetupID or Workload"},
		{"negative MPL", Config{SetupID: 1, MPL: -1}, "MPL -1"},
		{"negative CPUs", Config{Workload: "W_CPU-inventory", CPUs: -2}, "CPUs -2"},
		{"negative disks", Config{Workload: "W_CPU-inventory", Disks: -1}, "Disks -1"},
		{"unknown policy", Config{SetupID: 1, Policy: "zzz"}, `policy "zzz"`},
		{"unknown isolation", Config{Workload: "W_CPU-inventory", Isolation: "XX"}, `isolation "XX"`},
		{"high fraction above 1", Config{SetupID: 1, HighPriorityFraction: 1.5}, "HighPriorityFraction"},
		{"negative WFQ weight", Config{SetupID: 1, Policy: PolicyWFQ, WFQHighWeight: -3}, "WFQHighWeight"},
		{"negative queue limit", Config{SetupID: 1, QueueLimit: -1}, "QueueLimit"},
		{"negative percentile samples", Config{SetupID: 1, PercentileSamples: -5}, "PercentileSamples"},
		{"valid minimal", Config{SetupID: 1}, ""},
		{"valid full", Config{
			Workload: "W_CPU-inventory", CPUs: 2, Disks: 1, Isolation: "SI",
			MPL: 8, Policy: PolicyWFQ, WFQHighWeight: 3,
			HighPriorityFraction: 0.2, QueueLimit: 50,
		}, ""},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: invalid config accepted: %+v", tc.name, tc.cfg)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestNewSystemValidation(t *testing.T) {
	cases := []Config{
		{},                          // nothing specified
		{Workload: "nope"},          // unknown workload
		{SetupID: 99},               // unknown setup
		{SetupID: 1, Policy: "zzz"}, // unknown policy
		{SetupID: 1, MPL: -2},       // negative MPL (error, not panic)
		{Workload: "W_CPU-inventory", Isolation: "XX"},
	}
	for i, cfg := range cases {
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestRunClosedReport(t *testing.T) {
	s, err := NewSystem(Config{SetupID: 1, MPL: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunClosed(100, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed < 1000 {
		t.Errorf("completed = %d, want >= 1000", rep.Completed)
	}
	if rep.Throughput < 30 || rep.Throughput > 300 {
		t.Errorf("throughput = %v, want sane CPU-bound range", rep.Throughput)
	}
	if rep.MeanRT <= 0 || rep.CPUUtil <= 0 {
		t.Errorf("report fields not populated: %+v", rep)
	}
	// A System is re-runnable: the second run rebuilds pristine state
	// and reproduces the first bit for bit.
	rep2, err := s.RunClosed(100, 10, 60)
	if err != nil {
		t.Fatalf("second run on same System rejected: %v", err)
	}
	if !reflect.DeepEqual(rep2, rep) {
		t.Errorf("re-run differs:\n%+v\nvs\n%+v", rep2, rep)
	}
}

func TestRunOpenReport(t *testing.T) {
	s, err := NewSystem(Config{SetupID: 1, MPL: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunOpen(40, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throughput < 30 || rep.Throughput > 50 {
		t.Errorf("open throughput = %v, want ≈ lambda 40", rep.Throughput)
	}
}

func TestPriorityPolicyDifferentiates(t *testing.T) {
	s, err := NewSystem(Config{SetupID: 1, MPL: 2, Policy: PolicyPriority, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunClosed(100, 10, 120)
	if err != nil {
		t.Fatal(err)
	}
	high, low := rep.Class(1).MeanRT, rep.Class(0).MeanRT
	if high <= 0 || low <= 0 {
		t.Fatal("per-class RTs missing")
	}
	if low < 2*high {
		t.Errorf("differentiation = %.1fx, want >= 2x at MPL 2 (high %.3f low %.3f)",
			low/high, high, low)
	}
}

func TestDeterminismAcrossSystems(t *testing.T) {
	run := func() Report {
		s, err := NewSystem(Config{SetupID: 1, MPL: 5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunClosed(50, 5, 30)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Throughput != b.Throughput || a.MeanRT != b.MeanRT {
		t.Errorf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestRecommendMPL(t *testing.T) {
	// Pure IO, 4 disks, 200 ms IO demand.
	rec, err := RecommendMPL(1, 4, 0.001, 0.2, 0.05, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ThroughputMPL < 4 {
		t.Errorf("throughput MPL = %d, want >= 4 for 4 disks at 95%%", rec.ThroughputMPL)
	}
	if rec.MPL != rec.ThroughputMPL {
		t.Errorf("MPL = %d, want = throughput bound without RT inputs", rec.MPL)
	}
	// Adding a high-C² open load raises the recommendation.
	rec2, err := RecommendMPL(1, 1, 0.1, 0, 0.05, 7, 0.1, 15, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ResponseTimeMPL <= 1 {
		t.Errorf("RT MPL = %d, want > 1 for C²=15 at rho .7", rec2.ResponseTimeMPL)
	}
	if rec2.MPL < rec2.ResponseTimeMPL {
		t.Error("final MPL must cover the RT bound")
	}
}

func TestSetupsAndWorkloadsLists(t *testing.T) {
	if n := len(Setups()); n != 17 {
		t.Errorf("Setups() = %d entries, want 17", n)
	}
	if n := len(Workloads()); n != 6 {
		t.Errorf("Workloads() = %d entries, want 6", n)
	}
}

func TestAutoTuneSmoke(t *testing.T) {
	// Measure a reference, then auto-tune a fresh system.
	ref, err := NewSystem(Config{SetupID: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	base, err := ref.RunClosed(100, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(Config{SetupID: 1, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.AutoTune(100, 0.05, base.Throughput, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("controller did not converge: %+v", res)
	}
	if res.FinalMPL < 1 || res.FinalMPL > 40 {
		t.Errorf("final MPL = %d, want low", res.FinalMPL)
	}
}

func TestWFQPolicyBalancesClasses(t *testing.T) {
	run := func(policy string, weight float64) Report {
		s, err := NewSystem(Config{
			SetupID:              1,
			MPL:                  2,
			Policy:               policy,
			WFQHighWeight:        weight,
			HighPriorityFraction: 0.5, // equal offered load per class
			Seed:                 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunClosed(100, 10, 120)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	wfqMild := run(PolicyWFQ, 1.5)
	strict := run(PolicyPriority, 0)
	// Both differentiate.
	wfqHigh, wfqLow := wfqMild.Class(1).MeanRT, wfqMild.Class(0).MeanRT
	strictHigh, strictLow := strict.Class(1).MeanRT, strict.Class(0).MeanRT
	if wfqHigh >= wfqLow {
		t.Errorf("WFQ high RT %v should beat low %v", wfqHigh, wfqLow)
	}
	// A mild weight ratio differentiates LESS than strict priority —
	// the knob the paper's class-based QoS companion work needs.
	wfqRatio := wfqLow / wfqHigh
	strictRatio := strictLow / strictHigh
	if wfqRatio >= strictRatio {
		t.Errorf("WFQ(1.5) ratio %.1fx should be below strict priority %.1fx", wfqRatio, strictRatio)
	}
	// Low class under WFQ must do no worse than under strict priority.
	if wfqLow > strictLow*1.1 {
		t.Errorf("WFQ low RT %v worse than strict priority %v", wfqLow, strictLow)
	}
}

func TestQueueLimitDropsUnderOverload(t *testing.T) {
	s, err := NewSystem(Config{SetupID: 1, MPL: 2, QueueLimit: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Offered load far above the MPL-2 service rate.
	rep, err := s.RunOpen(200, 5, 60)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped == 0 {
		t.Error("expected admission-control drops under overload")
	}
}

func TestPercentilesReported(t *testing.T) {
	s, err := NewSystem(Config{SetupID: 1, MPL: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunClosed(100, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !(rep.P50 > 0 && rep.P50 <= rep.P95 && rep.P95 <= rep.P99) {
		t.Errorf("percentiles not ordered: %v %v %v", rep.P50, rep.P95, rep.P99)
	}
	// The mean lies between P50 and P99 for these right-skewed RTs.
	if rep.MeanRT < rep.P50*0.5 || rep.MeanRT > rep.P99 {
		t.Errorf("mean %v inconsistent with percentiles (%v, %v)", rep.MeanRT, rep.P50, rep.P99)
	}
}

// TestSystemAndHarnessBuildTheSameRun pins System's Config → stack
// translation (lock policy, high-class fraction, WFQ weights, shard
// seeds, dispatch) against the experiment harness's: both assemble
// through runner.NewStack, so the same setup, MPL and seed must give
// the same run.
func TestSystemAndHarnessBuildTheSameRun(t *testing.T) {
	ctx := context.Background()
	setup1, err := workload.SetupByID(1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{SetupID: 1, MPL: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Warmup: 10, Phases: []Phase{{Kind: PhaseClosed, Clients: 100, Duration: 30}}}
	got, err := sys.Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunPhases(setup1, 10, "", workload.DBOptions{}, experiments.RunOpts{Seed: 3}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total.Completed == 0 {
		t.Fatal("unsharded run completed nothing")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unsharded: System and harness results differ\nsystem:  %+v\nharness: %+v", got.Total, want.Total)
	}

	// Sharded: four nominal-speed jsq-routed shards of setup 3 (about
	// 9 tx/s each) under open load at about 70% of the fleet's
	// capacity.
	const lambda, warmup, measure = 25.0, 5.0, 30.0
	setup3, err := workload.SetupByID(3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err = NewSystem(Config{SetupID: 3, MPL: 16, Seed: 2, Shards: ShardSpec{Count: 4, Dispatch: "jsq"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(ctx, Scenario{Warmup: warmup, Phases: []Phase{{Kind: PhaseOpen, Lambda: lambda, Duration: measure}}})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := experiments.RunDispatch(setup3, []float64{1, 1, 1, 1}, "jsq", 16, lambda,
		experiments.RunOpts{Seed: 2, Warmup: warmup, Measure: measure})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != 4 || res.Total.Completed == 0 {
		t.Fatalf("sharded run: %d shards, %d completions", len(res.Shards), res.Total.Completed)
	}
	if res.Total.Throughput != pt.Throughput || res.Total.MeanRT != pt.MeanRT || res.Total.P95 != pt.P95 {
		t.Errorf("sharded: System tput %v mean %v p95 %v, harness %v %v %v",
			res.Total.Throughput, res.Total.MeanRT, res.Total.P95, pt.Throughput, pt.MeanRT, pt.P95)
	}
	if !reflect.DeepEqual(res.Shards, pt.Shards) {
		t.Errorf("sharded: per-shard results differ\nsystem:  %+v\nharness: %+v", res.Shards, pt.Shards)
	}
}
