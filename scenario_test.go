package extsched

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"extsched/metrics"
)

// TestScenarioRerunBitIdentical is the acceptance test for the
// re-runnable System: a three-phase scenario (closed -> open ramp ->
// trace replay) run twice on ONE System produces bit-identical
// Results, and an Observer receives at least 10 interval snapshots.
func TestScenarioRerunBitIdentical(t *testing.T) {
	sys, err := NewSystem(Config{SetupID: 1, MPL: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name:           "accept",
		Warmup:         10,
		SampleInterval: 10,
		Phases: []Phase{
			{Name: "steady", Kind: PhaseClosed, Clients: 50, Duration: 40},
			{Name: "surge", Kind: PhaseRamp, Lambda: 30, Lambda2: 90, Duration: 40},
			{Name: "replay", Kind: PhaseTrace, Duration: 40, TraceSynth: &TraceSynth{
				N: 4000, MeanDemand: 0.008, DemandC2: 2, Lambda: 80, Seed: 5,
			}},
		},
	}
	var obs1, obs2 metrics.Collector
	r1, err := sys.Run(context.Background(), sc, &obs1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Run(context.Background(), sc, &obs2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("re-run on one System not bit-identical:\n%+v\nvs\n%+v", r1.Total, r2.Total)
	}
	if !reflect.DeepEqual(obs1.Snapshots, obs2.Snapshots) {
		t.Error("observer streams differ between re-runs")
	}
	if len(obs1.Snapshots) < 10 {
		t.Errorf("observer received %d snapshots, want >= 10", len(obs1.Snapshots))
	}
	if len(r1.Snapshots) != len(obs1.Snapshots) {
		t.Errorf("Result.Snapshots has %d entries, observer saw %d", len(r1.Snapshots), len(obs1.Snapshots))
	}
	if len(r1.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(r1.Phases))
	}
	for i, name := range []string{"steady", "surge", "replay"} {
		if r1.Phases[i].Name != name {
			t.Errorf("phase %d = %q, want %q", i, r1.Phases[i].Name, name)
		}
		if r1.Phases[i].Completed == 0 {
			t.Errorf("phase %q saw no completions", name)
		}
	}
	if r1.Total.SimSeconds != 120 {
		t.Errorf("total window = %v, want 120", r1.Total.SimSeconds)
	}
	if !(r1.Total.P50 > 0 && r1.Total.P50 <= r1.Total.P95 && r1.Total.P95 <= r1.Total.P99) {
		t.Errorf("percentiles not ordered: %v %v %v", r1.Total.P50, r1.Total.P95, r1.Total.P99)
	}
	// A fresh System with the same Config reproduces the same Result
	// too (determinism is a property of the Config, not the instance).
	sys2, err := NewSystem(Config{SetupID: 1, MPL: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := sys2.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	r1.Snapshots = nil // r3 ran without the extra observer, but Snapshots come from SampleInterval either way
	r3.Snapshots = nil
	if !reflect.DeepEqual(r1, r3) {
		t.Error("fresh System with same Config differs from re-run")
	}
}

// TestRunOpenWindowing is the regression test for the measurement
// window at the public API level: under heavy overload, RunOpen must
// report only in-window completions — the seed implementation drained
// the backlog after Stop and counted those completions against the
// window, inflating throughput beyond service capacity at the MPL.
func TestRunOpenWindowing(t *testing.T) {
	s, err := NewSystem(Config{SetupID: 1, MPL: 1, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Setup 1 serves ~95 tx/s unlimited; MPL 1 is slower. Offer 400/s.
	rep, err := s.RunOpen(400, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SimSeconds != 20 {
		t.Errorf("window = %v, want 20", rep.SimSeconds)
	}
	// In-window completions can't outrun the service capacity; with the
	// old post-window drain the reported rate exceeded it wildly.
	if rep.Throughput > 150 {
		t.Errorf("throughput %v exceeds any plausible service rate: post-window pollution", rep.Throughput)
	}
	if rep.Completed == 0 {
		t.Error("no completions recorded")
	}
}

func TestScenarioEvents(t *testing.T) {
	sys, err := NewSystem(Config{SetupID: 1, MPL: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	mpl := 12
	var col metrics.Collector
	res, err := sys.Run(context.Background(), Scenario{
		SampleInterval: 10,
		Phases: []Phase{{
			Kind: PhaseClosed, Clients: 50, Duration: 60,
			Events: []Event{{At: 30, SetMPL: &mpl}},
		}},
	}, &col)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMPL != 12 {
		t.Errorf("final MPL = %d, want 12", res.FinalMPL)
	}
	for _, s := range col.Snapshots {
		want := 2
		if s.Time >= 30 {
			want = 12
		}
		if s.Limit != want {
			t.Errorf("snapshot at %v: limit %d, want %d", s.Time, s.Limit, want)
		}
	}
	// MPL() outside a run reports the configured value, untouched by
	// the event.
	if sys.MPL() != 2 {
		t.Errorf("configured MPL = %d, want 2", sys.MPL())
	}
}

func TestScenarioWFQWeightEvent(t *testing.T) {
	sys, err := NewSystem(Config{
		SetupID: 1, MPL: 2, Policy: PolicyWFQ,
		WFQHighWeight: 1.0001, HighPriorityFraction: 0.5, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := 16.0
	res, err := sys.Run(context.Background(), Scenario{
		Warmup: 10,
		Phases: []Phase{
			{Name: "even", Kind: PhaseClosed, Duration: 120},
			{Name: "skewed", Kind: PhaseClosed, Duration: 120,
				Events: []Event{{At: 0, SetWeights: map[string]float64{"high": w}}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	even, skewed := res.Phases[0], res.Phases[1]
	rEven := even.Class(0).MeanRT / even.Class(1).MeanRT
	rSkewed := skewed.Class(0).MeanRT / skewed.Class(1).MeanRT
	if rSkewed <= rEven {
		t.Errorf("raising the high-class weight should widen differentiation: %v -> %v", rEven, rSkewed)
	}
}

func TestScenarioZeroDurationPhase(t *testing.T) {
	sys, err := NewSystem(Config{SetupID: 1, MPL: 5, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), Scenario{
		Phases: []Phase{
			{Name: "blip", Kind: PhaseClosed, Clients: 10, Duration: 0},
			{Name: "main", Kind: PhaseOpen, Lambda: 40, Duration: 30},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases[0].SimSeconds != 0 {
		t.Errorf("zero-duration phase window = %v", res.Phases[0].SimSeconds)
	}
	if res.Total.SimSeconds != 30 || res.Total.Completed == 0 {
		t.Errorf("main phase not measured: %+v", res.Total)
	}
}

// intp is a literal-int pointer helper for event tables.
func intp(v int) *int { return &v }

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name    string
		sc      Scenario
		wantErr string
	}{
		{"no phases", Scenario{}, "no phases"},
		{"bad kind", Scenario{Phases: []Phase{{Kind: "zigzag", Duration: 1}}}, "unknown kind"},
		{"open needs lambda", Scenario{Phases: []Phase{{Kind: PhaseOpen, Duration: 1}}}, "lambda"},
		{"trace needs trace", Scenario{Phases: []Phase{{Kind: PhaseTrace, Duration: 1}}}, "trace"},
		{"trace not both", Scenario{Phases: []Phase{{Kind: PhaseTrace, Duration: 1,
			Trace:      &Trace{Records: []TraceRecord{{Arrival: 0, Demand: 1}}},
			TraceSynth: &TraceSynth{N: 1, MeanDemand: 1, DemandC2: 1, Lambda: 1},
		}}}, "not both"},
		{"bad synth", Scenario{Phases: []Phase{{Kind: PhaseTrace, Duration: 1,
			TraceSynth: &TraceSynth{N: -1}}}}, "invalid synthesis"},
		{"negative duration", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: -2}}}, "duration"},
		{"slo needs target", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1,
			Events: []Event{{SetSLO: &SLOSpec{}}}}}}, "target"},
		{"slo bad class", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1,
			Events: []Event{{SetSLO: &SLOSpec{Class: "platinum", Target: 1}}}}}}, "class"},
		{"slo bad percentile", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1,
			Events: []Event{{SetSLO: &SLOSpec{Target: 1, Percentile: 100}}}}}}, "percentile"},
		{"tenant limit below 1", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1,
			Events: []Event{{SetTenantLimits: &TenantLimits{"high": 1, "low": 0}}}}}}, "limit"},
		{"negative deadline", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1,
			Events: []Event{{SetTenantDeadlines: map[string]float64{"low": -1}}}}}}, "deadline"},
		{"negative mttr", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1,
			Churn: &ChurnSpec{MTBF: 10, MTTR: -2}}}}, "MTTR"},
		{"zero mtbf", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1,
			Churn: &ChurnSpec{MTTR: 2}}}}, "MTBF"},
		{"negative fail index", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1,
			Events: []Event{{ShardFail: intp(-1)}}}}}, "shard_fail"},
		{"negative recover index", Scenario{Phases: []Phase{{Kind: PhaseClosed, Duration: 1,
			Events: []Event{{ShardRecover: intp(-3)}}}}}, "shard_recover"},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("%s: invalid scenario accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestParseScenarioJSON(t *testing.T) {
	mpl := 8
	sc := Scenario{
		Name:           "roundtrip",
		Warmup:         5,
		SampleInterval: 2,
		Phases: []Phase{
			{Kind: PhaseClosed, Clients: 20, Duration: 10,
				Events: []Event{{At: 5, SetMPL: &mpl}}},
			{Kind: PhaseBurst, Lambda: 50, BurstFactor: 3, BurstPeriod: 2, Duration: 10},
		},
	}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Errorf("round trip lost data:\n%+v\nvs\n%+v", sc, back)
	}
	// Unknown fields are rejected (typo protection for hand-written
	// files).
	if _, err := ParseScenario([]byte(`{"phases":[{"kind":"closed","duraton":5}]}`)); err == nil {
		t.Error("typo'd field accepted")
	}
	// Invalid JSON and invalid scenarios are rejected.
	if _, err := ParseScenario([]byte(`{`)); err == nil {
		t.Error("broken JSON accepted")
	}
	if _, err := ParseScenario([]byte(`{"phases":[]}`)); err == nil {
		t.Error("empty scenario accepted")
	}
}

func TestScenarioContextCancel(t *testing.T) {
	sys, err := NewSystem(Config{SetupID: 1, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Run(ctx, Scenario{
		SampleInterval: 1,
		Phases:         []Phase{{Kind: PhaseClosed, Duration: 50}},
	}); err == nil {
		t.Error("canceled run reported success")
	}
	// The System is reusable after a canceled run.
	if _, err := sys.RunClosed(20, 2, 10); err != nil {
		t.Errorf("System unusable after cancellation: %v", err)
	}
}

// TestAutoTuneMatchesScenarioController: AutoTune is now a wrapper
// over a one-phase scenario with an EnableController event; verify the
// long-form scenario produces the same behavior.
func TestAutoTuneScenarioEquivalence(t *testing.T) {
	mkSys := func() *System {
		s, err := NewSystem(Config{SetupID: 1, Seed: 22})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base, err := mkSys().RunClosed(100, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := mkSys().AutoTune(100, 0.05, base.Throughput, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !tuned.Converged {
		t.Fatalf("AutoTune did not converge: %+v", tuned)
	}
	// Long form: same scenario spelled out.
	sys := mkSys()
	res, err := sys.runScenario(context.Background(), Scenario{
		Warmup:         100,
		SampleInterval: 50,
		Phases: []Phase{{
			Kind: PhaseClosed, Duration: 1900,
			Events: []Event{{EnableController: &ControllerSpec{
				MaxThroughputLoss:   0.05,
				ReferenceThroughput: base.Throughput,
				StopOnConverge:      true,
			}}},
		}},
	}, &tuned.StartMPL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tune == nil {
		t.Fatal("scenario run has no tune report")
	}
	if *res.Tune != tuned {
		t.Errorf("wrapper and long-form scenario disagree: %+v vs %+v", tuned, *res.Tune)
	}
}

// TestShardedScenarioRerunBitIdentical is the sharded-dispatch
// acceptance test: a two-shard cluster whose shard 1 is slowed 4x
// mid-phase (then recovers while the dispatch policy switches to JSQ),
// run twice on ONE System, produces bit-identical Results — the
// deterministic-rerun guarantee extends to multi-shard runs.
func TestShardedScenarioRerunBitIdentical(t *testing.T) {
	sys, err := NewSystem(Config{
		SetupID: 1, MPL: 8, Seed: 21,
		Shards: ShardSpec{Count: 2, Dispatch: "jsq"},
	})
	if err != nil {
		t.Fatal(err)
	}
	slow := ShardSpeedEvent{Shard: 1, Speed: 0.25}
	recover := ShardSpeedEvent{Shard: 1, Speed: 1}
	sc := Scenario{
		Name:           "shard-slowdown",
		Warmup:         10,
		SampleInterval: 10,
		Phases: []Phase{
			{Name: "steady", Kind: PhaseClosed, Clients: 40, Duration: 60,
				Events: []Event{{At: 20, SetShardSpeed: &slow}}},
			{Name: "recovered", Kind: PhaseOpen, Lambda: 40, Duration: 60,
				Events: []Event{{At: 10, SetShardSpeed: &recover, SetDispatch: "lwl"}}},
		},
	}
	var obs1, obs2 metrics.Collector
	r1, err := sys.Run(context.Background(), sc, &obs1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Run(context.Background(), sc, &obs2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("sharded re-run on one System not bit-identical:\n%+v\nvs\n%+v", r1.Total, r2.Total)
	}
	if !reflect.DeepEqual(obs1.Snapshots, obs2.Snapshots) {
		t.Error("sharded observer streams differ between re-runs")
	}
	if len(r1.Shards) != 2 {
		t.Fatalf("Shards = %d, want 2", len(r1.Shards))
	}
	var dispatched, completed uint64
	for _, sr := range r1.Shards {
		if sr.Dispatched == 0 || sr.Completed == 0 {
			t.Errorf("shard %d idle: %+v", sr.Shard, sr.Report)
		}
		dispatched += sr.Dispatched
		completed += sr.Completed
	}
	if completed != r1.Total.Completed {
		t.Errorf("shard completions sum to %d, total %d", completed, r1.Total.Completed)
	}
	if r1.Shards[1].Speed != 1 {
		t.Errorf("shard 1 final speed = %v, want 1 (recovered)", r1.Shards[1].Speed)
	}
	// Snapshots carry per-shard state, and the mid-phase slowdown is
	// visible in them: some snapshot has shard 1 at speed 0.25.
	sawSlow := false
	for _, s := range obs1.Snapshots {
		if len(s.Shards) != 2 {
			t.Fatalf("snapshot at %v has %d shard stats, want 2", s.Time, len(s.Shards))
		}
		if s.Shards[1].Speed == 0.25 {
			sawSlow = true
		}
	}
	if !sawSlow {
		t.Error("no snapshot observed shard 1 at speed 0.25")
	}
}

// TestSLOScenarioRerunBitIdentical is the SLO acceptance test: a
// scenario that hands the MPL partition to the latency-SLO controller,
// arms a low-class admission deadline, and drives a transiently
// overloading burst — run twice on ONE System — produces bit-identical
// Results, sheds work deterministically, and ends with a partition
// that respects the invariant (limits sum to the MPL, each >= 1).
func TestSLOScenarioRerunBitIdentical(t *testing.T) {
	sys, err := NewSystem(Config{SetupID: 1, MPL: 12, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name:           "slo-shedding",
		Warmup:         10,
		SampleInterval: 10,
		Phases: []Phase{
			{Name: "steady", Kind: PhaseOpen, Lambda: 65, Duration: 60,
				Events: []Event{{
					SetSLO:             &SLOSpec{Class: "high", Target: 0.4},
					SetTenantDeadlines: map[string]float64{"low": 1.5},
				}}},
			{Name: "burst", Kind: PhaseBurst, Lambda: 105, BurstFactor: 3, BurstPeriod: 15, Duration: 60},
			{Name: "recover", Kind: PhaseOpen, Lambda: 55, Duration: 60},
		},
	}
	var obs1, obs2 metrics.Collector
	r1, err := sys.Run(context.Background(), sc, &obs1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Run(context.Background(), sc, &obs2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("SLO re-run on one System not bit-identical:\n%+v\nvs\n%+v", r1.Total, r2.Total)
	}
	if !reflect.DeepEqual(obs1.Snapshots, obs2.Snapshots) {
		t.Error("SLO observer streams differ between re-runs")
	}
	if len(obs1.Snapshots) < 10 {
		t.Errorf("observer received %d snapshots, want >= 10", len(obs1.Snapshots))
	}
	// The burst overload must actually shed low-class work, and the
	// shed totals must match the snapshot deltas (the per-class split
	// is TestClassBreakdownConservation's).
	if r1.Total.Shed == 0 || r1.Total.Class(0).Shed == 0 {
		t.Errorf("burst shed nothing: %+v", r1.Total)
	}
	var snapShed uint64
	for _, s := range obs1.Snapshots {
		snapShed += s.Shed
	}
	if snapShed != r1.Total.Shed {
		t.Errorf("snapshot shed deltas sum to %d, total %d", snapShed, r1.Total.Shed)
	}
	// The SLO controller ran and its final partition covers the MPL.
	if r1.SLO == nil {
		t.Fatal("no SLO report")
	}
	if r1.SLO.Class != "high" || r1.SLO.Iterations == 0 {
		t.Errorf("SLO report: %+v", r1.SLO)
	}
	if r1.SLO.SLOLimit+r1.SLO.OtherLimit != r1.FinalMPL || r1.SLO.SLOLimit < 1 || r1.SLO.OtherLimit < 1 {
		t.Errorf("partition %d+%d violates the invariant against MPL %d",
			r1.SLO.SLOLimit, r1.SLO.OtherLimit, r1.FinalMPL)
	}
	// The whole point: the protected class's tail stays far below the
	// unprotected one's under overload.
	if hi, lo := r1.Total.Class(1).P95, r1.Total.Class(0).P95; !(hi > 0 && hi < lo) {
		t.Errorf("class p95s high %v vs low %v — SLO class not protected", hi, lo)
	}
}

// TestSLOEventsRequireUnsharded: the SLO partition lives on the lone
// frontend; pointing it at a sharded system fails loudly.
func TestSLOEventsRequireUnsharded(t *testing.T) {
	sys, err := NewSystem(Config{SetupID: 1, MPL: 8, Seed: 1, Shards: ShardSpec{Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for name, ev := range map[string]Event{
		"set_slo":           {SetSLO: &SLOSpec{Target: 0.5}},
		"set_tenant_limits": {SetTenantLimits: &TenantLimits{"high": 2, "low": 6}},
	} {
		_, err := sys.Run(context.Background(), Scenario{Phases: []Phase{{
			Kind: PhaseClosed, Clients: 5, Duration: 1, Events: []Event{ev},
		}}})
		if err == nil || !strings.Contains(err.Error(), "sharded") {
			t.Errorf("%s on sharded system: err = %v, want sharded error", name, err)
		}
	}
	// Admission deadlines DO work sharded (each shard sheds its own
	// queue).
	if _, err := sys.Run(context.Background(), Scenario{Phases: []Phase{{
		Kind: PhaseClosed, Clients: 5, Duration: 1,
		Events: []Event{{SetTenantDeadlines: map[string]float64{"low": 0.5}}},
	}}}); err != nil {
		t.Errorf("set_tenant_deadlines on sharded system: %v", err)
	}
}

// TestShardEventsRequireShards: shard-targeted events against an
// unsharded system fail loudly, not silently.
func TestShardEventsRequireShards(t *testing.T) {
	sys, err := NewSystem(Config{SetupID: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(context.Background(), Scenario{Phases: []Phase{{
		Kind: PhaseClosed, Clients: 5, Duration: 1,
		Events: []Event{{SetShardSpeed: &ShardSpeedEvent{Shard: 0, Speed: 0.5}}},
	}}})
	if err == nil || !strings.Contains(err.Error(), "unsharded") {
		t.Errorf("SetShardSpeed on unsharded system: err = %v, want unsharded error", err)
	}
	_, err = sys.Run(context.Background(), Scenario{Phases: []Phase{{
		Kind: PhaseClosed, Clients: 5, Duration: 1,
		Events: []Event{{SetDispatch: "jsq"}},
	}}})
	if err == nil || !strings.Contains(err.Error(), "unsharded") {
		t.Errorf("SetDispatch on unsharded system: err = %v, want unsharded error", err)
	}
}

// TestScenarioValidateRejectsNonFinite: the engine panics when asked
// to schedule events at NaN/Inf times, so Validate must reject every
// non-finite parameter an API caller could smuggle in (JSON cannot
// carry them, but code can).
func TestScenarioValidateRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []Scenario{
		{Warmup: nan, Phases: []Phase{{Kind: PhaseClosed, Duration: 1}}},
		{SampleInterval: inf, Phases: []Phase{{Kind: PhaseClosed, Duration: 1}}},
		{Phases: []Phase{{Kind: PhaseClosed, Duration: nan}}},
		{Phases: []Phase{{Kind: PhaseClosed, Duration: 1, ThinkTime: inf}}},
		{Phases: []Phase{{Kind: PhaseOpen, Duration: 1, Lambda: nan}}},
		{Phases: []Phase{{Kind: PhaseRamp, Duration: 1, Lambda: 1, Lambda2: inf}}},
		{Phases: []Phase{{Kind: PhaseBurst, Duration: 1, Lambda: 5, BurstPeriod: inf}}},
		{Phases: []Phase{{Kind: PhaseClosed, Duration: 1,
			Events: []Event{{At: nan, SetMPL: new(int)}}}}},
		{Phases: []Phase{{Kind: PhaseClosed, Duration: 1,
			Events: []Event{{SetShardSpeed: &ShardSpeedEvent{Shard: 0, Speed: inf}}}}}},
	}
	for i, sc := range cases {
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d: non-finite scenario accepted: %+v", i, sc)
		}
	}
}

// TestChurnScenarioRerunBitIdentical is the fault-model determinism
// gate: a 4-shard system loses one shard mid-burst and gets it back,
// with resubmit recovery (seeded backoff) armed — run twice on one
// System, everything must match bit for bit, including the retry
// timers and availability accounting.
func TestChurnScenarioRerunBitIdentical(t *testing.T) {
	sys, err := NewSystem(Config{
		SetupID: 1, MPL: 12, Seed: 21,
		Shards:   ShardSpec{Count: 4, Dispatch: "jsq"},
		Recovery: &RecoverySpec{Mode: RecoveryResubmit, RetryBudget: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := 3
	sc := Scenario{
		Name:           "churn",
		Warmup:         10,
		SampleInterval: 15,
		Phases: []Phase{
			{Name: "steady", Kind: PhaseOpen, Lambda: 280, Duration: 60},
			{Name: "burst", Kind: PhaseBurst, Lambda: 330, BurstFactor: 2,
				BurstPeriod: 10, Duration: 60,
				Events: []Event{
					{At: 15, ShardFail: &victim},
					{At: 40, ShardRecover: &victim},
				}},
			{Name: "recovered", Kind: PhaseOpen, Lambda: 220, Duration: 60},
		},
	}
	var obs1, obs2 metrics.Collector
	r1, err := sys.Run(context.Background(), sc, &obs1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Run(context.Background(), sc, &obs2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("churn re-run on one System not bit-identical:\n%+v\nvs\n%+v", r1.Total, r2.Total)
	}
	if !reflect.DeepEqual(obs1.Snapshots, obs2.Snapshots) {
		t.Error("churn observer streams differ between re-runs")
	}
	if len(r1.Shards) != 4 {
		t.Fatalf("Shards = %d, want 4", len(r1.Shards))
	}
	// The outage is visible: the victim's availability dips below 1
	// while the survivors stay at 1, and it ends the run back up.
	v := r1.Shards[victim]
	if v.State != "up" {
		t.Errorf("victim final state = %q, want up (recovered)", v.State)
	}
	if v.Availability >= 1 {
		t.Errorf("victim availability = %v, want < 1 (it was down 25s)", v.Availability)
	}
	for i, sr := range r1.Shards {
		if i != victim && sr.Availability != 1 {
			t.Errorf("survivor %d availability = %v, want 1", i, sr.Availability)
		}
	}
	// The fault model actually fired: the burst keeps the victim busy
	// at the kill instant, so work was withdrawn and resubmitted (and
	// with budget 3 on a healthy remainder, nothing is lost).
	if r1.Total.Resubmitted == 0 {
		t.Error("no transactions resubmitted — the kill found an empty shard, weaken the test by raising load")
	}
	if r1.Total.Retries < r1.Total.Resubmitted {
		t.Errorf("retries %d < resubmitted %d", r1.Total.Retries, r1.Total.Resubmitted)
	}
	// A mid-outage snapshot shows the victim down.
	sawDown := false
	for _, s := range obs1.Snapshots {
		if len(s.Shards) == 4 && s.Shards[victim].State == "down" {
			sawDown = true
		}
	}
	if !sawDown {
		t.Error("no snapshot caught the victim in the down state")
	}
}

// fingerprint is one of the fingerprint scenarios: a Config and a
// Scenario lifted verbatim from the repo's determinism tests.
type fingerprint struct {
	name string
	cfg  Config
	sc   Scenario
}

// fingerprints returns the five fingerprint scenarios (the same
// Config+Scenario pairs the determinism gates run). Building them in a
// function keeps each subtest on pristine values.
func fingerprints() []fingerprint {
	slow := ShardSpeedEvent{Shard: 1, Speed: 0.25}
	recover := ShardSpeedEvent{Shard: 1, Speed: 1}
	victim := 3
	return []fingerprint{
		{
			name: "fig7",
			cfg:  Config{SetupID: 1, MPL: 4, Seed: 11},
			sc: Scenario{
				Name:           "accept",
				Warmup:         10,
				SampleInterval: 10,
				Phases: []Phase{
					{Name: "steady", Kind: PhaseClosed, Clients: 50, Duration: 40},
					{Name: "surge", Kind: PhaseRamp, Lambda: 30, Lambda2: 90, Duration: 40},
					{Name: "replay", Kind: PhaseTrace, Duration: 40, TraceSynth: &TraceSynth{
						N: 4000, MeanDemand: 0.008, DemandC2: 2, Lambda: 80, Seed: 5,
					}},
				},
			},
		},
		{
			name: "sharded-dispatch",
			cfg: Config{
				SetupID: 1, MPL: 8, Seed: 21,
				Shards: ShardSpec{Count: 2, Dispatch: "jsq"},
			},
			sc: Scenario{
				Name:           "shard-slowdown",
				Warmup:         10,
				SampleInterval: 10,
				Phases: []Phase{
					{Name: "steady", Kind: PhaseClosed, Clients: 40, Duration: 60,
						Events: []Event{{At: 20, SetShardSpeed: &slow}}},
					{Name: "recovered", Kind: PhaseOpen, Lambda: 40, Duration: 60,
						Events: []Event{{At: 10, SetShardSpeed: &recover, SetDispatch: "lwl"}}},
				},
			},
		},
		{
			name: "slo-shedding",
			cfg:  Config{SetupID: 1, MPL: 12, Seed: 31},
			sc: Scenario{
				Name:           "slo-shedding",
				Warmup:         10,
				SampleInterval: 10,
				Phases: []Phase{
					{Name: "steady", Kind: PhaseOpen, Lambda: 65, Duration: 60,
						Events: []Event{{
							SetSLO:             &SLOSpec{Class: "high", Target: 0.4},
							SetTenantDeadlines: map[string]float64{"low": 1.5},
						}}},
					{Name: "burst", Kind: PhaseBurst, Lambda: 105, BurstFactor: 3, BurstPeriod: 15, Duration: 60},
					{Name: "recover", Kind: PhaseOpen, Lambda: 55, Duration: 60},
				},
			},
		},
		{
			name: "churn",
			cfg: Config{
				SetupID: 1, MPL: 12, Seed: 21,
				Shards:   ShardSpec{Count: 4, Dispatch: "jsq"},
				Recovery: &RecoverySpec{Mode: RecoveryResubmit, RetryBudget: 3},
			},
			sc: Scenario{
				Name:           "churn",
				Warmup:         10,
				SampleInterval: 15,
				Phases: []Phase{
					{Name: "steady", Kind: PhaseOpen, Lambda: 280, Duration: 60},
					{Name: "burst", Kind: PhaseBurst, Lambda: 330, BurstFactor: 2,
						BurstPeriod: 10, Duration: 60,
						Events: []Event{
							{At: 15, ShardFail: &victim},
							{At: 40, ShardRecover: &victim},
						}},
					{Name: "recovered", Kind: PhaseOpen, Lambda: 220, Duration: 60},
				},
			},
		},
		{
			name: "autoscale",
			cfg: Config{
				SetupID: 1, MPL: 12, Seed: 31,
				Shards: ShardSpec{Count: 4, Dispatch: "jsq-d:3"},
			},
			sc: Scenario{
				Name:           "diurnal",
				Warmup:         5,
				SampleInterval: 15,
				Autoscale: &AutoscaleSpec{
					Min: 4, Max: 64,
					Interval:  2,
					HighWater: 6, LowWater: 1.5,
					BreachWindows: 2, CalmWindows: 4,
					Cooldown:    3,
					MPLPerShard: 3,
				},
				Phases: []Phase{
					{Name: "morning", Kind: PhaseRamp, Lambda: 80, Lambda2: 600, Duration: 60},
					{Name: "peak", Kind: PhaseOpen, Lambda: 600, Duration: 40},
					{Name: "evening", Kind: PhaseRamp, Lambda: 600, Lambda2: 50, Duration: 60},
					{Name: "night", Kind: PhaseOpen, Lambda: 50, Duration: 60},
				},
			},
		},
	}
}

// TestChurnRecycling drives transaction-record and profile recycling
// where it is most fragile: closed-loop clients cycling through
// completions, shards crashing at random with in-flight work doomed
// and resubmitted, and deadline sheds in both phases. A record retired
// twice, or reused while a dead shard's DBMS still reads its profile,
// would make a rerun differ from the first run (or trip -race, under
// which CI runs it).
func TestChurnRecycling(t *testing.T) {
	cfg := Config{
		SetupID: 1, MPL: 12, Seed: 41,
		Shards:   ShardSpec{Count: 4, Dispatch: "jsq"},
		Recovery: &RecoverySpec{Mode: RecoveryResubmit, RetryBudget: 2},
	}
	churn := &ChurnSpec{MTBF: 12, MTTR: 3}
	deadlines := []Event{{SetTenantDeadlines: map[string]float64{"low": 0.3}}}
	sc := Scenario{
		Name:           "churn-recycling",
		Warmup:         5,
		SampleInterval: 10,
		Phases: []Phase{
			{Name: "closed", Kind: PhaseClosed, Clients: 80, Duration: 50, Churn: churn, Events: deadlines},
			{Name: "burst", Kind: PhaseBurst, Lambda: 300, BurstFactor: 2, BurstPeriod: 10, Duration: 40, Churn: churn,
				Events: deadlines},
		},
	}
	run := func() Result {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	for _, ph := range first.Phases {
		if r := ph.Report; r.Shed == 0 || r.Resubmitted == 0 || r.Completed == 0 {
			t.Fatalf("phase %s too tame to exercise recycling: %d completed, %d shed, %d resubmitted",
				ph.Name, r.Completed, r.Shed, r.Resubmitted)
		}
	}
	if again := run(); !reflect.DeepEqual(first, again) {
		t.Errorf("rerun differs:\nfirst: %+v\nagain: %+v", first.Total, again.Total)
	}
}

// TestParseScenarioRejectsParallelShards: the parallel engine is gone,
// so a scenario file still carrying parallel_shards fails to parse as
// an unknown field rather than being silently accepted, while the
// per-completion controllers the engine used to refuse parse without
// the key.
func TestParseScenarioRejectsParallelShards(t *testing.T) {
	const tenants = `"tenants":[{"name":"a","share":0.5},{"name":"b","share":0.5}],`
	for name, js := range map[string]string{
		"scenario fairness": `{` + tenants + `"fairness":{"strict":true},
			"phases":[{"kind":"open","duration":5,"lambda":10}]}`,
		"enable_fairness event": `{` + tenants + `
			"phases":[{"kind":"open","duration":5,"lambda":10,"events":[{"at":1,"enable_fairness":{}}]}]}`,
		"enable_controller event": `{
			"phases":[{"kind":"open","duration":5,"lambda":10,"events":[{"at":1,
				"enable_controller":{"max_throughput_loss":0.05,"reference_throughput":90}}]}]}`,
	} {
		if _, err := ParseScenario([]byte(js)); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
		withKey := strings.Replace(js, "{", `{"parallel_shards":true,`, 1)
		_, err := ParseScenario([]byte(withKey))
		if err == nil || !strings.Contains(err.Error(), `unknown field "parallel_shards"`) {
			t.Errorf("%s with parallel_shards: err = %v, want an unknown-field rejection", name, err)
		}
	}
}

// TestClassBreakdownConservation: the per-class breakdown partitions
// its window. For the whole-run report, every phase report and every
// snapshot of the fingerprint scenarios, the classes' completions and
// sheds sum to the window's, and their completion-weighted mean
// response time is the window's mean.
func TestClassBreakdownConservation(t *testing.T) {
	type class struct {
		completed, shed uint64
		mean            float64
	}
	check := func(t *testing.T, what string, completed, shed uint64, mean float64, classes []class) {
		t.Helper()
		var n, s uint64
		var sum float64
		for _, c := range classes {
			n += c.completed
			s += c.shed
			sum += float64(c.completed) * c.mean
		}
		if n != completed {
			t.Errorf("%s: class completions sum to %d, want %d", what, n, completed)
		}
		if s != shed {
			t.Errorf("%s: class sheds sum to %d, want %d", what, s, shed)
		}
		if completed > 0 {
			if got := sum / float64(completed); math.Abs(got-mean) > 1e-9*mean {
				t.Errorf("%s: completion-weighted class mean %v, want %v", what, got, mean)
			}
		}
	}
	checkReport := func(t *testing.T, what string, r Report) {
		t.Helper()
		classes := make([]class, len(r.Classes))
		for i, c := range r.Classes {
			classes[i] = class{c.Completed, c.Shed, c.MeanRT}
		}
		check(t, what, r.Completed, r.Shed, r.MeanRT, classes)
	}

	cases := append(fingerprints(),
		fingerprint{
			name: "tenants",
			cfg:  Config{SetupID: 1, MPL: 8, Seed: 13},
			sc:   tenantScenario(),
		},
		// A closed phase whose clients see crashes, resubmissions and
		// deadline sheds together.
		fingerprint{
			name: "churn-deadlines",
			cfg: Config{
				SetupID: 1, MPL: 12, Seed: 41,
				Shards:        ShardSpec{Count: 4, Dispatch: "jsq"},
				Recovery:      &RecoverySpec{Mode: RecoveryResubmit, RetryBudget: 2},
				AdmitDeadline: &AdmitDeadline{High: 2, Low: 0.3},
			},
			sc: Scenario{
				Name:           "churn-deadlines",
				Warmup:         5,
				SampleInterval: 10,
				Phases: []Phase{{Name: "closed", Kind: PhaseClosed, Clients: 80, Duration: 50,
					Churn: &ChurnSpec{MTBF: 12, MTTR: 3}}},
			},
		})
	for _, fp := range cases {
		t.Run(fp.name, func(t *testing.T) {
			sys, err := NewSystem(fp.cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(context.Background(), fp.sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Total.Completed == 0 || len(res.Snapshots) == 0 {
				t.Fatalf("empty run: %d completions, %d snapshots", res.Total.Completed, len(res.Snapshots))
			}
			checkReport(t, "total", res.Total)
			for _, ph := range res.Phases {
				checkReport(t, "phase "+ph.Name, ph.Report)
			}
			for _, s := range res.Snapshots {
				classes := make([]class, len(s.Classes))
				for i, c := range s.Classes {
					classes[i] = class{c.Completed, c.Shed, c.Mean}
				}
				check(t, fmt.Sprintf("snapshot at %v", s.Time), s.Completed, s.Shed, s.MeanResponse, classes)
			}
		})
	}
}
