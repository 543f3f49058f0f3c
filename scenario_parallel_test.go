package extsched

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"extsched/metrics"
)

// parallelFingerprint is one entry in the cross-engine equivalence
// battery: a Config and a Scenario lifted verbatim from the repo's
// fingerprint determinism tests.
type parallelFingerprint struct {
	name string
	cfg  Config
	sc   Scenario
}

// parallelFingerprints returns the five fingerprint scenarios (the
// same Config+Scenario pairs the sequential determinism gates run).
// Building them in a function keeps each subtest on pristine values.
func parallelFingerprints() []parallelFingerprint {
	slow := ShardSpeedEvent{Shard: 1, Speed: 0.25}
	recover := ShardSpeedEvent{Shard: 1, Speed: 1}
	victim := 3
	return []parallelFingerprint{
		{
			name: "fig7",
			cfg:  Config{SetupID: 1, MPL: 4, PercentileSamples: 2000, Seed: 11},
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
			cfg:  Config{SetupID: 1, MPL: 12, PercentileSamples: 2000, Seed: 31},
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

// TestParallelEquivalenceBattery is the tentpole acceptance gate for
// conservative-parallel runs: every fingerprint scenario, run once
// sequentially and once with ParallelShards on (each on a fresh System
// with the same Config), produces a DeepEqual Result and snapshot
// stream. Per-shard streams stay bit-identical because each shard's
// event order is untouched by the decomposition; the aggregate matches
// because the member→coordinator replay reproduces the sequential
// interleaving. Run under -race with -cpu 2,4 in CI, so the window
// workers get real parallelism.
func TestParallelEquivalenceBattery(t *testing.T) {
	for _, fp := range parallelFingerprints() {
		fp := fp
		t.Run(fp.name, func(t *testing.T) {
			t.Parallel()
			seqSys, err := NewSystem(fp.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var seqObs metrics.Collector
			seqRes, err := seqSys.Run(context.Background(), fp.sc, &seqObs)
			if err != nil {
				t.Fatal(err)
			}

			parSys, err := NewSystem(fp.cfg)
			if err != nil {
				t.Fatal(err)
			}
			psc := fp.sc
			psc.ParallelShards = true
			var parObs metrics.Collector
			parRes, err := parSys.Run(context.Background(), psc, &parObs)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(seqRes, parRes) {
				t.Errorf("parallel Result differs from sequential:\nseq: %+v\npar: %+v", seqRes.Total, parRes.Total)
				for i := range seqRes.Shards {
					if i < len(parRes.Shards) && !reflect.DeepEqual(seqRes.Shards[i], parRes.Shards[i]) {
						t.Errorf("shard %d:\nseq: %+v\npar: %+v", i, seqRes.Shards[i], parRes.Shards[i])
					}
				}
			}
			if !reflect.DeepEqual(seqObs.Snapshots, parObs.Snapshots) {
				n := len(seqObs.Snapshots)
				if m := len(parObs.Snapshots); m != n {
					t.Fatalf("snapshot counts differ: seq %d, par %d", n, m)
				}
				for i := range seqObs.Snapshots {
					if !reflect.DeepEqual(seqObs.Snapshots[i], parObs.Snapshots[i]) {
						t.Errorf("snapshot %d differs:\nseq: %+v\npar: %+v", i, seqObs.Snapshots[i], parObs.Snapshots[i])
						break
					}
				}
			}
		})
	}
}

// TestParallelChurnRecycling drives transaction-record and profile
// recycling where it is most fragile: closed-loop clients whose
// completions replay on the coordinator, shards crashing at random
// with in-flight work doomed and resubmitted, and deadline sheds, all
// under ParallelShards. The parallel Result must equal the sequential
// one and a rerun of itself; a record retired on a member goroutine,
// retired twice, or reused while a dead shard's DBMS still reads its
// profile would make them differ (or trip -race, under which CI runs
// it with -cpu 2,4). Deadlines arm only in the open phase: a closed
// phase that combines churn with deadline sheds is a known divergence
// between the two engines (ROADMAP.md).
func TestParallelChurnRecycling(t *testing.T) {
	cfg := Config{
		SetupID: 1, MPL: 12, Seed: 41, PercentileSamples: 2000,
		Shards:   ShardSpec{Count: 4, Dispatch: "jsq"},
		Recovery: &RecoverySpec{Mode: RecoveryResubmit, RetryBudget: 2},
	}
	churn := &ChurnSpec{MTBF: 12, MTTR: 3}
	sc := Scenario{
		Name:           "churn-recycling",
		Warmup:         5,
		SampleInterval: 10,
		Phases: []Phase{
			{Name: "closed", Kind: PhaseClosed, Clients: 80, Duration: 50, Churn: churn},
			{Name: "burst", Kind: PhaseBurst, Lambda: 300, BurstFactor: 2, BurstPeriod: 10, Duration: 40, Churn: churn,
				Events: []Event{{SetTenantDeadlines: map[string]float64{"low": 0.3}}}},
		},
	}
	run := func(parallel bool) Result {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := sc
		s.ParallelShards = parallel
		res, err := sys.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(false)
	tot := seq.Total
	if tot.Shed == 0 || tot.Resubmitted == 0 || tot.Completed == 0 {
		t.Fatalf("scenario too tame to exercise recycling: %d completed, %d shed, %d resubmitted",
			tot.Completed, tot.Shed, tot.Resubmitted)
	}
	par := run(true)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel Result differs from sequential:\nseq: %+v\npar: %+v", seq.Total, par.Total)
	}
	if again := run(true); !reflect.DeepEqual(par, again) {
		t.Errorf("parallel rerun differs:\nfirst: %+v\nagain: %+v", par.Total, again.Total)
	}
}

// TestParallelRerunBitIdentical pins that a parallel run is also
// deterministic against itself: two ParallelShards runs on one System
// are bit-identical, independent of goroutine scheduling.
func TestParallelRerunBitIdentical(t *testing.T) {
	fp := parallelFingerprints()[3] // churn: failures + retries + 4 shards
	sys, err := NewSystem(fp.cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := fp.sc
	sc.ParallelShards = true
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
		t.Errorf("parallel re-run not bit-identical:\n%+v\nvs\n%+v", r1.Total, r2.Total)
	}
	if !reflect.DeepEqual(obs1.Snapshots, obs2.Snapshots) {
		t.Error("parallel observer streams differ between re-runs")
	}
}

// TestParallelControllerRejected pins the documented restriction: the
// feedback controller actuates per completion, so enable_controller
// with parallel_shards must fail scenario validation.
func TestParallelControllerRejected(t *testing.T) {
	sc := Scenario{
		ParallelShards: true,
		Phases: []Phase{
			{Kind: PhaseOpen, Lambda: 10, Duration: 5,
				Events: []Event{{EnableController: &ControllerSpec{MaxThroughputLoss: 0.2}}}},
		},
	}
	if err := sc.Validate(); err == nil {
		t.Fatal("enable_controller with parallel_shards validated, want error")
	}
}

// TestParallelRejectsPerCompletionControllers: every controller that
// actuates per completion is refused under parallel_shards, by the one
// check in scenario validation, whichever way the file arms it.
func TestParallelRejectsPerCompletionControllers(t *testing.T) {
	const tenants = `"tenants":[{"name":"a","share":0.5},{"name":"b","share":0.5}],`
	for name, js := range map[string]string{
		"scenario fairness": `{"parallel_shards":true,` + tenants + `"fairness":{"strict":true},
			"phases":[{"kind":"open","duration":5,"lambda":10}]}`,
		"enable_fairness event": `{"parallel_shards":true,` + tenants + `
			"phases":[{"kind":"open","duration":5,"lambda":10,"events":[{"at":1,"enable_fairness":{}}]}]}`,
		"enable_controller event": `{"parallel_shards":true,
			"phases":[{"kind":"open","duration":5,"lambda":10,"events":[{"at":1,
				"enable_controller":{"max_throughput_loss":0.05,"reference_throughput":90}}]}]}`,
	} {
		_, err := ParseScenario([]byte(js))
		if err == nil || !strings.Contains(err.Error(), "parallel_shards") {
			t.Errorf("%s: err = %v, want a parallel_shards rejection", name, err)
		}
		// The same file without parallel_shards is valid.
		if _, err := ParseScenario([]byte(strings.Replace(js, `"parallel_shards":true,`, "", 1))); err != nil {
			t.Errorf("%s without parallel_shards rejected: %v", name, err)
		}
	}
}
