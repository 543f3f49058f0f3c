package experiments

import (
	"reflect"
	"testing"

	"extsched/internal/workload"
)

// TestDispatchJSQBeatsRR is the sharded-dispatch acceptance test:
// under 4x heterogeneous shard speeds and heavy offered load, JSQ
// achieves at least round-robin's aggregate throughput with a lower
// p95 — round-robin keeps feeding the 4x-slow shard a full quarter of
// the traffic, which its capacity cannot absorb.
func TestDispatchJSQBeatsRR(t *testing.T) {
	setup, err := workload.SetupByID(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{Warmup: 20, Measure: 120, Seed: 1}
	base, err := RunClosed(setup, 0, "", workload.DBOptions{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := base.Throughput
	speeds := []float64{1, 1, 1, 0.25}
	capacity := 3.25 * ref
	lambda := 0.85 * capacity
	rr, err := RunDispatch(setup, speeds, "rr", 40, lambda, opts)
	if err != nil {
		t.Fatal(err)
	}
	jsq, err := RunDispatch(setup, speeds, "jsq", 40, lambda, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rr:  tput %.2f p95 %.3f", rr.Throughput, rr.P95)
	t.Logf("jsq: tput %.2f p95 %.3f", jsq.Throughput, jsq.P95)
	if jsq.Throughput < rr.Throughput {
		t.Errorf("JSQ throughput %.2f < RR %.2f under heterogeneous shards", jsq.Throughput, rr.Throughput)
	}
	if jsq.P95 >= rr.P95 {
		t.Errorf("JSQ p95 %.3f not below RR p95 %.3f", jsq.P95, rr.P95)
	}
	// The routing imbalance is visible per shard: RR gives the slow
	// shard ~1/4 of arrivals; JSQ gives it less.
	if len(rr.Shards) != 4 || len(jsq.Shards) != 4 {
		t.Fatalf("shard reports: rr=%d jsq=%d, want 4", len(rr.Shards), len(jsq.Shards))
	}
	if rr.Shards[3].Dispatched <= jsq.Shards[3].Dispatched {
		t.Errorf("slow shard arrivals: rr=%d jsq=%d, want rr > jsq",
			rr.Shards[3].Dispatched, jsq.Shards[3].Dispatched)
	}
}

// TestDispatchDeterministic: a sharded dispatch run is bit-identical
// across rebuilds, like every other run in the repository.
func TestDispatchDeterministic(t *testing.T) {
	setup, err := workload.SetupByID(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{Warmup: 5, Measure: 30, Seed: 7}
	a, err := RunDispatch(setup, []float64{1, 0.5}, "lwl", 8, 60, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDispatch(setup, []float64{1, 0.5}, "lwl", 8, 60, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sharded dispatch runs differ:\n%+v\nvs\n%+v", a, b)
	}
}
