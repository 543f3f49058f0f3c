package runner

import (
	"context"
	"reflect"
	"testing"

	"extsched/internal/core"
	"extsched/internal/workload"
	"extsched/metrics"
)

// TestIntervalBurstLeavesNextSnapshotP95: interval snapshots carry the
// interval's own percentiles, so an overload burst confined to one
// interval (it arrives and drains inside it) lifts that snapshot's p95
// and is gone from the next one, while the whole run's p95 still
// shows it.
func TestIntervalBurstLeavesNextSnapshotP95(t *testing.T) {
	st := testStack(t, 5, 4)
	var col metrics.Collector
	out, err := Run(context.Background(), st, Scenario{
		Warmup:         5,
		SampleInterval: 20,
		Phases: []Phase{
			{Name: "quiet", Kind: PhaseOpen, Lambda: 15, Duration: 40},
			{Name: "burst", Kind: PhaseOpen, Lambda: 150, Duration: 6},
			{Name: "after", Kind: PhaseOpen, Lambda: 15, Duration: 54},
		},
	}, &col)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Snapshots) != 5 {
		t.Fatalf("%d snapshots, want 5", len(col.Snapshots))
	}
	for _, s := range col.Snapshots {
		t.Logf("t=%v: completed %d p50 %.3f p95 %.3f p99 %.3f", s.Time, s.Completed, s.P50, s.P95, s.P99)
		if !(s.P50 > 0 && s.P50 <= s.P95 && s.P95 <= s.P99) {
			t.Errorf("t=%v: percentiles %v/%v/%v not positive and ordered", s.Time, s.P50, s.P95, s.P99)
		}
	}
	// Snapshot 2 covers (45, 65]: the burst at 45-51 and its drain.
	quiet, burst, next := col.Snapshots[1], col.Snapshots[2], col.Snapshots[3]
	if burst.P95 < 10*quiet.P95 {
		t.Fatalf("burst interval p95 %v not above 10x the quiet p95 %v; the burst does not overload", burst.P95, quiet.P95)
	}
	if next.P95 > 2*quiet.P95 {
		t.Errorf("p95 %v in the interval after the burst, quiet %v: the burst did not drop out", next.P95, quiet.P95)
	}
	if out.Total.P95 < 10*next.P95 {
		t.Errorf("run p95 %v does not show the burst (next interval %v)", out.Total.P95, next.P95)
	}
}

// TestShardSketchesMergeToRunSketch: on a sharded run each shard keeps
// its own window, and the shard windows merge into the run's window
// exactly — the per-class sketches bucket for bucket — so the fleet
// percentiles are those of every shard's completions together.
func TestShardSketchesMergeToRunSketch(t *testing.T) {
	setup, err := workload.SetupByID(1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStack(Build{Setup: setup, MPL: 12, Shards: 3, Speeds: []float64{1, 1.5, 2}, Dispatch: "jsq-d:2", Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	r := &run{st: st, sc: &Scenario{
		Warmup:         5,
		SampleInterval: 10,
		Phases:         []Phase{{Kind: PhaseBurst, Lambda: 60, BurstFactor: 3, BurstPeriod: 10, Duration: 60}},
	}}
	out, err := r.execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var merged core.Metrics
	for i := range r.shardTotal {
		if r.shardTotal[i].Completed == 0 {
			t.Fatalf("shard %d completed nothing", i)
		}
		merged.Merge(&r.shardTotal[i])
	}
	if merged.Completed != r.total.Completed || len(merged.Classes) != len(r.total.Classes) {
		t.Fatalf("shards merge to %d completions in %d classes, run has %d in %d",
			merged.Completed, len(merged.Classes), r.total.Completed, len(r.total.Classes))
	}
	for i, cm := range merged.Classes {
		if !reflect.DeepEqual(cm.Sketch, r.total.Classes[i].Sketch) {
			t.Errorf("class %d: merged shard sketch differs from the run's", cm.Class)
		}
	}
	p50, p95, p99 := percentiles(&merged, &r.scratch)
	if p50 != out.Total.P50 || p95 != out.Total.P95 || p99 != out.Total.P99 {
		t.Errorf("merged shard percentiles %v/%v/%v, run %v/%v/%v", p50, p95, p99, out.Total.P50, out.Total.P95, out.Total.P99)
	}
	for _, sr := range out.Shards {
		if sr.P95 <= 0 || sr.P50 > sr.P95 {
			t.Errorf("shard %d percentiles p50 %v p95 %v", sr.Shard, sr.P50, sr.P95)
		}
	}
}
