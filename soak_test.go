package extsched

import (
	"context"
	"runtime"
	"testing"

	"extsched/metrics"
)

// TestChurnSoakFlatHeap is the nightly leak check for the fault model:
// an eight-shard system runs a long open-load phase under the
// MTBF/MTTR churn generator with resubmit recovery armed, and the
// observer samples the garbage-collected heap as the run progresses.
// Every fault allocates — withdrawn attempts, retry timers, backoff
// RNG state, availability records — so a leak anywhere in the
// fail/recover/resubmit cycle shows up as monotonic heap growth over
// the hundreds of generated faults. The run must end with a heap no
// larger than its early steady state (within tolerance), and the churn
// must actually have fired.
func TestChurnSoakFlatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: long churny run, skipped with -short (nightly runs it in full)")
	}
	const shards = 8
	sys, err := NewSystem(Config{
		SetupID: 1, MPL: 5 * shards, Seed: 33,
		Shards:   ShardSpec{Count: shards, Dispatch: "jsq"},
		Recovery: &RecoverySpec{Mode: RecoveryResubmit, RetryBudget: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// MTBF 40 / MTTR 8 over 1500 simulated seconds generates a few
	// hundred fail/recover cycles; λ is sized so the fleet keeps
	// headroom with the expected one-to-two shards down at a time.
	sc := Scenario{
		Name:           "churn-soak",
		Warmup:         20,
		SampleInterval: 25,
		Phases: []Phase{
			{Name: "soak", Kind: PhaseOpen, Lambda: 400, Duration: 1500,
				Churn: &ChurnSpec{MTBF: 40, MTTR: 8, Seed: 7}},
		},
	}
	var heap []uint64
	obs := metrics.ObserverFunc(func(s metrics.Snapshot) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = append(heap, ms.HeapAlloc)
	})
	res, err := sys.Run(context.Background(), sc, obs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Resubmitted == 0 {
		t.Fatal("soak generated no resubmissions — churn never caught the system busy; raise the load")
	}
	if len(heap) < 16 {
		t.Fatalf("only %d heap samples; need enough to compare early vs late", len(heap))
	}
	// Compare the late-run heap against the early steady state. The
	// first quarter is excluded (warmup and lazily-grown buffers —
	// sketch rings, snapshot slices — are still filling); from
	// there the heap must be flat: mean of the last quarter within 1.5x
	// of the second quarter's mean, plus a small absolute slack so a
	// tiny baseline heap doesn't make the ratio twitchy.
	q := len(heap) / 4
	mean := func(xs []uint64) float64 {
		var sum float64
		for _, x := range xs {
			sum += float64(x)
		}
		return sum / float64(len(xs))
	}
	early := mean(heap[q : 2*q])
	late := mean(heap[3*q:])
	const slack = 4 << 20
	if late > early*1.5+slack {
		t.Errorf("heap grew across the soak: early mean %.0f bytes, late mean %.0f bytes (want late <= 1.5*early + %d)",
			early, late, slack)
	}
	t.Logf("soak: resubmitted %d, retries %d, lost %d; heap early %.1f MiB late %.1f MiB",
		res.Total.Resubmitted, res.Total.Retries, res.Total.Failed,
		early/(1<<20), late/(1<<20))
}

// TestLargeFleetSoakBoundedMetrics is the nightly memory check for the
// N >= 1000 path: a 1000-shard fleet under sampled dispatch runs a
// long open phase, and the garbage-collected heap must stay flat as
// transactions accumulate. The metric state is designed to be bounded
// — every window's per-class response-time sketch is a fixed ring of
// buckets, allocated once and reused across window resets — so heap
// growth proportional to completions would mean one of them regressed
// to O(samples).
func TestLargeFleetSoakBoundedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: long 1000-shard run, skipped with -short (nightly runs it in full)")
	}
	// W_IO-browsing has the smallest buffer pool of the Table 1
	// workloads, which keeps the 1000-backend build affordable.
	const shards = 1000
	sys, err := NewSystem(Config{
		Workload: "W_IO-browsing", MPL: 2 * shards, Seed: 9,
		Shards: ShardSpec{Count: shards, Dispatch: "jsq-d:3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Name:           "large-fleet-soak",
		Warmup:         5,
		SampleInterval: 2,
		Phases: []Phase{
			{Name: "soak", Kind: PhaseOpen, Lambda: 1000, Duration: 80},
		},
	}
	var heap []uint64
	obs := metrics.ObserverFunc(func(s metrics.Snapshot) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = append(heap, ms.HeapAlloc)
	})
	res, err := sys.Run(context.Background(), sc, obs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Completed == 0 {
		t.Fatal("no completions on the large fleet")
	}
	if len(heap) < 16 {
		t.Fatalf("only %d heap samples; need enough to compare early vs late", len(heap))
	}
	// Percentile tracking must actually have run at this scale: the
	// class sketches feed the run-level p95 and each shard's window
	// feeds the shard table.
	if res.Total.P95 <= 0 {
		t.Error("run-level p95 missing")
	}
	withP95 := 0
	for _, sr := range res.Shards {
		if sr.P95 > 0 {
			withP95++
		}
	}
	if withP95 < shards/2 {
		t.Errorf("only %d of %d shards report a p95; sampled dispatch should have fed most of the fleet", withP95, shards)
	}
	// Same flat-heap rule as the churn soak: late-run mean within 1.5x
	// of the early steady state plus a small absolute slack.
	q := len(heap) / 4
	mean := func(xs []uint64) float64 {
		var sum float64
		for _, x := range xs {
			sum += float64(x)
		}
		return sum / float64(len(xs))
	}
	early := mean(heap[q : 2*q])
	late := mean(heap[3*q:])
	const slack = 8 << 20
	if late > early*1.5+slack {
		t.Errorf("heap grew across the soak: early mean %.0f bytes, late mean %.0f bytes (want late <= 1.5*early + %d)",
			early, late, slack)
	}
	t.Logf("large-fleet soak: completed %d, shards with p95 %d; heap early %.1f MiB late %.1f MiB",
		res.Total.Completed, withP95, early/(1<<20), late/(1<<20))
}
