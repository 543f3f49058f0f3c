package experiments

import (
	"fmt"

	"extsched/internal/cluster"
	"extsched/internal/core"
	"extsched/internal/runner"
	"extsched/internal/workload"
	"extsched/metrics"
)

// churnOutcome is one recovery-configuration run of the churn figure.
type churnOutcome struct {
	out    runner.Result
	series Series
}

// ChurnFigure is the fault-tolerance headline: kill one of four equal
// shards mid-burst, bring it back later, and compare two ends of the
// recovery spectrum — resubmit+JSQ (in-flight work re-routed to
// survivors with seeded exponential backoff, queue-aware dispatch
// around the hole) against shed+rr (the dead shard's work is lost and
// blind round-robin keeps offering it a share until the dispatcher's
// eligibility filter kicks in).
//
// The figure the comparison makes: with resubmission and queue-aware
// routing the high-class p95 holds through the outage — the survivors
// absorb the re-split MPL and the retried work — while shed+rr pays
// the outage twice, in lost transactions (Failed) and in the backlog
// spike when the shard returns. Series are the windowed high-class
// mean response over time for each configuration; the run-level p95s,
// loss and retry counters land in the notes.
func ChurnFigure(setupID int, opts RunOpts) (*Figure, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(setup)
	// Per-shard nominal capacity from a no-MPL closed probe.
	base, err := RunClosed(setup, 0, "", workload.DBOptions{}, opts)
	if err != nil {
		return nil, err
	}
	ref := base.Throughput
	if ref <= 0 {
		return nil, fmt.Errorf("experiments: degenerate baseline throughput")
	}
	speeds := []float64{1, 1, 1, 1}
	capacity := float64(len(speeds)) * ref
	// Tight per-shard MPL keeps a queue standing at each shard during
	// bursts, so the kill strands real work (queued + in-flight are
	// both withdrawn) instead of landing on an idle frontend.
	const perShardMPL = 3
	mplTotal := perShardMPL * len(speeds)
	seg := opts.Measure
	victim := len(speeds) - 1
	// Each run gets a fresh Scenario: phases carry event slices the runner
	// sorts (and churn-free here, but fresh keeps sweep goroutines
	// independent).
	spec := func() runner.Scenario {
		idx := victim
		return runner.Scenario{
			Warmup:         opts.Warmup,
			SampleInterval: seg / 8,
			Phases: []runner.Phase{
				{
					Name: "steady", Kind: runner.PhaseOpen,
					Lambda: 0.55 * capacity, Duration: seg,
				},
				{
					Name: "burst", Kind: runner.PhaseBurst,
					Lambda: 0.75 * capacity, BurstFactor: 1.5, BurstPeriod: seg / 8,
					Duration: seg,
					Events: []runner.Event{
						{At: 0.3 * seg, ShardFail: &idx},
						{At: 0.7 * seg, ShardRecover: &idx},
					},
				},
				{
					Name: "recovered", Kind: runner.PhaseOpen,
					Lambda: 0.55 * capacity, Duration: seg,
				},
			},
		}
	}
	configs := []struct {
		label    string
		dispatch string
		rp       cluster.RecoveryPolicy
	}{
		{"resubmit+jsq", cluster.PolicyJSQ, cluster.RecoveryPolicy{Resubmit: true, RetryBudget: 3}},
		{"shed+rr", cluster.PolicyRoundRobin, cluster.RecoveryPolicy{}},
	}
	results, err := SweepContext(opts.ctx(), len(configs), func(i int) (churnOutcome, error) {
		c := configs[i]
		b := opts.shardedBuild(setup, speeds, c.dispatch, mplTotal)
		b.Recovery = &c.rp
		st, err := runner.NewStack(b)
		if err != nil {
			return churnOutcome{}, err
		}
		var o churnOutcome
		o.series = Series{Name: "high mean RT " + c.label}
		out, err := runner.Run(opts.ctx(), st, spec(), metrics.ObserverFunc(func(s metrics.Snapshot) {
			o.series.X = append(o.series.X, s.Time)
			o.series.Y = append(o.series.Y, s.Class(1).Mean)
		}))
		if err != nil {
			return churnOutcome{}, err
		}
		o.out = out
		return o, nil
	})
	if err != nil {
		return nil, err
	}

	f := &Figure{
		ID: "churn",
		Title: fmt.Sprintf("Shard churn: shard %d of %d killed mid-burst, setup %d (resubmit+jsq vs shed+rr)",
			victim, len(speeds), setupID),
	}
	high := int(core.ClassHigh)
	for i, c := range configs {
		r := results[i].out.Total
		f.Series = append(f.Series, results[i].series)
		f.Series = append(f.Series, Series{
			Name: "highP95 " + c.label,
			X:    []float64{0},
			Y:    []float64{r.Class(high).P95},
		})
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%s: high p95 %.3gs, throughput %.2f tx/s, failed %d, resubmitted %d, retries %d",
			c.label, r.Class(high).P95, r.Throughput, r.Failed, r.Resubmitted, r.Retries))
	}
	resub, shed := results[0].out.Total, results[1].out.Total
	f.Notes = append(f.Notes,
		fmt.Sprintf("fleet capacity %.2f tx/s; shard %d down from %.3gs to %.3gs of the burst phase",
			capacity, victim, 0.3*seg, 0.7*seg),
		fmt.Sprintf("expect: resubmit+jsq holds the high-class tail (p95 %.3gs vs %.3gs) and loses no work (failed %d vs %d)",
			resub.Class(high).P95, shed.Class(high).P95, resub.Failed, shed.Failed))
	return f, nil
}
