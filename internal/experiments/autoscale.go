package experiments

import (
	"fmt"

	"extsched/internal/core"
	"extsched/internal/runner"
	"extsched/internal/workload"
	"extsched/metrics"
)

// autoscaleOutcome is one fleet-configuration run of the autoscale
// figure.
type autoscaleOutcome struct {
	out   runner.Result
	rt    Series // windowed high-class mean response over time
	fleet Series // Up fleet size over time
}

// AutoscaleFigure is the fleet-elasticity headline: a diurnal load
// curve (morning ramp-up, midday peak, evening ramp-down, overnight
// trough) served two ways — an autoscaled fleet that starts at the
// floor and lets the hysteresis controller grow it into the peak and
// shrink it back, versus a fixed fleet provisioned for the peak the
// whole time. Both use sampled power-of-d dispatch ("jsq-d"), the
// policy that keeps per-transaction routing O(d) no matter how large
// the controller grows the fleet.
//
// The figure the comparison makes: the autoscaled fleet tracks the
// load curve (the fleet-size series is the diurnal shape, quantized by
// hysteresis), holds the high-class tail within tolerance of the fixed
// fleet at the peak, and pays for far fewer shard-seconds — the
// capacity bill is the point of scaling down.
func AutoscaleFigure(setupID int, opts RunOpts) (*Figure, error) {
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
	const (
		nMin, nMax  = 2, 8
		perShardMPL = 3
	)
	capacity := float64(nMax) * ref
	seg := opts.Measure
	// A tight cadence with a low breach bar: on a ramp, capacity that
	// arrives late is a queue that lingers in the tail, so the
	// controller is tuned to lead the load curve (scale up after two
	// short breach windows) and lag it on the way down (six calm
	// windows before shrinking).
	asc := &runner.AutoscaleSpec{
		Min: nMin, Max: nMax,
		Interval:  seg / 80,
		HighWater: perShardMPL + 1, LowWater: 1,
		BreachWindows: 2, CalmWindows: 6,
		Cooldown:    seg / 80,
		MPLPerShard: perShardMPL,
	}
	// The diurnal curve: trough load a fixed fleet wastes capacity on,
	// a peak that needs most of nMax.
	spec := func(a *runner.AutoscaleSpec) runner.Scenario {
		return runner.Scenario{
			Warmup:         opts.Warmup,
			SampleInterval: seg / 10,
			Autoscale:      a,
			Phases: []runner.Phase{
				{Name: "morning", Kind: runner.PhaseRamp,
					Lambda: 0.1 * capacity, Lambda2: 0.65 * capacity, Duration: seg},
				{Name: "peak", Kind: runner.PhaseOpen,
					Lambda: 0.65 * capacity, Duration: seg / 2},
				{Name: "evening", Kind: runner.PhaseRamp,
					Lambda: 0.65 * capacity, Lambda2: 0.1 * capacity, Duration: seg},
				{Name: "night", Kind: runner.PhaseOpen,
					Lambda: 0.1 * capacity, Duration: seg / 2},
			},
		}
	}
	configs := []struct {
		label  string
		shards int
		asc    *runner.AutoscaleSpec
	}{
		{"autoscaled", nMin, asc},
		{"fixed", nMax, nil},
	}
	results, err := SweepContext(opts.ctx(), len(configs), func(i int) (autoscaleOutcome, error) {
		c := configs[i]
		speeds := make([]float64, c.shards)
		for j := range speeds {
			speeds[j] = 1
		}
		st, err := runner.NewStack(opts.shardedBuild(setup, speeds, "jsq-d:3", perShardMPL*c.shards))
		if err != nil {
			return autoscaleOutcome{}, err
		}
		var o autoscaleOutcome
		o.rt = Series{Name: "high mean RT " + c.label}
		o.fleet = Series{Name: "fleet size " + c.label}
		out, err := runner.Run(opts.ctx(), st, spec(c.asc), metrics.ObserverFunc(func(s metrics.Snapshot) {
			o.rt.X = append(o.rt.X, s.Time)
			o.rt.Y = append(o.rt.Y, s.Class(1).Mean)
			o.fleet.X = append(o.fleet.X, s.Time)
			o.fleet.Y = append(o.fleet.Y, float64(s.FleetUp))
		}))
		if err != nil {
			return autoscaleOutcome{}, err
		}
		o.out = out
		return o, nil
	})
	if err != nil {
		return nil, err
	}

	f := &Figure{
		ID: "autoscale",
		Title: fmt.Sprintf("Autoscaled fleet [%d,%d] vs fixed fleet of %d on a diurnal curve, setup %d (jsq-d dispatch)",
			nMin, nMax, nMax, setupID),
	}
	for i, c := range configs {
		r := results[i].out.Total
		f.Series = append(f.Series, results[i].rt, results[i].fleet)
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%s: high p95 %.3gs, throughput %.2f tx/s, completed %d",
			c.label, r.Class(int(core.ClassHigh)).P95, r.Throughput, r.Completed))
	}
	auto, fixed := results[0].out, results[1].out
	rep := auto.Autoscale
	if rep == nil {
		return nil, fmt.Errorf("experiments: autoscaled run produced no autoscale report")
	}
	fixedBill := float64(nMax) * fixed.Total.SimSeconds
	f.Notes = append(f.Notes,
		fmt.Sprintf("autoscaler: %d scale-ups, %d scale-downs, fleet peaked at %d, ended at %d",
			rep.ScaleUps, rep.ScaleDowns, rep.PeakFleet, rep.FinalFleet),
		fmt.Sprintf("capacity bill: %.0f shard-seconds autoscaled vs %.0f fixed (%.0f%% saved)",
			rep.ShardSeconds, fixedBill, 100*(1-rep.ShardSeconds/fixedBill)),
		fmt.Sprintf("expect: the fleet-size series tracks the diurnal curve and the high-class p95 stays comparable (%.3gs vs %.3gs) while the bill drops",
			auto.Total.Class(int(core.ClassHigh)).P95, fixed.Total.Class(int(core.ClassHigh)).P95))
	return f, nil
}
