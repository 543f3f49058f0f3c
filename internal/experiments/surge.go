package experiments

import (
	"fmt"

	"extsched/internal/runner"
	"extsched/internal/workload"
	"extsched/metrics"
)

// SurgeFigure is the scenario engine's showcase: a three-act load
// story on one setup — steady closed-population traffic, then an open
// ramp surging past the no-MPL saturation rate, then bursty MMPP
// arrivals — with the Section 4.3 feedback controller enabled
// throughout. The figure is a time series (one point per sample
// interval): throughput, mean response time, MPL, and external queue
// depth, showing the controller holding throughput while the queue
// absorbs the surge externally.
func SurgeFigure(setupID int, lossFrac float64, opts RunOpts) (*Figure, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(setup)
	// Reference optimum from a no-MPL probe (parallel-safe: one run).
	base, err := RunClosed(setup, 0, "", workload.DBOptions{}, opts)
	if err != nil {
		return nil, err
	}
	ref := base.Throughput
	if ref <= 0 {
		return nil, fmt.Errorf("experiments: degenerate baseline throughput")
	}
	// The controller needs a finite starting MPL; jump-start it from
	// the queueing models, exactly as the AutoTune workflow does.
	start, err := modelMPL(setup, lossFrac, 0)
	if err != nil {
		return nil, err
	}
	seg := opts.Measure
	var col metrics.Collector
	out, err := RunPhases(setup, start, "", workload.DBOptions{}, opts, runner.Scenario{
		Warmup:         opts.Warmup,
		SampleInterval: seg / 10,
		Phases: []runner.Phase{
			{
				Name: "steady", Kind: runner.PhaseClosed, Clients: opts.Clients, Duration: seg,
				Events: []runner.Event{{EnableController: &runner.ControllerSpec{
					MaxThroughputLoss:   lossFrac,
					ReferenceThroughput: ref,
				}}},
			},
			{
				Name: "surge", Kind: runner.PhaseRamp,
				Lambda: 0.5 * ref, Lambda2: 1.3 * ref, Duration: seg,
			},
			{
				Name: "bursty", Kind: runner.PhaseBurst,
				Lambda: 0.7 * ref, BurstFactor: 2, BurstPeriod: seg / 8, Duration: seg,
			},
		},
	}, &col)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "surge",
		Title: fmt.Sprintf("Scenario: steady -> ramp surge -> bursts, setup %d, controller at %g%% loss",
			setupID, lossFrac*100),
	}
	tput := Series{Name: "tput (tx/s)"}
	rt := Series{Name: "meanRT (s)"}
	mpl := Series{Name: "MPL"}
	queue := Series{Name: "queued"}
	for _, s := range col.Snapshots {
		tput.X = append(tput.X, s.Time)
		tput.Y = append(tput.Y, s.Throughput)
		rt.X = append(rt.X, s.Time)
		rt.Y = append(rt.Y, s.MeanResponse)
		mpl.X = append(mpl.X, s.Time)
		mpl.Y = append(mpl.Y, float64(s.Limit))
		queue.X = append(queue.X, s.Time)
		queue.Y = append(queue.Y, float64(s.Queued))
	}
	f.Series = []Series{tput, rt, mpl, queue}
	f.Notes = append(f.Notes,
		fmt.Sprintf("no-MPL reference: %.2f tx/s; controller target >= %.2f tx/s", ref, (1-lossFrac)*ref),
		fmt.Sprintf("final MPL %d after %d controller iterations (converged %v)",
			out.FinalMPL, tuneIterations(out), out.Tune != nil && out.Tune.Converged),
		"expect: during the surge the external queue grows while throughput holds near the target")
	return f, nil
}

func tuneIterations(out runner.Result) int {
	if out.Tune == nil {
		return 0
	}
	return out.Tune.Iterations
}
