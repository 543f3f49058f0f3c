package experiments

import (
	"fmt"

	"extsched/internal/runner"
	"extsched/internal/workload"
)

// ControllerRun is the outcome of one controller convergence trial.
type ControllerRun struct {
	SetupID    int
	StartMPL   int // queueing-model jump-start
	FinalMPL   int
	Iterations int
	Converged  bool
}

// RunController executes the Section 4.3 loop on one setup: model
// jump-start, then observation/reaction until convergence (or the
// simulation horizon ends). jumpStart=false ablates the queueing
// models and starts the loop at MPL 1 instead (the comparison that
// motivates the jump-start).
func RunController(setupID int, lossFrac float64, jumpStart bool, opts RunOpts) (ControllerRun, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return ControllerRun{}, err
	}
	opts = opts.withDefaults(setup)
	// Reference optimum from a no-MPL probe run (the deployed tool
	// would use the models or an initial calibration run the same way).
	base, err := RunClosed(setup, 0, "", workload.DBOptions{}, opts)
	if err != nil {
		return ControllerRun{}, err
	}
	start := 1
	if jumpStart {
		start, err = modelMPL(setup, lossFrac, 0)
		if err != nil {
			return ControllerRun{}, err
		}
	}
	// A controller-enable event at the window's start hands the MPL to
	// the feedback loop; observation windows are CI-gated, so their
	// length adapts to the workload's noise — give the loop a generous
	// horizon and stop at convergence.
	out, err := RunPhases(setup, start, "", workload.DBOptions{}, opts, runner.Scenario{
		Warmup:         opts.Warmup,
		SampleInterval: opts.Measure / 10, // convergence-check granularity
		Phases: []runner.Phase{{
			Kind: runner.PhaseClosed, Clients: opts.Clients, Duration: 20 * opts.Measure,
			Events: []runner.Event{{EnableController: &runner.ControllerSpec{
				MaxThroughputLoss:   lossFrac,
				ReferenceThroughput: base.Throughput,
				StopOnConverge:      true,
			}}},
		}},
	})
	if err != nil {
		return ControllerRun{}, err
	}
	return ControllerRun{
		SetupID:    setupID,
		StartMPL:   start,
		FinalMPL:   out.Tune.FinalMPL,
		Iterations: out.Tune.Iterations,
		Converged:  out.Tune.Converged,
	}, nil
}

// ControllerFigure runs the convergence experiment across setups and
// reports iterations-to-convergence. The paper: the jump-started
// controller converges in fewer than 10 iterations on every setup.
func ControllerFigure(setupIDs []int, lossFrac float64, jumpStart bool, opts RunOpts) (*Figure, error) {
	if setupIDs == nil {
		for i := 1; i <= 17; i++ {
			setupIDs = append(setupIDs, i)
		}
	}
	label := "jump-started"
	if !jumpStart {
		label = "cold-started (ablation)"
	}
	f := &Figure{
		ID:    "controller",
		Title: fmt.Sprintf("Controller convergence, %s, %g%% loss target", label, lossFrac*100),
	}
	iters := Series{Name: "iterations"}
	finals := Series{Name: "final MPL"}
	starts := Series{Name: "start MPL"}
	allUnder10 := true
	// Each convergence trial owns its engine, frontend, and controller,
	// so the setups fan out across the sweep pool.
	results, err := SweepContext(opts.ctx(), len(setupIDs), func(i int) (ControllerRun, error) {
		r, err := RunController(setupIDs[i], lossFrac, jumpStart, opts)
		if err != nil {
			return ControllerRun{}, fmt.Errorf("setup %d: %w", setupIDs[i], err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, id := range setupIDs {
		r := results[i]
		x := float64(id)
		iters.X = append(iters.X, x)
		iters.Y = append(iters.Y, float64(r.Iterations))
		finals.X = append(finals.X, x)
		finals.Y = append(finals.Y, float64(r.FinalMPL))
		starts.X = append(starts.X, x)
		starts.Y = append(starts.Y, float64(r.StartMPL))
		if !r.Converged || r.Iterations >= 10 {
			allUnder10 = false
		}
	}
	f.Series = []Series{starts, finals, iters}
	if jumpStart {
		f.Notes = append(f.Notes, fmt.Sprintf("all setups converged in <10 iterations: %v (paper: yes)", allUnder10))
	}
	return f, nil
}
