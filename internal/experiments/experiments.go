// Package experiments regenerates every table and figure of the
// paper's evaluation. Each figure has a driver that builds the
// appropriate Table 2 setups on the discrete-event simulator (or the
// analytic models for Figs. 7 and 10), sweeps the MPL, and returns
// named series shaped like the paper's plots. The cmd/benchrunner
// binary and the repository-root benchmarks print them.
//
// # Parallel sweeps
//
// Every driver fans its independent simulation points out through
// Sweep, a worker-pool parallel map that preserves input order:
//
//	tputs, err := experiments.Sweep(len(mpls), func(i int) (float64, error) {
//		r, err := experiments.RunClosed(setup, mpls[i], "", workload.DBOptions{}, opts)
//		if err != nil {
//			return 0, err
//		}
//		return r.Throughput, nil
//	})
//
// Each point builds a private stack through runner.NewStack (its own
// sim.Engine, DBMS and seed-derived RNG streams), so points share no
// state and the merged results are bit-identical to a sequential loop
// (see TestSweepDeterminism). The pool size comes from DefaultWorkers
// (0 = GOMAXPROCS; 1 forces the sequential path); SweepWorkers takes
// an explicit size. See EXPERIMENTS.md for how to regenerate figures
// and benchmark flags.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"extsched/internal/runner"
	"extsched/internal/workload"
	"extsched/metrics"
)

// Series is one named curve: Y[i] measured at X[i].
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a regenerated paper figure or table.
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Notes  []string
}

// Format renders the figure as an aligned text table (x column plus
// one column per series).
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Series) == 0 {
		return b.String()
	}
	// Union of X values in first-series order (series usually share X).
	base := f.Series[0]
	fmt.Fprintf(&b, "%10s", "x")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %22s", s.Name)
	}
	b.WriteByte('\n')
	for i := range base.X {
		fmt.Fprintf(&b, "%10.3g", base.X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, " %22.4g", s.Y[i])
			} else {
				fmt.Fprintf(&b, " %22s", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as comma-separated values.
func (f *Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", f.ID, f.Title)
	b.WriteString("x")
	for _, s := range f.Series {
		b.WriteString("," + s.Name)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	base := f.Series[0]
	for i := range base.X {
		fmt.Fprintf(&b, "%g", base.X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, ",%g", s.Y[i])
			} else {
				b.WriteString(",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RunOpts tunes simulation horizons. Zero values take defaults scaled
// for CI-quality results; raise them for smoother curves.
type RunOpts struct {
	// Warmup is discarded simulated seconds. Default: enough for ~500
	// transactions at the setup's saturation rate, minimum 20 s.
	Warmup float64
	// Measure is the measured window in simulated seconds. Default:
	// enough for ~3000 transactions, minimum 100 s.
	Measure float64
	// Clients is the closed-system population; default 100 (paper).
	Clients int
	// QueueLimit, when > 0, switches the frontend to admission-control
	// mode: arrivals beyond the limit are dropped (the related-work
	// comparison of the ablations; pure external scheduling never
	// drops).
	QueueLimit int
	// Seed drives all randomness.
	Seed uint64
	// Ctx, when non-nil, cancels figure sweeps early: every Sweep a
	// driver fans out checks it between points (see SweepContext).
	// cmd/benchrunner wires SIGINT/SIGTERM here so a long "-exp all"
	// run dies cleanly at the first interrupt.
	Ctx context.Context
}

// ctx resolves the sweep context (Background when unset).
func (o RunOpts) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

func (o RunOpts) withDefaults(setup workload.Setup) RunOpts {
	if o.Clients <= 0 {
		o.Clients = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Warmup <= 0 || o.Measure <= 0 {
		cpuD, ioD := setup.Demands()
		perTxn := cpuD/float64(setup.CPUs) + ioD/float64(setup.Disks)
		rate := 1.0
		if perTxn > 0 {
			rate = 1 / perTxn // rough saturation throughput
		}
		if o.Warmup <= 0 {
			o.Warmup = 500 / rate
			if o.Warmup < 20 {
				o.Warmup = 20
			}
		}
		if o.Measure <= 0 {
			o.Measure = 3000 / rate
			if o.Measure < 100 {
				o.Measure = 100
			}
		}
	}
	return o
}

// RunResult is one measured run: the setup and MPL it ran at, and the
// runner's report of exactly the measurement window (utilizations and
// lock counters included — the warmup is excluded everywhere).
type RunResult struct {
	Setup workload.Setup
	MPL   int
	runner.Report
}

// build describes a harness run at the given MPL, queue policy (by
// core.NewPolicy name; "" = FIFO) and DB options for runner.NewStack.
func (o RunOpts) build(setup workload.Setup, mpl int, policy string, dbo workload.DBOptions) runner.Build {
	return runner.Build{Setup: setup, DB: dbo, MPL: mpl, Policy: policy, QueueLimit: o.QueueLimit, Seed: o.Seed}
}

// RunPhases measures a setup under an arbitrary phased scenario — the
// general entry every specialized Run* helper builds on, and the one
// scenario-shaped figures (Surge) drive directly. Observers receive
// one windowed snapshot per sc.SampleInterval.
func RunPhases(setup workload.Setup, mpl int, policy string, dbo workload.DBOptions, opts RunOpts, sc runner.Scenario, obs ...metrics.Observer) (runner.Result, error) {
	st, err := runner.NewStack(opts.build(setup, mpl, policy, dbo))
	if err != nil {
		return runner.Result{}, err
	}
	return runner.Run(opts.ctx(), st, sc, obs...)
}

// runOne measures a single-phase scenario and shapes it as a RunResult.
func runOne(setup workload.Setup, mpl int, policy string, dbo workload.DBOptions, opts RunOpts, ph runner.Phase) (RunResult, error) {
	out, err := RunPhases(setup, mpl, policy, dbo, opts, runner.Scenario{
		Warmup: opts.Warmup,
		Phases: []runner.Phase{ph},
	})
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{Setup: setup, MPL: mpl, Report: out.Total}, nil
}

// RunClosed measures a Table 2 setup at the given MPL (0 = no limit)
// under the paper's closed system, with the named external queue
// policy ("" = FIFO) and DB options.
func RunClosed(setup workload.Setup, mpl int, policy string, dbo workload.DBOptions, opts RunOpts) (RunResult, error) {
	opts = opts.withDefaults(setup)
	return runOne(setup, mpl, policy, dbo, opts, runner.Phase{
		Kind: runner.PhaseClosed, Clients: opts.Clients, Duration: opts.Measure,
	})
}

// RunOpen measures a setup under Poisson arrivals at the given rate.
// The report covers exactly the measured window: transactions still
// queued or executing when it closes are not counted (the runner's
// windowing rule).
func RunOpen(setup workload.Setup, mpl int, lambda float64, policy string, dbo workload.DBOptions, opts RunOpts) (RunResult, error) {
	opts = opts.withDefaults(setup)
	return runOne(setup, mpl, policy, dbo, opts, runner.Phase{
		Kind: runner.PhaseOpen, Lambda: lambda, Duration: opts.Measure,
	})
}

// ThroughputVsMPL sweeps the MPL for one setup on the parallel Sweep
// pool and returns the throughput curve (the building block of
// Figs. 2–5). Each MPL point runs on its own engine with the same
// seed, so the curve is bit-identical to a sequential sweep.
func ThroughputVsMPL(setupID int, mpls []int, opts RunOpts) (Series, error) {
	series, err := throughputGrid([]int{setupID}, mpls, opts)
	if err != nil {
		return Series{}, err
	}
	return series[0], nil
}

// defaultMPLs is the sweep grid used by the throughput figures.
func defaultMPLs(max int) []int {
	var out []int
	for m := 1; m <= max; {
		out = append(out, m)
		switch {
		case m < 10:
			m++
		case m < 30:
			m += 2
		default:
			m += 5
		}
	}
	return out
}
