package experiments

// Oracle cross-validation: the discrete-event simulator checked
// against the paper's own analytic models on workloads where those
// models are EXACT, so a disagreement is a bug, not an approximation.
//
// The vehicle is a synthetic workload stripped to one exponential CPU
// burst per transaction — no page accesses (no disk), no lock
// contention (unique cold keys, shared mode), a zero-cost commit log —
// so the DBMS reduces to its CPU: a processor-sharing multi-core
// station. Two classical results then pin the simulator down:
//
//   - Closed machine-repair (M/M/1//N with exponential think): exact
//     MVA over {think delay, CPU queueing} gives the throughput at
//     every population. PS vs FCFS does not matter — the network is
//     product-form either way.
//   - Open M/M/c: with memoryless service, the number-in-system
//     process under egalitarian PS across c cores is the same
//     birth-death chain as FCFS M/M/c (total service rate min(n,c)·μ),
//     so the Erlang-C mean response time applies verbatim.

import (
	"math"
	"testing"

	"extsched/internal/dist"
	"extsched/internal/queueing/mmc"
	"extsched/internal/queueing/mva"
	"extsched/internal/runner"
	"extsched/internal/workload"
)

// oracleSpec is the analytically tractable workload: one transaction
// type, one op, exponential CPU demand with the given mean, nothing
// else.
func oracleSpec(meanDemand float64) workload.Spec {
	return workload.Spec{
		Name:      "oracle-exp",
		Benchmark: "synthetic",
		Types: []workload.TxnType{{
			Name: "unit", Prob: 1, Ops: 1,
			CPUPerOp: dist.NewExponential(meanDemand),
			// PagesPerOp 0: no buffer pool traffic, no disk I/O.
			// WriteFrac 0 + HotKeyProb 0: shared locks on unique cold
			// keys — granted instantly, no contention, no deadlocks.
		}},
		DBPages:         100,
		HotFrac:         0.2,
		HotAccess:       0.8,
		BufferPoolPages: 128,
		DiskService:     dist.NewDeterministic(0.001),
		// A zero-cost commit log write keeps the log device out of the
		// response time (the analytic models know only the CPU).
		LogService: dist.NewDeterministic(0),
		Clients:    100,
	}
}

func oracleSetup(t *testing.T, cpus int, meanDemand float64) workload.Setup {
	t.Helper()
	spec := oracleSpec(meanDemand)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return workload.Setup{Workload: spec, CPUs: cpus, Disks: 1}
}

// TestOracleClosedVsMVA drives the closed machine-repair system — N
// clients, exponential think Z, one PS CPU — and requires the measured
// throughput to match exact MVA within 2% at three population points:
// below the knee, at it, and deep in saturation.
func TestOracleClosedVsMVA(t *testing.T) {
	const (
		demand = 0.01 // mean service, s
		think  = 0.1  // mean think, s
	)
	setup := oracleSetup(t, 1, demand)
	nw, err := mva.NewNetwork([]mva.Station{
		{Name: "think", Demand: think, Kind: mva.Delay},
		{Name: "cpu", Demand: demand}, // CV²=0 means exponential: exact MVA
	})
	if err != nil {
		t.Fatal(err)
	}
	// Populations around the knee N* = (Z+D)/D = 11. The nightly soak
	// (no -short) extends the sweep deeper into saturation and doubles
	// the measured horizon; PR CI runs the -short bounds so the test
	// step stays fast.
	pops := []int{4, 12, 30}
	horizon := 2000.0
	if !testing.Short() {
		pops = append(pops, 60, 100)
		horizon = 4000
	}
	for _, n := range pops {
		out, err := RunPhases(setup, 0, "", workload.DBOptions{},
			RunOpts{Seed: 3, Warmup: 1, Measure: 1, Clients: n}, // explicit spec below
			runner.Scenario{
				Warmup: 100,
				Phases: []runner.Phase{{
					Kind: runner.PhaseClosed, Clients: n, ThinkTime: think, Duration: horizon,
				}},
			})
		if err != nil {
			t.Fatal(err)
		}
		sim := out.Total.Throughput
		model := nw.Throughput(n)
		relErr := math.Abs(sim-model) / model
		t.Logf("N=%2d: sim %8.3f tx/s, MVA %8.3f tx/s, err %.2f%% (%d completions)",
			n, sim, model, 100*relErr, out.Total.Completed)
		if relErr > 0.02 {
			t.Errorf("N=%d: sim throughput %.3f vs MVA %.3f — %.2f%% off, want <= 2%%",
				n, sim, model, 100*relErr)
		}
	}
}

// TestOracleOpenVsMMC drives the open system — Poisson arrivals into a
// 2-core PS CPU with exponential service — and requires the measured
// mean response time to match the M/M/c closed form within the CI-
// derived tolerance (never looser than 5%).
func TestOracleOpenVsMMC(t *testing.T) {
	const (
		demand = 0.01
		cpus   = 2
		rho    = 0.7
	)
	setup := oracleSetup(t, cpus, demand)
	p := mmc.Params{Lambda: rho * float64(cpus) / demand, Mu: 1 / demand, Servers: cpus}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	model := p.MeanResponse()
	horizon := 2000.0
	if !testing.Short() {
		horizon = 6000 // nightly soak: 3x the arrivals, tighter CI
	}
	opts := RunOpts{Seed: 5}
	st, err := runner.NewStack(opts.build(setup, 0, "", workload.DBOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := runner.Run(opts.ctx(), st,
		runner.Scenario{
			Warmup: 100,
			Phases: []runner.Phase{{
				Kind: runner.PhaseOpen, Lambda: p.Lambda, Duration: horizon,
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	sim := out.Total.MeanRT
	// The frontend's own metrics window opened with the measurement
	// window and the engine stopped at its close, so it holds the same
	// response times. Successive arrivals' response times are
	// positively correlated, so inflate the iid CI half-width by a
	// safety factor; the floor keeps the assertion meaningful if the CI
	// collapses.
	all := st.FE.Metrics().All
	if all.Count() != int64(out.Total.Completed) {
		t.Fatalf("frontend window holds %d completions, report %d", all.Count(), out.Total.Completed)
	}
	ci := all.CIHalfWidth(0.95)
	tol := math.Max(5*ci, 0.05*model)
	t.Logf("M/M/%d rho=%.2f: sim E[T]=%.5fs, model %.5fs, |diff|=%.5fs, tol %.5fs (%d completions)",
		cpus, rho, sim, model, math.Abs(sim-model), tol, out.Total.Completed)
	if math.Abs(sim-model) > tol {
		t.Errorf("mean response %.5fs vs M/M/%d %.5fs: |diff| %.5f exceeds tolerance %.5f",
			sim, cpus, model, math.Abs(sim-model), tol)
	}
	// The queueing delay itself must also be visible: the sim is not
	// trivially passing because waiting is negligible.
	if sim <= demand {
		t.Errorf("mean response %.5fs not above the service time %.3fs — no queueing observed", sim, demand)
	}
}
