// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one Benchmark per table/figure), plus micro-benchmarks
// of the core building blocks. Figure benches print their series to
// stdout so `go test -bench=. -benchmem | tee bench_output.txt`
// captures the reproduced data; EXPERIMENTS.md records the comparison
// against the paper.
//
// Figure benches use reduced-but-stable horizons so the full suite
// completes in minutes; cmd/benchrunner regenerates any figure with
// custom horizons.
package extsched_test

import (
	"fmt"
	"testing"

	"extsched/internal/dist"
	"extsched/internal/experiments"
	"extsched/internal/lockmgr"
	"extsched/internal/queueing/ctmc"
	"extsched/internal/queueing/mva"
	"extsched/internal/queueing/qbd"
	"extsched/internal/sim"
	"extsched/internal/workload"
)

// benchOpts keeps simulated figures affordable in bench runs.
var benchOpts = experiments.RunOpts{Warmup: 30, Measure: 200, Seed: 1}

func printFigure(b *testing.B, fig *experiments.Figure, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	fmt.Print(fig.Format())
}

// BenchmarkTable2Setups regenerates Table 2 (the 17 setups) and
// measures per-setup construction cost.
func BenchmarkTable2Setups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		setups := workload.Table2()
		if len(setups) != 17 {
			b.Fatal("Table 2 must have 17 setups")
		}
	}
	b.StopTimer()
	if b.N > 0 {
		for _, s := range workload.Table2() {
			cpu, io := s.Demands()
			fmt.Printf("%-55s cpuD=%.4fs ioD=%.4fs\n", s.String(), cpu, io)
		}
	}
}

// BenchmarkFigure2 reproduces Fig. 2: throughput vs MPL for the
// CPU-bound workloads, 1 vs 2 CPUs.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure2(benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkFigure3 reproduces Fig. 3: throughput vs MPL for the
// IO-bound workloads, 1-4 disks.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure3(benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkFigure4 reproduces Fig. 4: the balanced CPU+IO workload.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure4(benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkFigure5 reproduces Fig. 5: lock-bound workloads, RR vs UR.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure5(benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkFigure7 reproduces Fig. 7: the MVA model's throughput-vs-MPL
// curves for 1-16 disks with the linear 80%/95% loci.
func BenchmarkFigure7(b *testing.B) {
	var fig *experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.Figure7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// The full 100-point curves are long; print the loci and notes only.
	fmt.Printf("== %s ==\n", fig.Title)
	for _, s := range fig.Series {
		if s.Name == "minMPL@80%" || s.Name == "minMPL@95%" {
			fmt.Printf("%12s:", s.Name)
			for i := range s.X {
				fmt.Printf(" %gdisks=%g", s.X[i], s.Y[i])
			}
			fmt.Println()
		}
	}
	for _, n := range fig.Notes {
		fmt.Println("note:", n)
	}
}

// BenchmarkFigure10 reproduces Fig. 10: QBD mean response time vs MPL
// for C² in {2,5,10,15} + PS at loads 0.7 and 0.9.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure10()
		printFigure(b, fig, err)
	}
}

// BenchmarkSection32RT reproduces the Section 3.2 open-system result:
// mean RT vs MPL for a high-variability workload at 70% utilization.
func BenchmarkSection32RT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Section32RT(3, 0.7, []int{1, 2, 4, 8, 15, 25}, benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkSection32Summary reproduces the §3.2 headline table: min
// MPL for near-optimal mean RT per benchmark family and load.
func BenchmarkSection32Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Section32Summary(0.15, benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkC2Table reproduces the Section 3.2 variability table:
// C² per workload vs the synthetic production traces.
func BenchmarkC2Table(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.C2Figure(100000, 1)
		printFigure(b, fig, err)
	}
}

// BenchmarkFigure11at5 reproduces Fig. 11 (top): external
// prioritization across all 17 setups, MPL set for 5% loss.
func BenchmarkFigure11at5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure11(0.05, nil, benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkFigure11at20 reproduces Fig. 11 (bottom): the 20%-loss MPLs.
func BenchmarkFigure11at20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure11(0.20, nil, benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkFigure12 reproduces Fig. 12: internal (POW lock priority)
// vs external prioritization on the lock-bound setup 1.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.FigureInternal(1, benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkFigure13 reproduces Fig. 13: internal (CPU priority) vs
// external prioritization on the CPU-bound setup 3.
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.FigureInternal(3, benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkControllerConvergence reproduces the Section 4.3 claim:
// the jump-started controller converges in <10 iterations per setup.
// (A subset of setups keeps the bench affordable; cmd/benchrunner
// runs all 17.)
func BenchmarkControllerConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ControllerFigure([]int{1, 2, 5, 8, 11, 13}, 0.05, true, benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkControllerAblation is the no-jump-start ablation: starting
// at MPL 1 instead of the model prediction costs extra iterations.
func BenchmarkControllerAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ControllerFigure([]int{5, 8, 12}, 0.05, false, benchOpts)
		printFigure(b, fig, err)
	}
}

// ---- ablation benchmarks (design choices DESIGN.md calls out) ----

// BenchmarkAblationGroupCommit: effect of batching commit log writes
// on the update-heavy CPU-bound workload.
func BenchmarkAblationGroupCommit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.GroupCommitAblation(1, []int{1, 5, 20}, benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkAblationPOW: plain priority lock queues vs full
// Preempt-on-Wait.
func BenchmarkAblationPOW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.POWAblation(benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkAblationPolicy: FIFO vs SJF vs Priority external queues on
// the high-variability workload at a low MPL.
func BenchmarkAblationPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.PolicyComparison(3, 3, benchOpts)
		printFigure(b, fig, err)
	}
}

// BenchmarkAblationAdmission: external scheduling vs the drop-based
// admission control the paper distinguishes itself from.
func BenchmarkAblationAdmission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.AdmissionComparison(1, 5, 20, 0.9, benchOpts)
		printFigure(b, fig, err)
	}
}

// ---- micro-benchmarks of the substrates ----

// BenchmarkEngineSchedule measures the schedule→fire hot path of the
// kernel: one event scheduled and fired per op against a standing
// population of pending events. The free-list event pool and the
// concrete-typed 4-ary heap make the steady state allocation-free
// (the seed container/heap kernel paid one Event allocation plus
// interface boxing per op); EXPERIMENTS.md records the comparison.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := sim.NewEngine()
	fn := func() {}
	// Standing population so heap sift costs are realistic.
	for i := 0; i < 1024; i++ {
		eng.After(float64(i)+0.5, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(0.25, fn)
		eng.Step()
	}
}

// BenchmarkEngineScheduleCancel measures the schedule→cancel→discard
// path, which recycles records without firing them.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	eng := sim.NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := eng.After(1, fn)
		eng.Cancel(h)
		eng.Run(eng.Now()) // collects the canceled head without firing
	}
}

// BenchmarkSweepParallel measures figure-generation fan-out: the same
// 2-setup throughput grid swept sequentially (workers=1) and on the
// full worker pool. The parallel/sequential ns/op ratio should
// approach 1/GOMAXPROCS for grids wider than the pool.
func BenchmarkSweepParallel(b *testing.B) {
	grid := experiments.RunOpts{Warmup: 5, Measure: 40, Seed: 1}
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			prev := experiments.DefaultWorkers
			experiments.DefaultWorkers = tc.workers
			defer func() { experiments.DefaultWorkers = prev }()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Figure4(grid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineEvents measures raw event throughput of the DES core.
func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	var tick func()
	count := 0
	tick = func() {
		count++
		if count < b.N {
			eng.After(1, tick)
		}
	}
	eng.After(1, tick)
	b.ResetTimer()
	eng.RunAll()
}

// BenchmarkLockAcquireRelease measures uncontended lock overhead.
func BenchmarkLockAcquireRelease(b *testing.B) {
	eng := sim.NewEngine()
	mgr := lockmgr.New(eng, lockmgr.Config{OnAbort: func(lockmgr.TxnID, lockmgr.AbortReason) {}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := lockmgr.TxnID(i + 1)
		mgr.Begin(id, lockmgr.Low)
		mgr.Acquire(id, uint64(i%1024), lockmgr.X, nil)
		mgr.Release(id)
	}
}

// BenchmarkMVASolve measures the Fig. 7 model: a 17-station network
// solved to population 100.
func BenchmarkMVASolve(b *testing.B) {
	nw, err := mva.Balanced(1, 16, 0.01, 0.16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Solve(100)
	}
}

// BenchmarkQBDSolve measures the Fig. 10 model at MPL 20.
func BenchmarkQBDSolve(b *testing.B) {
	job := dist.FitH2(0.1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qbd.Solve(qbd.Model{Lambda: 7, Job: job, MPL: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCTMCSolve measures the truncated Gauss-Seidel alternative.
func BenchmarkCTMCSolve(b *testing.B) {
	job := dist.FitH2(0.1, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctmc.Solve(ctmc.FlexModel{Lambda: 5, Job: job, MPL: 5, MaxJobs: 400}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedSecond measures how fast the full simulator runs:
// one closed-system simulated second of setup 1 at MPL 10.
func BenchmarkSimulatedSecond(b *testing.B) {
	setup, err := workload.SetupByID(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts := experiments.RunOpts{Warmup: 1, Measure: 1, Seed: uint64(i + 1)}
		b.StartTimer()
		if _, err := experiments.RunClosed(setup, 10, "", workload.DBOptions{}, opts); err != nil {
			b.Fatal(err)
		}
	}
}
