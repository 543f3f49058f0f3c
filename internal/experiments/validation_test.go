package experiments

// Cross-validation of the discrete-event simulator against closed-form
// queueing theory and the matrix-analytic solvers. These tests are the
// strongest evidence that the substrate is sound: three independent
// implementations (DES, QBD matrix-geometric, truncated CTMC) of the
// paper's Fig. 8 system must agree.

import (
	"math"
	"testing"

	"extsched/internal/core"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/dist"
	"extsched/internal/lockmgr"
	"extsched/internal/queueing/mg1"
	"extsched/internal/queueing/mmc"
	"extsched/internal/queueing/qbd"
	"extsched/internal/sim"
	"extsched/internal/stats"
)

// runOpenCPUOnly drives a pure-CPU DBMS (no locks, no IO, no log) with
// Poisson arrivals and job sizes from d, under the given MPL.
// Returns (mean RT, mean jobs in system estimate via Little).
func runOpenCPUOnly(t *testing.T, d dist.Distribution, lambda float64, mpl int, n int) float64 {
	t.Helper()
	eng := sim.NewEngine()
	db, err := dbms.New(eng, dbms.Config{
		CPUs: 1, Disks: 1,
		LogService: dist.NewDeterministic(0), // no log cost
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe := dbfe.New(eng, db, mpl, nil)
	g := sim.NewRNG(8, 0)
	var rts stats.Accumulator
	fe.OnComplete = func(tx *dbfe.Txn) { rts.Add(tx.ResponseTime()) }
	var key uint64 = 1 << 45
	var arrive func(remaining int)
	arrive = func(remaining int) {
		if remaining == 0 {
			return
		}
		eng.After(g.ExpFloat64()/lambda, func() {
			key++
			fe.Submit(dbms.TxnProfile{
				Ops: []dbms.Op{{Key: key, CPUWork: d.Sample(g)}},
			})
			arrive(remaining - 1)
		})
	}
	arrive(n)
	eng.RunAll()
	// Discard the first fifth as warmup by re-running with a window is
	// overkill here; long runs dominate the transient.
	return rts.Mean()
}

// TestSimulatorMatchesMG1FIFO: MPL=1 turns the system into an M/G/1
// FIFO queue; mean RT must match Pollaczek–Khinchine.
func TestSimulatorMatchesMG1FIFO(t *testing.T) {
	for _, c2 := range []float64{1.000001, 5} {
		job := dist.FitH2(0.01, c2)
		lambda := 60.0 // rho 0.6
		got := runOpenCPUOnly(t, job, lambda, 1, 150000)
		want := mg1.Params{Lambda: lambda, MeanSize: 0.01, C2: c2}.FIFOResponse()
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("C²=%v: sim RT %v, PK %v", c2, got, want)
		}
	}
}

// TestSimulatorMatchesPS: with unlimited MPL, a single PS CPU is an
// M/G/1/PS queue: E[T] = E[S]/(1−ρ) regardless of C².
func TestSimulatorMatchesPS(t *testing.T) {
	for _, c2 := range []float64{1.000001, 10} {
		job := dist.FitH2(0.01, c2)
		lambda := 60.0
		got := runOpenCPUOnly(t, job, lambda, 0, 150000)
		want := 0.01 / (1 - 0.6)
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("C²=%v: sim PS RT %v, want %v", c2, got, want)
		}
	}
}

// TestSimulatorMatchesQBD is the headline three-way agreement: the DES
// with a finite MPL must match the Fig. 9 chain's matrix-geometric
// solution (which itself matches the truncated CTMC — see the qbd
// package tests).
func TestSimulatorMatchesQBD(t *testing.T) {
	cases := []struct {
		c2     float64
		mpl    int
		lambda float64
	}{
		{5, 2, 60},
		{5, 5, 60},
		{15, 3, 70},
		{10, 8, 70},
	}
	for _, tc := range cases {
		job := dist.FitH2(0.01, tc.c2)
		got := runOpenCPUOnly(t, job, tc.lambda, tc.mpl, 200000)
		sol, err := qbd.Solve(qbd.Model{Lambda: tc.lambda, Job: job, MPL: tc.mpl})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-sol.MeanRT) / sol.MeanRT; rel > 0.1 {
			t.Errorf("C²=%v MPL=%d λ=%v: sim RT %v vs QBD %v (rel %.3f)",
				tc.c2, tc.mpl, tc.lambda, got, sol.MeanRT, rel)
		}
	}
}

// TestLittlesLawInFrontend: N̄ = λ·T̄ measured independently inside the
// frontend must agree.
func TestLittlesLawInFrontend(t *testing.T) {
	eng := sim.NewEngine()
	db, err := dbms.New(eng, dbms.Config{
		CPUs: 1, Disks: 1,
		LogService: dist.NewDeterministic(0),
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe := dbfe.New(eng, db, 3, nil)
	g := sim.NewRNG(4, 0)
	job := dist.FitH2(0.01, 5)
	lambda := 60.0
	// Time-average number in system (queue + inside), sampled by
	// integrating at every event boundary via a poller.
	var areaN float64
	lastT := 0.0
	sample := func() {
		now := eng.Now()
		areaN += float64(fe.QueueLen()+fe.Inside()) * (now - lastT)
		lastT = now
	}
	var rts stats.Accumulator
	fe.OnComplete = func(tx *dbfe.Txn) {
		// OnComplete fires after the departure was subtracted from the
		// frontend's counters; the elapsed interval still contained the
		// departing transaction, so add it back for this sample.
		now := eng.Now()
		areaN += float64(fe.QueueLen()+fe.Inside()+1) * (now - lastT)
		lastT = now
		rts.Add(tx.ResponseTime())
	}
	var key uint64 = 1 << 46
	const n = 100000
	var arrive func(remaining int)
	arrive = func(remaining int) {
		if remaining == 0 {
			return
		}
		eng.After(g.ExpFloat64()/lambda, func() {
			sample()
			key++
			fe.Submit(dbms.TxnProfile{Ops: []dbms.Op{{Key: key, CPUWork: job.Sample(g)}}})
			arrive(remaining - 1)
		})
	}
	arrive(n)
	eng.RunAll()
	meanN := areaN / eng.Now()
	// λ_effective over the full horizon (arrivals stop before drain).
	lamEff := float64(n) / eng.Now()
	if got, want := meanN, lamEff*rts.Mean(); math.Abs(got-want)/want > 0.05 {
		t.Errorf("Little's law: N̄=%v vs λT̄=%v", got, want)
	}
}

// TestPriorityClassesConservation: with a priority external queue, the
// class-weighted mean RT must equal the overall mean RT (conservation
// of the aggregate), and the high class must beat FIFO's common RT.
func TestPriorityClassesConservation(t *testing.T) {
	eng := sim.NewEngine()
	db, err := dbms.New(eng, dbms.Config{
		CPUs: 1, Disks: 1,
		LogService: dist.NewDeterministic(0),
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	fe := dbfe.New(eng, db, 1, core.NewPriority())
	g := sim.NewRNG(6, 0)
	job := dist.FitH2(0.01, 5)
	var key uint64 = 1 << 47
	const n = 60000
	var arrive func(remaining int)
	arrive = func(remaining int) {
		if remaining == 0 {
			return
		}
		eng.After(g.ExpFloat64()/70, func() {
			key++
			class := lockmgr.Low
			if g.Float64() < 0.1 {
				class = lockmgr.High
			}
			fe.Submit(dbms.TxnProfile{
				Ops:   []dbms.Op{{Key: key, CPUWork: job.Sample(g)}},
				Class: class,
			})
			arrive(remaining - 1)
		})
	}
	arrive(n)
	eng.RunAll()
	m := fe.Metrics()
	high, low := m.ClassMetric(core.ClassHigh).RT, m.ClassMetric(core.ClassLow).RT
	pHigh := float64(high.Count()) / float64(m.All.Count())
	weighted := pHigh*high.Mean() + (1-pHigh)*low.Mean()
	if math.Abs(weighted-m.All.Mean())/m.All.Mean() > 1e-9 {
		t.Errorf("class-weighted RT %v != overall %v", weighted, m.All.Mean())
	}
	if high.Mean() >= low.Mean() {
		t.Errorf("high class RT %v should beat low %v under priority", high.Mean(), low.Mean())
	}
}

// TestSimulatorMatchesErlangC: an unlimited-MPL multi-core CPU with
// exponential jobs behaves as an M/M/c system (flexible PS sharing has
// the same total-rate birth–death process as FCFS M/M/c), so the mean
// response time must match Erlang-C.
func TestSimulatorMatchesErlangC(t *testing.T) {
	for _, tc := range []struct {
		cores  int
		lambda float64
	}{
		{2, 150}, // rho .75 at mu=100
		{4, 300}, // rho .75
	} {
		eng := sim.NewEngine()
		db, err := dbms.New(eng, dbms.Config{
			CPUs: tc.cores, Disks: 1,
			LogService: dist.NewDeterministic(0),
			Seed:       17,
		})
		if err != nil {
			t.Fatal(err)
		}
		fe := dbfe.New(eng, db, 0, nil)
		g := sim.NewRNG(18, 0)
		job := dist.NewExponential(0.01) // mu = 100
		var rts stats.Accumulator
		fe.OnComplete = func(tx *dbfe.Txn) { rts.Add(tx.ResponseTime()) }
		var key uint64 = 1 << 48
		const n = 150000
		var arrive func(remaining int)
		arrive = func(remaining int) {
			if remaining == 0 {
				return
			}
			eng.After(g.ExpFloat64()/tc.lambda, func() {
				key++
				fe.Submit(dbms.TxnProfile{Ops: []dbms.Op{{Key: key, CPUWork: job.Sample(g)}}})
				arrive(remaining - 1)
			})
		}
		arrive(n)
		eng.RunAll()
		want := mmc.Params{Lambda: tc.lambda, Mu: 100, Servers: tc.cores}.MeanResponse()
		if rel := math.Abs(rts.Mean()-want) / want; rel > 0.06 {
			t.Errorf("c=%d λ=%v: sim RT %v vs Erlang-C %v (rel %.3f)",
				tc.cores, tc.lambda, rts.Mean(), want, rel)
		}
	}
}
