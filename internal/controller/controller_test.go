package controller

import (
	"testing"

	"extsched/internal/core"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/dist"
	"extsched/internal/sim"
	"extsched/internal/workload"
)

// attach builds a controller over fe and wires the frontend's
// completion stream into it — the wiring every integration (extsched,
// the live gate) now owns itself.
func attach(t *testing.T, eng *sim.Engine, fe *dbfe.Frontend, cfg Config) *Controller {
	t.Helper()
	ctl, err := New(eng.Clock(), fe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := fe.OnComplete
	fe.OnComplete = func(tx *dbfe.Txn) {
		if prev != nil {
			prev(tx)
		}
		ctl.Observe(&tx.Item)
	}
	return ctl
}

// buildRig creates an engine, DB and frontend for a Table 2 setup.
func buildRig(t *testing.T, setupID, mpl int, seed uint64) (*sim.Engine, *dbfe.Frontend, workload.Setup) {
	t.Helper()
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	db, err := dbms.New(eng, setup.BuildConfig(workload.DBOptions{Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	fe := dbfe.New(eng, db, mpl, nil)
	gen, err := workload.NewGenerator(setup.Workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	workload.Prewarm(db, setup.Workload, seed)
	workload.NewClosedDriver(eng, fe, gen, 100, nil).Start()
	return eng, fe, setup
}

// measureBaseline runs a setup without MPL and returns (tput, meanRT).
func measureBaseline(t *testing.T, setupID int, seed uint64, horizon float64) (float64, float64) {
	t.Helper()
	eng, fe, _ := buildRig(t, setupID, 0, seed)
	eng.Run(horizon / 4) // warmup
	fe.ResetMetrics()
	eng.Run(horizon)
	m := fe.Metrics()
	return m.Throughput(), m.All.Mean()
}

func TestJumpStartScalesWithDisks(t *testing.T) {
	mk := func(disks int) int {
		rec, err := Recommend(Model{
			CPUs: 1, Disks: disks,
			CPUDemand: 0.001, IODemand: 0.2,
			Loss: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec.MPL
	}
	m1, m4 := mk(1), mk(4)
	if m4 <= m1 {
		t.Errorf("jump-start MPL for 4 disks (%d) should exceed 1 disk (%d)", m4, m1)
	}
	if m1 < 1 || m4 > 100 {
		t.Errorf("jump-start values out of sane range: %d, %d", m1, m4)
	}
}

func TestJumpStartRTBoundRaises(t *testing.T) {
	base, err := Recommend(Model{
		CPUs: 1, Disks: 1,
		CPUDemand: 0.1, IODemand: 0,
		Loss: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	withRT, err := Recommend(Model{
		CPUs: 1, Disks: 1,
		CPUDemand: 0.1, IODemand: 0,
		Loss:        0.05,
		Lambda:      7, // rho 0.7
		MeanDemand:  0.1,
		DemandC2:    15,
		RTTolerance: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if withRT.MPL <= base.MPL {
		t.Errorf("high-C² RT bound should raise the start: base %d, withRT %d", base.MPL, withRT.MPL)
	}
}

func TestJumpStartValidation(t *testing.T) {
	if _, err := Recommend(Model{CPUs: 1, Disks: 1, CPUDemand: 1, Loss: 1}); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := Recommend(Model{CPUs: 0, Disks: 0, Loss: 0.1}); err == nil {
		t.Error("no resources accepted")
	}
}

func TestNewValidation(t *testing.T) {
	eng, fe, _ := buildRig(t, 1, 5, 1)
	_ = eng
	if _, err := New(eng.Clock(), fe, Config{MaxThroughputLoss: 0.05}); err == nil {
		t.Error("missing reference accepted")
	}
	if _, err := New(eng.Clock(), fe, Config{
		MaxThroughputLoss:   1.5,
		ReferenceThroughput: 10,
	}); err == nil {
		t.Error("loss >= 1 accepted")
	}
}

// TestConvergesFromJumpStart is the paper's headline controller claim:
// with the queueing jump-start, the loop converges in fewer than 10
// iterations to an MPL that meets the targets.
func TestConvergesFromJumpStart(t *testing.T) {
	setup, _ := workload.SetupByID(1)
	refTput, _ := measureBaseline(t, 1, 99, 120)
	cpuD, ioD := setup.Demands()
	rec, err := Recommend(Model{
		CPUs: setup.CPUs, Disks: setup.Disks,
		CPUDemand: cpuD, IODemand: ioD,
		Loss: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, fe, _ := buildRig(t, 1, rec.MPL, 42)
	// Warm up before attaching so the pool and lock state are hot.
	eng.Run(20)
	ctl := attach(t, eng, fe, Config{
		MaxThroughputLoss:   0.05,
		ReferenceThroughput: refTput,
	})
	eng.Run(2000)
	st := ctl.Status()
	if !st.Converged {
		t.Fatalf("controller did not converge; last reaction: %+v", st.Last)
	}
	if st.Iterations >= 10 {
		t.Errorf("converged in %d iterations, want < 10 (last %+v)", st.Iterations, st.Last)
	}
	final := fe.MPL()
	if final < 1 || final > 40 {
		t.Errorf("final MPL = %d, want a low value", final)
	}
	// Verify feasibility: measure at the final MPL.
	eng2, fe2, _ := buildRig(t, 1, final, 7)
	eng2.Run(30)
	fe2.ResetMetrics()
	eng2.Run(150)
	tput := fe2.Metrics().Throughput()
	if tput < 0.90*refTput {
		t.Errorf("final MPL %d gives tput %.2f, reference %.2f (>10%% loss)", final, tput, refTput)
	}
}

func TestIncreasesWhenStartedTooLow(t *testing.T) {
	// IO-bound 4-disk setup (8): MPL 1 wastes 3 disks; controller must
	// climb.
	refTput, _ := measureBaseline(t, 8, 5, 400)
	eng, fe, _ := buildRig(t, 8, 1, 6)
	eng.Run(50)
	ctl := attach(t, eng, fe, Config{
		MaxThroughputLoss:   0.05,
		ReferenceThroughput: refTput,
	})
	eng.Run(4000)
	if fe.MPL() <= 1 {
		t.Errorf("MPL stayed at %d; expected increases (last %+v)", fe.MPL(), ctl.Status().Last)
	}
}

func TestDecreasesWhenStartedTooHigh(t *testing.T) {
	refTput, _ := measureBaseline(t, 1, 5, 120)
	eng, fe, _ := buildRig(t, 1, 60, 8)
	eng.Run(20)
	ctl := attach(t, eng, fe, Config{
		MaxThroughputLoss:   0.05,
		ReferenceThroughput: refTput,
	})
	eng.Run(2000)
	if fe.MPL() >= 60 {
		t.Errorf("MPL stayed at %d; expected decreases (last %+v)", fe.MPL(), ctl.Status().Last)
	}
}

func TestNoReactionWithoutLoad(t *testing.T) {
	// A nearly idle system (few clients, long think times) must not
	// trigger reactions: the load-representative gate keeps windows
	// open/reset.
	setup, _ := workload.SetupByID(1)
	eng := sim.NewEngine()
	db, _ := dbms.New(eng, setup.BuildConfig(workload.DBOptions{Seed: 3}))
	fe := dbfe.New(eng, db, 10, nil)
	gen, _ := workload.NewGenerator(setup.Workload, 3)
	workload.NewClosedDriver(eng, fe, gen, 2, dist.NewDeterministic(1)).Start()
	ctl := attach(t, eng, fe, Config{
		MaxThroughputLoss:   0.05,
		ReferenceThroughput: 80,
	})
	eng.Run(500)
	if st := ctl.Status(); st.Iterations != 0 {
		t.Errorf("controller reacted %d times on an idle system: %+v", st.Iterations, st.Last)
	}
}

func TestHistoryRecordsMetrics(t *testing.T) {
	refTput, _ := measureBaseline(t, 1, 5, 60)
	eng, fe, _ := buildRig(t, 1, 3, 9)
	eng.Run(10)
	ctl := attach(t, eng, fe, Config{
		MaxThroughputLoss:   0.05,
		ReferenceThroughput: refTput,
	})
	eng.Run(500)
	st := ctl.Status()
	if st.Iterations == 0 {
		t.Fatal("no reactions")
	}
	if d := st.Last; d.Iteration != st.Iterations || d.Throughput <= 0 || d.MeanRT <= 0 || d.MPL < 1 {
		t.Errorf("bad decision record: %+v", d)
	}
}

// fixedGate is a Gate that never changes and always looks loaded.
type fixedGate struct{}

func (fixedGate) MPL() int      { return 4 }
func (fixedGate) SetMPL(int)    {}
func (fixedGate) QueueLen() int { return 1 }
func (fixedGate) Inside() int   { return 4 }

// TestObserveClampsOutOfOrderStamps: live completions can reach
// Observe out of stamp order (each goroutine stamps before it takes
// the controller's lock). The observation time must not run backwards,
// so no inter-completion time is negative.
func TestObserveClampsOutOfOrderStamps(t *testing.T) {
	ctl, err := New(sim.NewEngine().Clock(), fixedGate{}, Config{
		ReferenceThroughput: 100,
		MinObservations:     1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, stamp := range []float64{1, 3, 2, 4} {
		ctl.Observe(&core.Item{Complete: stamp})
	}
	if got := ctl.interCompletion.Min(); got < 0 {
		t.Errorf("smallest inter-completion time %v, want >= 0", got)
	}
	if got := ctl.lastCompletion; got != 4 {
		t.Errorf("last observation time %v, want 4", got)
	}
}
