package dbfe_test

import (
	"slices"
	"testing"

	"extsched/internal/core"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/sim"
	"extsched/internal/workload"
)

// stack builds a frontend at the given MPL over setup 1's DBMS, with a
// generator drawing that setup's profiles.
func stack(t *testing.T, mpl int) (*sim.Engine, *dbfe.Frontend, *workload.Generator) {
	t.Helper()
	setup, err := workload.SetupByID(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	db, err := dbms.New(eng, setup.BuildConfig(workload.DBOptions{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	workload.Prewarm(db, setup.Workload, 1)
	gen, err := workload.NewGenerator(setup.Workload, 1)
	if err != nil {
		t.Fatal(err)
	}
	return eng, dbfe.New(eng, db, mpl, core.NewFIFO()), gen
}

// cpuTxn is a hand-built one-operation profile of the given CPU work.
func cpuTxn(key uint64, work float64) dbms.TxnProfile {
	return dbms.TxnProfile{Ops: []dbms.Op{{Key: key, CPUWork: work}}, EstimatedDemand: work}
}

// TestCommitCycleAllocsNothing pins the steady state: once the free
// lists are warm, a closed-loop client's submit → commit cycle
// allocates nothing in the frontend, the generator or the DBMS.
func TestCommitCycleAllocsNothing(t *testing.T) {
	eng, fe, gen := stack(t, 10)
	committed := 0
	var cycle func(*dbfe.Txn)
	cycle = func(*dbfe.Txn) {
		committed++
		fe.SubmitCB(gen.Next(), cycle)
	}
	for i := 0; i < 40; i++ {
		fe.SubmitCB(gen.Next(), cycle)
	}
	eng.Run(30)
	if committed == 0 {
		t.Fatal("nothing committed while warming up")
	}
	n := testing.AllocsPerRun(500, func() {
		for want := committed + 1; committed < want && eng.Step(); {
		}
	})
	if n != 0 {
		t.Errorf("a warmed commit cycle allocates %v times, want 0", n)
	}
}

// TestFailAfterReuseReturnsLiveInOrder checks the live list across
// record reuse: Fail returns exactly the outstanding txns, each once,
// in submission order, never a retired record's earlier life.
func TestFailAfterReuseReturnsLiveInOrder(t *testing.T) {
	eng, fe, gen := stack(t, 4)
	seq := map[*dbfe.Txn]int{} // current submission number of a record
	live := map[int]bool{}
	next := 0
	reused := 0
	var submit func()
	done := func(tx *dbfe.Txn) {
		delete(live, seq[tx])
		if next < 400 {
			submit()
		}
	}
	submit = func() {
		tx := fe.SubmitCB(gen.Next(), done)
		if _, ok := seq[tx]; ok {
			reused++
		}
		next++
		seq[tx] = next
		live[next] = true
	}
	for i := 0; i < 12; i++ {
		submit()
	}
	for next < 400 && eng.Step() {
	}
	if reused == 0 {
		t.Fatal("no record was reused; the test needs retirements")
	}
	failed := fe.Fail()
	var got, want []int
	for _, tx := range failed {
		if !tx.Failed() {
			t.Errorf("Fail returned txn %d, which is not failed", seq[tx])
		}
		got = append(got, seq[tx])
	}
	for n := range live {
		want = append(want, n)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("Fail returned submissions %v, want the live ones %v in order", got, want)
	}
}

// TestFailedTxnNeverReused fails a frontend with txns both queued and
// in flight, resubmits their profiles, keeps driving new work while the
// doomed executions still fire, and checks no failed or resubmitted
// record is handed out again and no failed profile is rewritten.
func TestFailedTxnNeverReused(t *testing.T) {
	eng, fe, gen := stack(t, 4)
	eng.Run(1) // so that a dispatched txn has Dispatch > 0
	for i := 0; i < 12; i++ {
		fe.Submit(gen.Next())
	}
	eng.Run(eng.Now() + 0.002)
	failed := fe.Fail()
	doomed := 0
	snapshot := make([][]dbms.Op, len(failed))
	for i, tx := range failed {
		if tx.Item.Dispatch > 0 {
			doomed++
		}
		for _, op := range tx.Profile.Ops {
			op.Pages = slices.Clone(op.Pages)
			snapshot[i] = append(snapshot[i], op)
		}
	}
	if doomed == 0 || doomed == len(failed) {
		t.Fatalf("want failed txns both in flight and queued; %d of %d in flight", doomed, len(failed))
	}
	isFailed := map[*dbfe.Txn]bool{}
	for _, tx := range failed {
		isFailed[tx] = true
	}
	// Resubmit each failed profile the way the cluster dispatcher does:
	// the new txn shares the profile a doomed execution may still read,
	// so neither it nor the profile may be retired when it commits.
	// Attempts is set after submitting, as the dispatcher sets it:
	// completions are asynchronous, so no hook has run yet.
	for _, tx := range failed {
		re := fe.SubmitCB(tx.Profile, nil)
		re.Attempts = tx.Attempts + 1
		isFailed[re] = true
	}
	committed := 0
	var cycle func(*dbfe.Txn)
	cycle = func(*dbfe.Txn) {
		committed++
		if committed < 300 {
			if tx := fe.SubmitCB(gen.Next(), cycle); isFailed[tx] {
				t.Fatal("a failed or resubmitted txn's record was handed out again")
			}
		}
	}
	for i := 0; i < 8; i++ {
		fe.SubmitCB(gen.Next(), cycle)
	}
	eng.Run(eng.Now() + 60)
	if committed < 300 {
		t.Fatalf("only %d commits after the failure", committed)
	}
	for i, tx := range failed {
		for k, op := range tx.Profile.Ops {
			w := snapshot[i][k]
			if op.Key != w.Key || op.Write != w.Write || op.CPUWork != w.CPUWork || !slices.Equal(op.Pages, w.Pages) {
				t.Fatalf("failed txn %d op %d was rewritten: %+v, want %+v", i, k, op, w)
			}
		}
		if !tx.Failed() {
			t.Fatalf("failed txn %d left the failed state", i)
		}
	}
}

// TestShedRetiredDropKept checks both ends of admission: a shed txn is
// retired (its record comes back), while a dropped one — whose pointer
// the submitter holds — is never reused.
func TestShedRetiredDropKept(t *testing.T) {
	eng, fe, _ := stack(t, 1)
	fe.SetAdmitDeadline(core.ClassLow, 0.01)
	var shed *dbfe.Txn
	fe.OnShed = func(tx *dbfe.Txn) { shed = tx }
	fe.Submit(cpuTxn(1, 0.5)) // holds the only slot past the deadline
	fe.Submit(cpuTxn(2, 0.01))
	eng.Run(eng.Now() + 1)
	if shed == nil {
		t.Fatal("the waiting txn was not shed")
	}
	back := false
	for i := 0; i < 2; i++ {
		back = back || fe.Submit(cpuTxn(3, 0.01)) == shed
	}
	if !back {
		t.Error("the shed txn was not retired for reuse")
	}
	eng.Run(eng.Now() + 1)

	eng, fe, _ = stack(t, 1)
	fe.SetQueueLimit(1)
	fe.Submit(cpuTxn(1, 0.05))
	fe.Submit(cpuTxn(2, 0.05))
	dropped := fe.Submit(cpuTxn(3, 0.05))
	if fe.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", fe.Dropped())
	}
	arrival := dropped.Item.Arrival
	for i := 0; i < 50; i++ {
		if fe.Submit(cpuTxn(uint64(4+i), 0.01)) == dropped {
			t.Fatal("the dropped txn's record was handed out again")
		}
		eng.Run(eng.Now() + 0.1)
	}
	if dropped.Item.Arrival != arrival || dropped.Profile.Ops[0].Key != 3 {
		t.Error("the dropped txn was modified after its drop")
	}
}
