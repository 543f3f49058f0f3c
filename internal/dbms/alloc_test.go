package dbms

import (
	"testing"

	"extsched/internal/dist"
	"extsched/internal/lockmgr"
	"extsched/internal/sim"
)

// TestExecZeroAlloc pins a warmed DB.Exec of a fixed profile at zero
// allocations: lock waits, CPU bursts, page misses with disk I/O and
// the group-committed log record all run on recycled records and
// continuations bound once.
func TestExecZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	db := mustDB(t, eng, Config{
		CPUs: 1, Disks: 2,
		BufferPoolPages: 2,
		DiskService:     dist.NewDeterministic(0.002),
		LogService:      dist.NewDeterministic(0.001),
		GroupCommit:     true,
	})
	profile := TxnProfile{Ops: []Op{
		{Key: 1, Write: true, CPUWork: 0.001, Pages: []uint64{1, 2}},
		{Key: 2, CPUWork: 0.002, Pages: []uint64{3}},
		{Key: 3, Write: true, CPUWork: 0.001, Pages: []uint64{1}},
	}}
	committed := 0
	onDone := func(Result) { committed++ }
	round := func() {
		// Two copies contend for the same keys, so one waits on locks.
		db.Exec(profile, onDone)
		db.Exec(profile, onDone)
		eng.RunAll()
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Errorf("Exec of a fixed profile allocates %v per two transactions, want 0", n)
	}
	if committed != 2*211 {
		t.Errorf("committed %d, want %d", committed, 2*211)
	}
	if st := db.Stats(); st.Lock.Waits == 0 || st.PoolMiss == 0 {
		t.Errorf("lock waits %d, pool misses %d: the profile should wait and miss", st.Lock.Waits, st.PoolMiss)
	}
}

// TestRecycledAttemptsCommitOnce drives a closed loop over a few hot
// keys under POW, so deadlock and preemption aborts, restarts and
// record reuse interleave: every transaction must report exactly once,
// with its own result (its restarts summing to the engine's aborts),
// and the engine must drain.
func TestRecycledAttemptsCommitOnce(t *testing.T) {
	eng := sim.NewEngine()
	db := mustDB(t, eng, Config{
		CPUs: 2, Disks: 1,
		LockPolicy:     lockmgr.PriorityFIFO,
		POW:            true,
		LogService:     dist.NewDeterministic(0.001),
		RestartBackoff: dist.NewExponential(0.002),
		Seed:           5,
	})
	g := sim.NewRNG(6, 0)
	const clients, perClient = 12, 60
	reports := make(map[int]int)
	restarts := 0
	next := 0
	var submit func()
	submit = func() {
		if next == clients*perClient {
			return
		}
		id := next
		next++
		ops := make([]Op, 1+g.IntN(4))
		for i := range ops {
			ops[i] = Op{Key: uint64(g.IntN(6)), Write: g.IntN(3) > 0, CPUWork: 0.001 + 0.004*g.Float64()}
		}
		class := lockmgr.Low
		if g.IntN(4) == 0 {
			class = lockmgr.High
		}
		db.Exec(TxnProfile{Ops: ops, Class: class}, func(r Result) {
			reports[id]++
			restarts += r.Restarts
			if r.Class != class {
				t.Errorf("txn %d reported class %v, want %v", id, r.Class, class)
			}
			submit()
		})
	}
	for i := 0; i < clients; i++ {
		submit()
	}
	eng.RunAll()
	for id := 0; id < clients*perClient; id++ {
		if reports[id] != 1 {
			t.Fatalf("txn %d reported %d times, want 1", id, reports[id])
		}
	}
	st := db.Stats()
	if st.Aborted == 0 || st.Lock.Preemptions == 0 {
		t.Errorf("aborted %d, preemptions %d: the load should abort and preempt", st.Aborted, st.Lock.Preemptions)
	}
	if uint64(restarts) != st.Aborted {
		t.Errorf("results report %d restarts, engine counted %d aborts", restarts, st.Aborted)
	}
	if db.Inside() != 0 || len(db.free) != len(db.records) {
		t.Errorf("inside %d, %d of %d records free after drain, want all", db.Inside(), len(db.free), len(db.records))
	}
}

// TestLateAbortNoticeIgnored delivers an abort notice for a committed
// attempt twice: while its record sits on the free list, and after the
// record runs a new transaction under a fresh id. Neither notice may
// abort anything.
func TestLateAbortNoticeIgnored(t *testing.T) {
	eng := sim.NewEngine()
	db := mustDB(t, eng, Config{CPUs: 1, Disks: 1, LogService: dist.NewDeterministic(0.001)})
	db.Exec(TxnProfile{Ops: []Op{{Key: 1, Write: true, CPUWork: 0.01}}}, func(Result) {})
	eng.RunAll()
	if len(db.records) != 1 || len(db.free) != 1 {
		t.Fatalf("%d records, %d free after one commit, want 1 and 1", len(db.records), len(db.free))
	}
	old := db.records[0].id
	db.abort(old, lockmgr.Deadlock)
	eng.RunAll()
	if st := db.Stats(); st.Aborted != 0 || db.Inside() != 0 || len(db.free) != 1 {
		t.Fatalf("late notice on a free record: aborted %d, inside %d, %d free", st.Aborted, db.Inside(), len(db.free))
	}

	var res Result
	done := 0
	db.Exec(TxnProfile{Ops: []Op{{Key: 1, Write: true, CPUWork: 0.1}}}, func(r Result) { res = r; done++ })
	if db.records[0].id == old {
		t.Fatalf("recycled record kept id %d", old)
	}
	eng.After(0.05, func() { db.abort(old, lockmgr.Deadlock) })
	eng.RunAll()
	if done != 1 || res.Restarts != 0 {
		t.Errorf("new transaction committed %d times with %d restarts, want once with 0", done, res.Restarts)
	}
	if st := db.Stats(); st.Aborted != 0 {
		t.Errorf("aborted %d, want 0", st.Aborted)
	}
}
