package dbms

import (
	"math"
	"testing"

	"extsched/internal/dist"
	"extsched/internal/sim"
)

func TestSIReadersNeverBlock(t *testing.T) {
	eng := sim.NewEngine()
	db := mustDB(t, eng, Config{
		CPUs: 2, Disks: 1, Isolation: SI,
		LogService: dist.NewDeterministic(0),
	})
	writer := TxnProfile{Ops: []Op{{Key: 7, Write: true, CPUWork: 0.5}}}
	reader := TxnProfile{Ops: []Op{{Key: 7, Write: false, CPUWork: 0.1}}}
	var readerDone float64
	db.Exec(writer, func(Result) {})
	db.Exec(reader, func(Result) { readerDone = eng.Now() })
	eng.RunAll()
	if math.Abs(readerDone-0.1) > 1e-9 {
		t.Errorf("SI reader done at %v, want 0.1 (MVCC: no read locks)", readerDone)
	}
}

func TestSIWriteLocksSerializeWriters(t *testing.T) {
	// Concurrent writers of the same row serialize on the X row lock
	// (as in PostgreSQL); the second also FCW-aborts and retries since
	// the first committed after its snapshot.
	eng := sim.NewEngine()
	db := mustDB(t, eng, Config{
		CPUs: 2, Disks: 1, Isolation: SI,
		LogService:     dist.NewDeterministic(0),
		RestartBackoff: dist.NewDeterministic(0.001),
		RollbackCPU:    0.001,
	})
	w := TxnProfile{Ops: []Op{{Key: 7, Write: true, CPUWork: 0.1}}}
	committed := 0
	restarts := 0
	db.Exec(w, func(r Result) { committed++; restarts += r.Restarts })
	db.Exec(w, func(r Result) { committed++; restarts += r.Restarts })
	eng.RunAll()
	if committed != 2 {
		t.Fatalf("committed = %d, want 2", committed)
	}
	if restarts < 1 {
		t.Errorf("expected at least one FCW restart, got %d", restarts)
	}
	if db.Stats().FCWAborts < 1 {
		t.Errorf("FCW aborts = %d, want >= 1", db.Stats().FCWAborts)
	}
}

func TestSINoFCWWhenDisjoint(t *testing.T) {
	eng := sim.NewEngine()
	db := mustDB(t, eng, Config{
		CPUs: 2, Disks: 1, Isolation: SI,
		LogService: dist.NewDeterministic(0),
	})
	committed := 0
	db.Exec(TxnProfile{Ops: []Op{{Key: 1, Write: true, CPUWork: 0.1}}}, func(Result) { committed++ })
	db.Exec(TxnProfile{Ops: []Op{{Key: 2, Write: true, CPUWork: 0.1}}}, func(Result) { committed++ })
	eng.RunAll()
	if committed != 2 || db.Stats().FCWAborts != 0 {
		t.Errorf("committed=%d fcw=%d, want 2/0 for disjoint writes", committed, db.Stats().FCWAborts)
	}
}

func TestSISequentialWritersNoAbort(t *testing.T) {
	// A writer starting AFTER another's commit sees the new version:
	// no conflict.
	eng := sim.NewEngine()
	db := mustDB(t, eng, Config{
		CPUs: 1, Disks: 1, Isolation: SI,
		LogService: dist.NewDeterministic(0),
	})
	w := TxnProfile{Ops: []Op{{Key: 7, Write: true, CPUWork: 0.1}}}
	committed := 0
	db.Exec(w, func(Result) { committed++ })
	eng.After(0.5, func() { db.Exec(w, func(Result) { committed++ }) })
	eng.RunAll()
	if committed != 2 {
		t.Fatalf("committed = %d", committed)
	}
	if db.Stats().FCWAborts != 0 {
		t.Errorf("FCW aborts = %d, want 0 for sequential writers", db.Stats().FCWAborts)
	}
}

func TestSIHighConcurrencyDrains(t *testing.T) {
	eng := sim.NewEngine()
	db := mustDB(t, eng, Config{
		CPUs: 2, Disks: 2, Isolation: SI,
		BufferPoolPages: 50,
		DiskService:     dist.NewExponential(0.005),
		LogService:      dist.NewDeterministic(0.001),
		RestartBackoff:  dist.NewExponential(0.005),
		Seed:            13,
	})
	g := sim.NewRNG(14, 0)
	const n = 300
	committed := 0
	for i := 0; i < n; i++ {
		var ops []Op
		for j := 0; j < 1+g.IntN(3); j++ {
			ops = append(ops, Op{
				Key:     uint64(g.IntN(15)),
				Write:   g.IntN(2) == 0,
				CPUWork: 0.001 + 0.005*g.Float64(),
				Pages:   []uint64{uint64(g.IntN(400))},
			})
		}
		prof := TxnProfile{Ops: ops}
		eng.After(g.Float64()*2, func() { db.Exec(prof, func(Result) { committed++ }) })
	}
	eng.RunAll()
	if committed != n {
		t.Fatalf("committed = %d, want %d", committed, n)
	}
	if db.Inside() != 0 {
		t.Errorf("inside = %d after drain", db.Inside())
	}
}

// TestSICorroboratesExternalScheduling mirrors the paper's remark that
// all external scheduling results were corroborated on PostgreSQL: the
// throughput-vs-MPL knee on the SI engine matches the 2PL engines'.
func TestSICorroboratesExternalScheduling(t *testing.T) {
	runAt := func(iso Isolation, mpl int) float64 {
		eng := sim.NewEngine()
		db := mustDB(t, eng, Config{
			CPUs: 1, Disks: 1, Isolation: iso,
			LogService:     dist.NewDeterministic(0.0015),
			RestartBackoff: dist.NewExponential(0.005),
			Seed:           15,
		})
		g := sim.NewRNG(16, 0)
		committed := 0
		// Closed loop with 40 clients of CPU-bound transactions.
		var cycle func()
		cycle = func() {
			var ops []Op
			for j := 0; j < 5; j++ {
				ops = append(ops, Op{
					Key:     uint64(g.IntN(500)),
					Write:   g.IntN(4) == 0,
					CPUWork: 0.002,
				})
			}
			db.Exec(TxnProfile{Ops: ops}, func(Result) { committed++; cycle() })
		}
		inside := 0
		_ = inside
		clients := mpl // emulate the MPL by bounding the closed population
		if clients == 0 {
			clients = 40
		}
		for i := 0; i < clients; i++ {
			cycle()
		}
		eng.Run(60)
		eng.Stop()
		return float64(committed) / 60
	}
	for _, iso := range []Isolation{RR, SI} {
		low := runAt(iso, 1)
		knee := runAt(iso, 5)
		high := runAt(iso, 0)
		if knee < low {
			t.Errorf("%v: MPL 5 tput %v below MPL 1 %v", iso, knee, low)
		}
		// Saturation by ~5 concurrent txns for a 1-CPU engine.
		if knee < 0.9*high {
			t.Errorf("%v: knee tput %v not near saturation %v", iso, knee, high)
		}
	}
}

func TestCheckpointerWritesBack(t *testing.T) {
	eng := sim.NewEngine()
	db := mustDB(t, eng, Config{
		CPUs: 1, Disks: 1,
		BufferPoolPages: 1000,
		DiskService:     dist.NewDeterministic(0.001),
		LogService:      dist.NewDeterministic(0),
		FlushInterval:   0.05,
		FlushBatch:      64,
	})
	committed := 0
	for i := 0; i < 50; i++ {
		page := uint64(i)
		prof := TxnProfile{Ops: []Op{{Key: uint64(i), Write: true, CPUWork: 0.001, Pages: []uint64{page}}}}
		eng.After(float64(i)*0.01, func() { db.Exec(prof, func(Result) { committed++ }) })
	}
	eng.RunAll() // must drain: the flusher disarms when idle
	if committed != 50 {
		t.Fatalf("committed = %d", committed)
	}
	if db.Stats().PagesFlushed == 0 {
		t.Error("checkpointer wrote nothing back")
	}
	if db.Pool().DirtyCount() != 0 {
		t.Errorf("dirty pages remain: %d", db.Pool().DirtyCount())
	}
}

func TestCheckpointerDisabledByDefault(t *testing.T) {
	eng := sim.NewEngine()
	db := mustDB(t, eng, Config{
		CPUs: 1, Disks: 1,
		BufferPoolPages: 100,
		LogService:      dist.NewDeterministic(0),
	})
	db.Exec(TxnProfile{Ops: []Op{{Key: 1, Write: true, CPUWork: 0.001, Pages: []uint64{1}}}}, func(Result) {})
	eng.RunAll()
	if db.Stats().PagesFlushed != 0 {
		t.Error("flusher ran while disabled")
	}
}

func TestCheckpointerConsumesDiskBandwidth(t *testing.T) {
	// Write-heavy workload: with an aggressive checkpointer the data
	// disks serve extra write-back I/O.
	run := func(interval float64) (uint64, float64) {
		eng := sim.NewEngine()
		db := mustDB(t, eng, Config{
			CPUs: 1, Disks: 1,
			BufferPoolPages: 5000,
			DiskService:     dist.NewDeterministic(0.002),
			LogService:      dist.NewDeterministic(0),
			FlushInterval:   interval,
			FlushBatch:      256,
			Seed:            31,
		})
		g := sim.NewRNG(32, 0)
		done := 0
		for i := 0; i < 400; i++ {
			prof := TxnProfile{Ops: []Op{{
				Key: uint64(1 << 20 * (i + 1)), Write: true, CPUWork: 0.0005,
				Pages: []uint64{uint64(g.IntN(4000))},
			}}}
			eng.After(float64(i)*0.005, func() { db.Exec(prof, func(Result) { done++ }) })
		}
		eng.RunAll()
		return db.Stats().PagesFlushed, db.DiskUtilization()
	}
	flushed, utilOn := run(0.02)
	_, utilOff := run(0)
	if flushed == 0 {
		t.Fatal("no write-back")
	}
	if utilOn <= utilOff {
		t.Errorf("write-back should raise disk utilization: %v vs %v", utilOn, utilOff)
	}
}

func TestCheckpointerRerunBitIdentical(t *testing.T) {
	// More pages go dirty per round than FlushBatch writes back, so the
	// checkpointer chooses which dirty pages to write each round. That
	// choice must come from the simulation state alone: two runs on one
	// seed must write the same pages and so lose the same pages to
	// eviction.
	type outcome struct {
		stats        Stats
		evictedDirty uint64
		rtSum        float64
		insideSum    float64
	}
	run := func() outcome {
		eng := sim.NewEngine()
		db := mustDB(t, eng, Config{
			CPUs: 2, Disks: 2,
			BufferPoolPages: 200,
			DiskService:     dist.NewDeterministic(0.002),
			LogService:      dist.NewDeterministic(0),
			FlushInterval:   0.05,
			FlushBatch:      8,
			Seed:            41,
		})
		g := sim.NewRNG(42, 0)
		var o outcome
		for i := 0; i < 3000; i++ {
			prof := TxnProfile{Ops: []Op{{
				Key: uint64(i), Write: true, CPUWork: 0.0005,
				Pages: []uint64{uint64(g.IntN(400)), uint64(g.IntN(400))},
			}}}
			at := float64(i) * 0.002
			eng.After(at, func() {
				db.Exec(prof, func(r Result) {
					o.rtSum += eng.Now() - at
					o.insideSum += r.InsideTime
				})
			})
		}
		eng.RunAll()
		o.stats, o.evictedDirty = db.Stats(), db.Pool().EvictedDirty()
		return o
	}
	first := run()
	if first.stats.PagesFlushed == 0 || first.evictedDirty == 0 {
		t.Fatalf("checkpointer not under pressure: flushed %d, evicted dirty %d",
			first.stats.PagesFlushed, first.evictedDirty)
	}
	for rerun := 0; rerun < 3; rerun++ {
		if again := run(); again != first {
			t.Fatalf("rerun %d diverged:\n got %+v\nwant %+v", rerun, again, first)
		}
	}
}

// siLoad drives a closed loop of clients over SI, each transaction
// writing cold keys (never written before) and, with hotKeys > 0, one
// of a few hot keys, and returns each commit's time and restart count.
func siLoad(db *DB, eng *sim.Engine, clients, txns, hotKeys int) []Result {
	g := sim.NewRNG(21, 0)
	cold := uint64(1 << 32)
	var results []Result
	started := 0
	var next func()
	next = func() {
		if started == txns {
			return
		}
		started++
		ops := []Op{
			{Key: cold, Write: true, CPUWork: 0.0005 + 0.001*g.Float64()},
			{Key: cold + 1, Write: true, CPUWork: 0.0005},
		}
		cold += 2
		if hotKeys > 0 {
			ops = append(ops, Op{Key: uint64(g.IntN(hotKeys)), Write: g.IntN(2) == 0, CPUWork: 0.001})
		}
		db.Exec(TxnProfile{Ops: ops}, func(r Result) {
			r.InsideTime = eng.Now() // the commit time, compared exactly
			results = append(results, r)
			next()
		})
	}
	for i := 0; i < clients; i++ {
		next()
	}
	eng.RunAll()
	return results
}

// TestSIVersionMapStaysBounded commits 20,000 SI transactions that each
// write two fresh keys. The version map must not keep an entry per key
// ever written: an entry no newer than every live snapshot can never
// fail a first-committer-wins check, so it is swept out.
func TestSIVersionMapStaysBounded(t *testing.T) {
	eng := sim.NewEngine()
	db := mustDB(t, eng, Config{
		CPUs: 2, Disks: 1, Isolation: SI,
		LogService: dist.NewDeterministic(0.0002),
		Seed:       22,
	})
	const txns = 20000
	if got := len(siLoad(db, eng, 4, txns, 0)); got != txns {
		t.Fatalf("committed %d, want %d", got, txns)
	}
	if st := db.Stats(); st.FCWAborts != 0 {
		t.Errorf("FCW aborts = %d, want 0 for disjoint writes", st.FCWAborts)
	}
	if n := len(db.lastWrite); n > 64 {
		t.Errorf("version map holds %d entries after %d commits, want at most 64", n, txns)
	}
}

// TestSIPruningChangesNoOutcome runs a contended SI load twice, once
// with the version map's sweep disabled: every commit must happen at
// the same time with the same restarts, and the counters must match.
func TestSIPruningChangesNoOutcome(t *testing.T) {
	run := func(prune bool) ([]Result, Stats) {
		eng := sim.NewEngine()
		db := mustDB(t, eng, Config{
			CPUs: 2, Disks: 1, Isolation: SI,
			LogService:     dist.NewDeterministic(0.001),
			RestartBackoff: dist.NewExponential(0.002),
			Seed:           23,
		})
		if !prune {
			db.pruneAt = math.MaxInt
		}
		return siLoad(db, eng, 8, 3000, 6), db.Stats()
	}
	pruned, ps := run(true)
	kept, ks := run(false)
	if ps.FCWAborts == 0 {
		t.Fatalf("stats %+v: the load should abort on first-committer-wins", ps)
	}
	if ps != ks {
		t.Errorf("stats with sweeps %+v, without %+v", ps, ks)
	}
	if len(pruned) != len(kept) {
		t.Fatalf("%d commits with sweeps, %d without", len(pruned), len(kept))
	}
	for i := range pruned {
		if pruned[i] != kept[i] {
			t.Fatalf("commit %d: %+v with sweeps, %+v without", i, pruned[i], kept[i])
		}
	}
}
