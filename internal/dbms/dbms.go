// Package dbms simulates a transactional database engine out of the
// substrate resources: a multi-core processor-sharing CPU, striped data
// disks plus a dedicated (optionally group-commit) log disk, an LRU
// buffer pool with dirty-page tracking and an optional background
// checkpointer, and a strict-2PL lock manager. It executes transaction
// profiles produced by the workload package as callback-driven state
// machines over the discrete-event engine: per operation lock → CPU
// burst → buffer-pool probe → disk I/O on a miss; at the end a log
// append, then commit and lock release.
//
// It stands in for the paper's IBM DB2 / Shore backends (isolation RR
// and UR), and additionally offers a PostgreSQL-style snapshot-
// isolation mode (SI) matching the paper's corroboration DBMS. Aborts
// (deadlock victims, POW preemptions, lock timeouts, SI first-
// committer-wins conflicts) roll the transaction back, pay a rollback
// CPU cost, and restart it after a randomized backoff, as a real
// engine would.
package dbms

import (
	"fmt"
	"math"

	"extsched/internal/bufferpool"
	"extsched/internal/cpusched"
	"extsched/internal/disk"
	"extsched/internal/dist"
	"extsched/internal/lockmgr"
	"extsched/internal/sim"
)

// Isolation selects the concurrency-control discipline.
type Isolation int

const (
	// RR (Repeatable Read, DB2's default level 3): S locks on reads, X
	// on writes, all held to commit.
	RR Isolation = iota
	// UR (Uncommitted Read): no read locks; only write-write conflicts.
	UR
	// SI (Snapshot Isolation): the PostgreSQL-style MVCC discipline the
	// paper used for corroboration. Readers take no locks at all;
	// writers take X row locks (serializing concurrent writers of the
	// same row) and follow first-committer-wins — a transaction that
	// finds one of its written rows committed by someone else after its
	// own start aborts and restarts.
	SI
)

func (i Isolation) String() string {
	switch i {
	case RR:
		return "RR"
	case UR:
		return "UR"
	default:
		return "SI"
	}
}

// Op is a single transaction operation.
type Op struct {
	Key     uint64   // logical lock key (row/tuple)
	Write   bool     // X lock if true, S lock (under RR) otherwise
	CPUWork float64  // seconds of CPU at unit speed
	Pages   []uint64 // page accesses; each miss costs one disk I/O
}

// TxnProfile is a full transaction as generated by the workload.
type TxnProfile struct {
	Ops   []Op
	Class lockmgr.Class
	// EstimatedDemand is the generator's a-priori total service demand
	// estimate (seconds); used by size-based external policies (SJF)
	// and by C² accounting. Zero when unknown.
	EstimatedDemand float64
	// Owner, when non-nil, drew the profile and takes its memory back
	// once the transaction that ran it is retired (see package dbfe).
	// Replayed and hand-built profiles leave it nil and are never
	// reused. A drawn profile must be submitted at most once.
	Owner Recycler
}

// Recycler takes back the memory of a profile it drew, for reuse by a
// later draw.
type Recycler interface {
	Recycle(TxnProfile)
}

// Result reports a committed transaction.
type Result struct {
	Restarts   int     // abort/restart cycles before the commit
	InsideTime float64 // seconds between dispatch and commit
	Class      lockmgr.Class
}

// Config assembles a database instance.
type Config struct {
	CPUs  int
	Disks int
	// CPUSpeed scales CPU work (2.0 = cores twice as fast). Default 1.
	CPUSpeed float64
	// DiskService is the per-I/O service time distribution. Required
	// if any profile misses in the buffer pool.
	DiskService dist.Distribution
	// LogService is the per-commit log-write time. Default: 1 ms fixed.
	LogService dist.Distribution
	// BufferPoolPages sizes the LRU pool. Default 1.
	BufferPoolPages int
	Isolation       Isolation
	// LockPolicy orders lock wait queues (FIFO or PriorityFIFO).
	LockPolicy lockmgr.Policy
	// POW enables Preempt-on-Wait lock preemption (internal lock
	// prioritization).
	POW bool
	// CPUPriority enables internal CPU prioritization: high-class
	// transactions get HighCPUWeight, low-class LowCPUWeight
	// (the renice -20/+20 experiment). When false all weights are 1.
	CPUPriority   bool
	HighCPUWeight float64 // default 20
	LowCPUWeight  float64 // default 1
	// GroupCommit batches commit log records that arrive while a log
	// flush is in progress into the next flush (one device write
	// commits the group). Real engines rely on this to keep the log
	// device off the critical path at high MPLs.
	GroupCommit bool
	// FlushInterval, when > 0, runs a background checkpointer: every
	// FlushInterval simulated seconds it writes up to FlushBatch dirty
	// buffer-pool pages back to the data disks, competing with
	// transaction I/O for disk bandwidth. Zero (the default, and the
	// paper-matching configuration) disables write-back.
	FlushInterval float64
	// FlushBatch caps pages written per checkpoint round; default 128.
	FlushBatch int
	// RestartBackoff delays an aborted transaction's restart. Default:
	// exponential with 10 ms mean.
	RestartBackoff dist.Distribution
	// RollbackCPU is the fraction of an aborted attempt's completed CPU
	// work that must be repeated as rollback cost. Default 0.1.
	RollbackCPU float64
	// Seed derives the DB's internal random streams.
	Seed uint64
}

// Stats aggregates engine-level counters.
type Stats struct {
	Committed uint64
	Aborted   uint64 // abort events (a txn may abort multiple times)
	// FCWAborts counts snapshot-isolation first-committer-wins aborts
	// (included in Aborted).
	FCWAborts uint64
	// PagesFlushed counts dirty pages written back by the checkpointer.
	PagesFlushed uint64
	Lock         lockmgr.Stats
	PoolHits     uint64
	PoolMiss     uint64
}

// DB is a simulated database engine bound to a sim.Engine.
type DB struct {
	eng    *sim.Engine
	cfg    Config
	cpu    *cpusched.CPU
	array  *disk.Array
	logdev *disk.Log
	pool   *bufferpool.Pool
	locks  *lockmgr.Manager
	rng    *sim.RNG
	inside int
	stats  Stats
	// lastWrite records, per row key, the commit time of the newest
	// committed write — the version check for SI first-committer-wins.
	// An entry no older than every live attempt's snapshot can never
	// fail a check again, so it is swept out once the map has doubled
	// since the last sweep (pruneAt).
	lastWrite  map[uint64]float64
	pruneAt    int
	flushArmed bool
	// records holds every attempt record ever allocated, at its slot;
	// free holds the ones not running a transaction.
	records []*attempt
	free    []*attempt
}

// attempt is one execution attempt of a transaction. Records are
// recycled through the DB's free list once the commit's onDone has
// returned; an aborted attempt restarts in place under a fresh TxnID.
// Each record binds its continuations once, so driving a transaction
// through its lock, CPU, disk and log phases allocates nothing.
//
// An attempt's TxnID is gen<<32 | slot: its low half names the record's
// slot in DB.records, so the lock manager's abort notices find their
// record by index, and gen, bumped per attempt, keeps ids unique.
type attempt struct {
	id       lockmgr.TxnID
	slot     uint32
	gen      uint32
	profile  TxnProfile
	onDone   func(Result)
	start    float64 // dispatch time of the FIRST attempt
	began    float64 // start time of the CURRENT attempt (SI snapshot)
	restarts int
	opIdx    int
	pageIdx  int
	dead     bool // aborted, or committed and retired
	cpuJob   cpusched.Job
	diskReq  disk.Request
	diskDev  *disk.Disk
	writes   []uint64 // row keys written (SI version check)

	granted func() // lock granted after a wait: run the CPU burst
	cpuDone func() // CPU burst finished: probe the op's pages
	ioDone  func() // page I/O finished: probe the next page
	logged  func() // commit record durable: finish the transaction
	backoff func() // rollback finished: wait out the restart backoff
	restart func() // backoff over: start the next attempt
}

// New builds a DB. The zero-value defaults documented on Config apply.
func New(eng *sim.Engine, cfg Config) (*DB, error) {
	if cfg.CPUs < 1 {
		return nil, fmt.Errorf("dbms: CPUs %d must be >= 1", cfg.CPUs)
	}
	if cfg.Disks < 1 {
		return nil, fmt.Errorf("dbms: Disks %d must be >= 1", cfg.Disks)
	}
	if cfg.CPUSpeed == 0 {
		cfg.CPUSpeed = 1
	}
	if cfg.CPUSpeed < 0 {
		return nil, fmt.Errorf("dbms: CPUSpeed %v must be positive", cfg.CPUSpeed)
	}
	if cfg.LogService == nil {
		cfg.LogService = dist.NewDeterministic(0.001)
	}
	if cfg.DiskService == nil {
		cfg.DiskService = dist.NewExponential(0.01)
	}
	if cfg.BufferPoolPages < 1 {
		cfg.BufferPoolPages = 1
	}
	if cfg.HighCPUWeight == 0 {
		cfg.HighCPUWeight = 20
	}
	if cfg.LowCPUWeight == 0 {
		cfg.LowCPUWeight = 1
	}
	if cfg.RestartBackoff == nil {
		cfg.RestartBackoff = dist.NewExponential(0.01)
	}
	if cfg.RollbackCPU == 0 {
		cfg.RollbackCPU = 0.1
	}
	rng := sim.NewRNG(cfg.Seed, 1000)
	db := &DB{
		eng:       eng,
		cfg:       cfg,
		cpu:       cpusched.New(eng, cfg.CPUs),
		array:     disk.NewArray(eng, cfg.Disks, cfg.DiskService, rng.Fork()),
		logdev:    disk.NewLog(eng, cfg.LogService, rng.Fork()),
		pool:      bufferpool.New(cfg.BufferPoolPages),
		rng:       rng,
		lastWrite: make(map[uint64]float64),
	}
	db.logdev.SetGroupCommit(cfg.GroupCommit)
	if db.cfg.FlushInterval > 0 && db.cfg.FlushBatch <= 0 {
		db.cfg.FlushBatch = 128
	}
	db.locks = lockmgr.New(eng, lockmgr.Config{
		Policy:  cfg.LockPolicy,
		Preempt: cfg.POW,
		OnAbort: db.abort,
	})
	return db, nil
}

// Inside returns the number of transactions currently executing
// (dispatched but not committed) — the quantity the MPL caps.
func (db *DB) Inside() int { return db.inside }

// Stats snapshots the counters.
func (db *DB) Stats() Stats {
	s := db.stats
	s.Lock = db.locks.Stats()
	s.PoolHits = db.pool.Hits()
	s.PoolMiss = db.pool.Misses()
	return s
}

// CPUUtilization returns mean busy cores / total cores since start.
func (db *DB) CPUUtilization() float64 {
	if db.eng.Now() == 0 {
		return 0
	}
	return db.cpu.BusyCoreSeconds() / (db.eng.Now() * float64(db.cfg.CPUs))
}

// DiskUtilization returns mean data-disk utilization since start.
func (db *DB) DiskUtilization() float64 {
	if db.eng.Now() == 0 {
		return 0
	}
	busy := 0.0
	for _, d := range db.array.Disks() {
		busy += d.BusySeconds()
	}
	return busy / (db.eng.Now() * float64(db.cfg.Disks))
}

// CPUSpeed returns the current CPU speed multiplier.
func (db *DB) CPUSpeed() float64 { return db.cfg.CPUSpeed }

// SetCPUSpeed changes the CPU speed multiplier mid-run (a cluster
// shard slowing down or recovering). It applies to CPU bursts that
// START after the call; a burst already on a core finishes at the
// speed it was submitted at. Must be called from the engine's
// goroutine (event callbacks), like every other DB entry point.
func (db *DB) SetCPUSpeed(speed float64) {
	if speed <= 0 {
		panic(fmt.Sprintf("dbms: CPUSpeed %v must be positive", speed))
	}
	db.cfg.CPUSpeed = speed
}

// Pool exposes the buffer pool (for warmup in experiments).
func (db *DB) Pool() *bufferpool.Pool { return db.pool }

// Log exposes the log device (for group-commit metrics).
func (db *DB) Log() *disk.Log { return db.logdev }

// Exec dispatches a transaction into the engine. onDone fires at
// commit with the result. The transaction restarts internally on
// aborts; onDone fires exactly once.
func (db *DB) Exec(profile TxnProfile, onDone func(Result)) {
	if len(profile.Ops) == 0 {
		panic("dbms: transaction profile has no operations")
	}
	db.inside++
	db.armFlusher()
	a := db.newAttempt()
	a.profile, a.onDone, a.start = profile, onDone, db.eng.Now()
	db.startAttempt(a)
}

// newAttempt takes a record off the free list, or allocates one at the
// next slot and binds its continuations.
func (db *DB) newAttempt() *attempt {
	if n := len(db.free); n > 0 {
		a := db.free[n-1]
		db.free[n-1] = nil
		db.free = db.free[:n-1]
		return a
	}
	a := &attempt{slot: uint32(len(db.records))}
	db.records = append(db.records, a)
	a.granted = func() { db.cpuPhase(a) }
	a.cpuDone = func() {
		a.cpuJob = cpusched.Job{}
		a.pageIdx = 0
		db.pagePhase(a)
	}
	a.ioDone = func() {
		a.diskReq, a.diskDev = disk.Request{}, nil
		db.pagePhase(a)
	}
	a.logged = func() { db.finish(a) }
	a.backoff = func() { db.eng.After(db.cfg.RestartBackoff.Sample(db.rng), a.restart) }
	a.restart = func() { db.startAttempt(a) }
	return a
}

// startAttempt begins (or re-begins) execution of a.
func (db *DB) startAttempt(a *attempt) {
	a.id = lockmgr.TxnID(uint64(a.gen)<<32 | uint64(a.slot))
	a.gen++
	a.opIdx = 0
	a.pageIdx = 0
	a.dead = false
	a.cpuJob = cpusched.Job{}
	a.diskReq, a.diskDev = disk.Request{}, nil
	a.began = db.eng.Now()
	a.writes = a.writes[:0]
	db.locks.Begin(a.id, a.profile.Class)
	db.runOp(a)
}

// armFlusher schedules the next checkpointer round if one isn't
// pending. The flusher disarms itself once the engine is idle (no
// active transactions and nothing dirty) so simulations can drain.
func (db *DB) armFlusher() {
	if db.cfg.FlushInterval <= 0 || db.flushArmed {
		return
	}
	db.flushArmed = true
	db.eng.After(db.cfg.FlushInterval, func() {
		db.flushArmed = false
		n := db.pool.CollectDirty(db.cfg.FlushBatch)
		for range n {
			// Write-back I/O competes with transaction reads on the
			// striped array; completion needs no continuation.
			db.array.SubmitIO(func() {})
		}
		db.stats.PagesFlushed += uint64(n)
		if db.inside > 0 || db.pool.DirtyCount() > 0 {
			db.armFlusher()
		}
	})
}

// cpuWeight maps a class to its CPU scheduling weight.
func (db *DB) cpuWeight(c lockmgr.Class) float64 {
	if !db.cfg.CPUPriority {
		return 1
	}
	if c == lockmgr.High {
		return db.cfg.HighCPUWeight
	}
	return db.cfg.LowCPUWeight
}

// runOp drives the current operation's lock phase.
func (db *DB) runOp(a *attempt) {
	if a.dead {
		return
	}
	if a.opIdx >= len(a.profile.Ops) {
		db.commit(a)
		return
	}
	op := a.profile.Ops[a.opIdx]
	if op.Write {
		a.writes = append(a.writes, op.Key)
	}
	needLock := op.Write || db.cfg.Isolation == RR
	if needLock {
		mode := lockmgr.S
		if op.Write {
			mode = lockmgr.X
		}
		granted := db.locks.Acquire(a.id, op.Key, mode, a.granted)
		if !granted {
			return // cpuPhase fires on grant (or the txn aborts)
		}
	}
	db.cpuPhase(a)
}

// cpuPhase runs the operation's CPU burst.
func (db *DB) cpuPhase(a *attempt) {
	if a.dead {
		return
	}
	op := a.profile.Ops[a.opIdx]
	work := op.CPUWork / db.cfg.CPUSpeed
	a.cpuJob = db.cpu.Submit(work, db.cpuWeight(a.profile.Class), a.cpuDone)
}

// pagePhase probes the buffer pool for the op's pages; misses issue
// serial disk I/O (index traversal order is dependent, as in a real
// engine).
func (db *DB) pagePhase(a *attempt) {
	if a.dead {
		return
	}
	op := &a.profile.Ops[a.opIdx]
	for a.pageIdx < len(op.Pages) {
		page := op.Pages[a.pageIdx]
		a.pageIdx++
		if db.pool.Access(page) {
			if op.Write && db.cfg.FlushInterval > 0 {
				db.pool.MarkDirty(page)
			}
			continue // hit: stay on CPU path (cost folded into CPUWork)
		}
		if op.Write && db.cfg.FlushInterval > 0 {
			db.pool.MarkDirty(page)
		}
		a.diskReq, a.diskDev = db.array.SubmitIO(a.ioDone)
		return
	}
	a.opIdx++
	db.runOp(a)
}

// commit validates (under SI), writes the log record, releases locks
// and reports the result.
func (db *DB) commit(a *attempt) {
	if db.cfg.Isolation == SI {
		// First-committer-wins: any of our written rows committed by a
		// different transaction after our snapshot began forces an
		// abort and retry.
		for _, key := range a.writes {
			if t, ok := db.lastWrite[key]; ok && t > a.began {
				db.stats.FCWAborts++
				db.abort(a.id, lockmgr.Deadlock /* reason reused for restart path */)
				return
			}
		}
	}
	db.logdev.Append(a.logged)
}

// finish commits a once its log record is durable, reports the result
// and recycles the record after onDone returns.
func (db *DB) finish(a *attempt) {
	if a.dead {
		return
	}
	// Retire the attempt before its record is reused: a late abort
	// notice for a.id must find nothing.
	a.dead = true
	if db.cfg.Isolation == SI {
		now := db.eng.Now()
		for _, key := range a.writes {
			db.lastWrite[key] = now
		}
		if len(db.lastWrite) >= db.pruneAt {
			db.pruneWrites()
		}
	}
	db.locks.Release(a.id)
	db.inside--
	db.stats.Committed++
	a.onDone(Result{
		Restarts:   a.restarts,
		InsideTime: db.eng.Now() - a.start,
		Class:      a.profile.Class,
	})
	a.profile, a.onDone, a.restarts = TxnProfile{}, nil, 0
	db.free = append(db.free, a)
}

// pruneWrites sweeps out of lastWrite every entry no newer than the
// oldest snapshot of a live attempt. Such an entry can never fail a
// first-committer-wins check again: every live attempt began at or
// after it, and an aborted one re-begins at a later restart. With no
// live attempt the map empties. The next sweep waits until the map has
// doubled (and grown by at least the record count), so sweeps cost O(1)
// per committed write.
func (db *DB) pruneWrites() {
	oldest := math.Inf(1)
	for _, r := range db.records {
		if !r.dead {
			oldest = min(oldest, r.began)
		}
	}
	if math.IsInf(oldest, 1) {
		clear(db.lastWrite)
	} else {
		for key, t := range db.lastWrite {
			if t <= oldest {
				delete(db.lastWrite, key)
			}
		}
	}
	db.pruneAt = 2 * max(len(db.lastWrite), len(db.records), 32)
}

// abort is the lock manager's victim callback: roll back, pay the
// rollback cost, restart after a backoff. Notices for an attempt that
// has since committed or aborted are ignored.
func (db *DB) abort(id lockmgr.TxnID, _ lockmgr.AbortReason) {
	a := db.records[uint32(id)]
	if a.id != id || a.dead {
		return
	}
	a.dead = true
	db.stats.Aborted++
	a.restarts++
	// Cancel in-flight resource usage (defensive: victims are normally
	// blocked on a lock, not running).
	db.cpu.Cancel(a.cpuJob)
	a.cpuJob = cpusched.Job{}
	if a.diskDev != nil {
		a.diskDev.Cancel(a.diskReq)
		a.diskReq, a.diskDev = disk.Request{}, nil
	}
	db.locks.Release(id)
	// Rollback cost: repeat a fraction of the work done so far on the
	// CPU (undo processing), then back off and restart.
	doneWork := 0.0
	for i := 0; i < a.opIdx && i < len(a.profile.Ops); i++ {
		doneWork += a.profile.Ops[i].CPUWork
	}
	rollback := doneWork * db.cfg.RollbackCPU / db.cfg.CPUSpeed
	if rollback > 0 {
		db.cpu.Submit(rollback, db.cpuWeight(a.profile.Class), a.backoff)
	} else {
		a.backoff()
	}
}
