package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"time"

	"extsched"
	"extsched/gate"
	"extsched/internal/bufferpool"
	"extsched/internal/cluster"
	"extsched/internal/core"
	"extsched/internal/cpusched"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/disk"
	"extsched/internal/dist"
	"extsched/internal/fairness"
	"extsched/internal/lockmgr"
	"extsched/internal/sim"
	"extsched/internal/stats"
	"extsched/internal/workload"
)

// modelSpec is the operating point a workload puts the layers at. A
// drill drives one layer's public functions with inputs generated from
// it and times the calls. Every traced run drills every layer, so each
// reports the full per-layer set; live workloads, which run no DBMS,
// drill the model layers on setup 1 at the gate's limit.
type modelSpec struct {
	live        bool
	setupID     int
	seed        uint64
	mpl         int // per backend
	policy      string
	shards      int // 0: unsharded
	dispatch    string
	tenants     []extsched.TenantSpec
	deadlines   map[int]float64 // admission deadline by class
	strict      bool            // strict per-tenant partitions
	samples     int             // percentile reservoir size; 0: none
	concurrency float64         // mean transactions inside one backend
	inside      float64         // mean seconds inside the backend
	clients     int             // closed population; 0: open arrivals
	lambda      float64         // open arrival rate per backend

	// Taken from the workload's own run.
	routeImbalance            float64
	fairIterations, fairMoves int
	extWaitFrac, shedFrac     float64
}

// drillBudget is each drill's measured wall time.
func drillBudget(o options) time.Duration {
	return time.Duration(math.Min(math.Max(o.seconds/20, 0.01), 0.3) * float64(time.Second))
}

// stepFor fires events of eng until d of wall time has passed.
func stepFor(eng *sim.Engine, d time.Duration) {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for i := 0; i < 1024 && eng.Step(); i++ {
		}
	}
}

// repeatFor calls fn in batches of 256 until d of wall time has passed
// and returns the number of calls.
func repeatFor(d time.Duration, fn func(i int)) int {
	n := 0
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for i := 0; i < 256; i++ {
			fn(n + i)
		}
		n += 256
	}
	return n
}

func (m modelSpec) generator(setup workload.Setup) (*workload.Generator, error) {
	gen, err := workload.NewGenerator(setup.Workload, m.seed)
	if err != nil {
		return nil, err
	}
	if len(m.tenants) > 0 {
		mix := make([]workload.TenantMix, len(m.tenants))
		for i, t := range m.tenants {
			mix[i] = workload.TenantMix{Class: lockmgr.Class(i), Share: t.Share, SizeMean: t.SizeMean, SizeC2: t.SizeC2}
		}
		if err := gen.SetMix(mix); err != nil {
			return nil, err
		}
	}
	return gen, nil
}

func (m modelSpec) weights() map[core.Class]float64 {
	if len(m.tenants) == 0 {
		return nil
	}
	w := make(map[core.Class]float64, len(m.tenants))
	for i, t := range m.tenants {
		w[core.Class(i)] = max(t.Weight, 1)
	}
	return w
}

// Sinks keep drilled results alive so the compiler cannot drop calls.
var (
	profileSink dbms.TxnProfile
	boolSink    bool
	intSink     int
)

// drillAll runs every drill and sets the per-layer metrics. hostUS is
// the host time of one end-to-end operation: a committed transaction,
// or a live request's mean latency.
func drillAll(m modelSpec, o options, hostUS float64, r *report) error {
	budget := drillBudget(o)
	setup, err := workload.SetupByID(m.setupID)
	if err != nil {
		return err
	}
	var (
		next, locks, pool, cpu, dsk, eng, coreD, pick, res, reqs float64
		nextAllocs, nextBytes                                    float64
		db, fe                                                   loopStats
		g                                                        gateStats
		speedup                                                  float64
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"workload", func() (err error) { next, nextAllocs, nextBytes, err = drillGenerator(m, setup, budget); return }},
		{"dbms", func() (err error) { db, fe, err = dbLoops(m, setup, budget); return }},
		{"sim", func() error { eng = drillEngine(max(db.pending, 1), budget); return nil }},
		{"lockmgr", func() (err error) { locks, reqs, err = drillLocks(m, setup, budget); return }},
		{"bufferpool", func() (err error) { pool, err = drillPool(m, setup, budget, r); return }},
		{"cpusched", func() (err error) { cpu, err = drillCPU(m, setup, budget); return }},
		{"disk", func() error { dsk = drillDisk(m, setup, budget); return nil }},
		{"core", func() (err error) { coreD, err = drillCore(m, budget, r); return }},
		{"cluster", func() (err error) { pick, err = drillPick(m, budget); return }},
		{"stats", func() error { res = drillReservoir(m, budget); return nil }},
		{"gate", func() (err error) { g, err = drillGate(m, budget); return }},
		{"parallel", func() (err error) { speedup, err = drillParallel(o, r); return }},
	}
	for _, s := range steps {
		r.calibrate()
		if err := o.spans.timed("drill/"+s.name, s.fn); err != nil {
			return fmt.Errorf("drill %s: %w", s.name, err)
		}
	}

	c := float64(db.committed)
	st := db.stats
	lockReqs := float64(st.Lock.Grants) / c
	accesses := float64(st.PoolHits+st.PoolMiss) / c
	ios := float64(st.PoolMiss) / c
	bursts := db.opsPerTxn * (1 + float64(st.Aborted)/c)
	dbmsUS := db.usPerTxn - next/1e3
	children := lockReqs*locks + accesses*pool + bursts*cpu + (ios+db.flushes)*dsk

	r.set("sim.events_per_txn", db.events, "count")
	r.hostTime("sim.event_ns", eng, "ns")
	r.set("sim.parallel_speedup", speedup, "x")
	r.hostTime("workload.next_ns", next, "ns")
	r.set("workload.allocs_per_txn", nextAllocs, "count")
	r.hostTime("dbms.us_per_txn", dbmsUS, "us")
	r.hostTime("dbms.self_us_per_txn", dbmsUS-children/1e3, "us")
	r.set("dbms.allocs_per_txn", db.allocs-nextAllocs, "count")
	r.set("dbms.bytes_per_txn", db.bytes-nextBytes, "B")
	r.set("dbms.commit_ratio", c/float64(st.Committed+st.Aborted), "frac")
	r.hostTime("dbfe.us_per_txn", fe.usPerTxn-db.usPerTxn, "us")
	r.set("cpusched.submits_per_txn", bursts, "count")
	r.hostTime("cpusched.submit_ns", cpu, "ns")
	r.set("cpusched.util", db.cpuUtil, "frac")
	r.set("disk.ios_per_txn", ios, "count")
	r.set("disk.log_flushes_per_txn", db.flushes, "count")
	r.hostTime("disk.submit_ns", dsk, "ns")
	r.set("disk.util", db.diskUtil, "frac")
	r.set("lockmgr.requests_per_txn", lockReqs, "count")
	r.set("lockmgr.wait_ratio", float64(st.Lock.Waits)/float64(max(st.Lock.Grants, 1)), "frac")
	r.set("lockmgr.deadlocks_per_ktxn", float64(st.Lock.Deadlocks)*1e3/c, "count")
	r.hostTime("lockmgr.acquire_release_ns", locks, "ns")
	r.set("lockmgr.allocs_per_request", reqs, "count")
	r.set("bufferpool.accesses_per_txn", accesses, "count")
	r.set("bufferpool.hit_ratio", float64(st.PoolHits)/float64(max(st.PoolHits+st.PoolMiss, 1)), "frac")
	r.hostTime("bufferpool.access_ns", pool, "ns")
	r.hostTime("core.submit_complete_ns", coreD, "ns")
	r.set("core.ext_wait_frac", m.extWaitFrac, "frac")
	r.set("core.shed_frac", m.shedFrac, "frac")
	r.hostTime("cluster.pick_ns", pick, "ns")
	r.set("cluster.route_imbalance", m.routeImbalance, "frac")
	r.set("fairness.iterations", float64(m.fairIterations), "count")
	r.set("fairness.moves", float64(m.fairMoves), "count")
	r.hostTime("stats.reservoir_add_ns", res, "ns")
	r.hostTime("gate.acquire_ns_p50", g.acquireP50, "ns")
	r.hostTime("gate.acquire_ns_p99", g.acquireP99, "ns")
	r.hostTime("gate.release_ns_p50", g.releaseP50, "ns")
	r.hostTime("gate.self_ns_p50", g.selfP50, "ns")
	r.set("gate.allocs_per_req", g.allocs, "count")

	// Coverage: the share of one operation's host time the drills of
	// the layers on its path account for. The dbfe loop contains the
	// generator, the frontend and the whole DBMS model.
	covered := g.acquireP50 + g.releaseP50
	if !m.live {
		covered = fe.usPerTxn * 1e3
		if m.shards > 0 {
			covered += pick
		}
		if m.samples > 0 {
			covered += res
		}
	}
	r.set("trace.coverage", covered/(hostUS*1e3), "frac")
	r.hostTime("runner.us_per_txn", hostUS-covered/1e3, "us")
	return nil
}

// drillGenerator times Generator.Next on the workload's mix.
func drillGenerator(m modelSpec, setup workload.Setup, budget time.Duration) (ns, allocs, bytes float64, err error) {
	gen, err := m.generator(setup)
	if err != nil {
		return 0, 0, 0, err
	}
	var n int
	c, _ := measure(func() error {
		n = repeatFor(budget, func(int) { profileSink = gen.Next() })
		return nil
	})
	return float64(c.wall.Nanoseconds()) / float64(n), float64(c.mallocs) / float64(n), float64(c.bytes) / float64(n), nil
}

// loopStats is what a closed loop of transactions into one DBMS
// measured, per committed transaction.
type loopStats struct {
	usPerTxn, allocs, bytes float64 // host cost, generator included
	events                  float64 // engine events
	opsPerTxn               float64 // operations submitted
	flushes                 float64 // log flushes
	committed               uint64
	stats                   dbms.Stats // deltas over the measured stretches
	cpuUtil, diskUtil       float64
	pending                 int // engine events pending at the end
}

// closedLoop keeps the workload's mean concurrency of transactions
// inside one DBMS, each client submitting its next transaction at the
// commit of its last: straight into DB.Exec, or through a dbfe
// frontend with the workload's per-backend MPL and policy.
type closedLoop struct {
	eng            *sim.Engine
	db             *dbms.DB
	committed, ops uint64
	// Per measured stretch: host µs, allocations and bytes per commit.
	costs, allocs, bytes []float64
	sum                  loopStats // counts summed over the measured stretches
}

func newClosedLoop(m modelSpec, setup workload.Setup, viaFrontend bool) (*closedLoop, error) {
	l := &closedLoop{eng: sim.NewEngine()}
	db, err := dbms.New(l.eng, setup.BuildConfig(workload.DBOptions{Seed: m.seed}))
	if err != nil {
		return nil, err
	}
	l.db = db
	workload.Prewarm(db, setup.Workload, m.seed)
	gen, err := m.generator(setup)
	if err != nil {
		return nil, err
	}
	var fe *dbfe.Frontend
	if viaFrontend {
		policy, err := core.NewPolicy(m.policy, m.weights())
		if err != nil {
			return nil, err
		}
		fe = dbfe.New(l.eng, db, m.mpl, policy)
	}
	var submit func()
	onCommit := func(dbms.Result) { l.committed++; submit() }
	onTxn := func(*dbfe.Txn) { l.committed++; submit() }
	submit = func() {
		p := gen.Next()
		l.ops += uint64(len(p.Ops))
		if fe != nil {
			fe.SubmitCB(p, onTxn)
		} else {
			db.Exec(p, onCommit)
		}
	}
	for i := 0; i < max(1, int(math.Round(m.concurrency))); i++ {
		submit()
	}
	return l, nil
}

// stretch runs the loop for d of wall time and records its cost.
func (l *closedLoop) stretch(d time.Duration) {
	c0, ops0, ev0, st0, fl0 := l.committed, l.ops, l.eng.Processed(), l.db.Stats(), l.db.Log().Flushes()
	c, _ := measure(func() error { stepFor(l.eng, d); return nil })
	n := float64(l.committed - c0)
	if n == 0 {
		return
	}
	l.costs = append(l.costs, c.wall.Seconds()*1e6/n)
	l.allocs = append(l.allocs, float64(c.mallocs)/n)
	l.bytes = append(l.bytes, float64(c.bytes)/n)
	st := l.db.Stats()
	s := &l.sum
	s.committed += l.committed - c0
	s.opsPerTxn += float64(l.ops - ops0)
	s.events += float64(l.eng.Processed() - ev0)
	s.flushes += float64(l.db.Log().Flushes() - fl0)
	s.stats.Committed += st.Committed - st0.Committed
	s.stats.Aborted += st.Aborted - st0.Aborted
	s.stats.Lock.Grants += st.Lock.Grants - st0.Lock.Grants
	s.stats.Lock.Waits += st.Lock.Waits - st0.Lock.Waits
	s.stats.Lock.Deadlocks += st.Lock.Deadlocks - st0.Lock.Deadlocks
	s.stats.PoolHits += st.PoolHits - st0.PoolHits
	s.stats.PoolMiss += st.PoolMiss - st0.PoolMiss
}

func (l *closedLoop) result() loopStats {
	s := l.sum
	n := float64(s.committed)
	s.usPerTxn, s.allocs, s.bytes = median(l.costs), median(l.allocs), median(l.bytes)
	s.opsPerTxn /= n
	s.events /= n
	s.flushes /= n
	s.cpuUtil, s.diskUtil = l.db.CPUUtilization(), l.db.DiskUtilization()
	s.pending = l.eng.Pending()
	return s
}

// dbLoops runs the direct and the frontend loop in alternating
// stretches, so drift of the host hits both alike; the frontend's cost
// is the difference of the two.
func dbLoops(m modelSpec, setup workload.Setup, budget time.Duration) (direct, viaFE loopStats, err error) {
	var loops [2]*closedLoop
	for i := range loops {
		if loops[i], err = newClosedLoop(m, setup, i == 1); err != nil {
			return loopStats{}, loopStats{}, err
		}
		stepFor(loops[i].eng, budget/4)
	}
	for i := 0; i < 16; i++ {
		loops[i%2].stretch(budget / 4)
	}
	for _, l := range loops {
		if l.sum.committed == 0 {
			return loopStats{}, loopStats{}, fmt.Errorf("no transaction committed")
		}
	}
	return loops[0].result(), loops[1].result(), nil
}

// drillEngine times one event's schedule and firing against a standing
// population of pending events, each of which reschedules itself.
func drillEngine(pending int, budget time.Duration) float64 {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1, 11)
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = rng.ExpFloat64()
	}
	k := 0
	var fire func()
	fire = func() {
		k++
		eng.After(delays[k&4095], fire)
	}
	for i := 0; i < pending; i++ {
		eng.After(delays[i&4095], fire)
	}
	n := 0
	c, _ := measure(func() error {
		n = repeatFor(budget, func(int) { eng.Step() })
		return nil
	})
	return float64(c.wall.Nanoseconds()) / float64(n)
}

// drillLocks times strict-2PL lock requests of the workload's
// transactions, one transaction at a time: Begin, one request per
// locked operation, Release. It returns ns and allocations per request.
func drillLocks(m modelSpec, setup workload.Setup, budget time.Duration) (ns, allocs float64, err error) {
	gen, err := m.generator(setup)
	if err != nil {
		return 0, 0, err
	}
	profiles := make([]dbms.TxnProfile, 1024)
	for i := range profiles {
		profiles[i] = gen.Next()
	}
	mgr := lockmgr.New(sim.NewEngine(), lockmgr.Config{OnAbort: func(lockmgr.TxnID, lockmgr.AbortReason) {}})
	var requests int
	c, _ := measure(func() error {
		repeatFor(budget, func(i int) {
			p := profiles[i&1023]
			id := lockmgr.TxnID(i + 1)
			mgr.Begin(id, p.Class)
			for _, op := range p.Ops {
				switch {
				case op.Write:
					boolSink = mgr.Acquire(id, op.Key, lockmgr.X, nil)
				case setup.Isolation == dbms.RR:
					boolSink = mgr.Acquire(id, op.Key, lockmgr.S, nil)
				default:
					continue
				}
				requests++
			}
			mgr.Release(id)
		})
		return nil
	})
	if requests == 0 {
		return 0, 0, fmt.Errorf("the workload takes no locks")
	}
	return float64(c.wall.Nanoseconds()) / float64(requests), float64(c.mallocs) / float64(requests), nil
}

// drillPool times buffer-pool construction, prewarming, and page
// accesses drawn from the workload's pattern against a prewarmed pool.
func drillPool(m modelSpec, setup workload.Setup, budget time.Duration, r *report) (ns float64, err error) {
	spec := setup.Workload
	var newMS, warmMS []float64
	var db *dbms.DB
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		boolSink = bufferpool.New(spec.BufferPoolPages).Capacity() > 0
		newMS = append(newMS, time.Since(t0).Seconds()*1e3)
		db, err = dbms.New(sim.NewEngine(), setup.BuildConfig(workload.DBOptions{Seed: m.seed}))
		if err != nil {
			return 0, err
		}
		t0 = time.Now()
		workload.Prewarm(db, spec, m.seed)
		warmMS = append(warmMS, time.Since(t0).Seconds()*1e3)
	}
	r.hostTime("bufferpool.new_ms", median(newMS), "ms")
	r.hostTime("bufferpool.prewarm_ms", median(warmMS), "ms")

	pool := db.Pool()
	pat := spec.Pattern()
	rng := sim.NewRNG(m.seed, 13)
	pages := make([]uint64, 1<<16)
	for i := range pages {
		pages[i] = pat.Sample(rng)
	}
	var n int
	c, _ := measure(func() error {
		n = repeatFor(budget, func(i int) { boolSink = pool.Access(pages[i&(1<<16-1)]) })
		return nil
	})
	r.set("bufferpool.allocs_per_access", float64(c.mallocs)/float64(n), "count")
	return float64(c.wall.Nanoseconds()) / float64(n), nil
}

// drillCPU times processor-sharing bursts of the workload's operations
// with its mean concurrency of jobs resident: each completion submits
// the next burst. It returns ns per burst, completion event included.
func drillCPU(m modelSpec, setup workload.Setup, budget time.Duration) (float64, error) {
	gen, err := m.generator(setup)
	if err != nil {
		return 0, err
	}
	var works []float64
	for len(works) < 4096 {
		for _, op := range gen.Next().Ops {
			works = append(works, op.CPUWork)
		}
	}
	eng := sim.NewEngine()
	cpu := cpusched.New(eng, setup.CPUs)
	submitted := 0
	var done func()
	done = func() {
		submitted++
		cpu.Submit(works[submitted%len(works)], 1, done)
	}
	for i := 0; i < max(1, int(math.Round(m.concurrency))); i++ {
		done()
	}
	stepFor(eng, budget/4)
	s0 := submitted
	c, _ := measure(func() error { stepFor(eng, budget); return nil })
	return float64(c.wall.Nanoseconds()) / float64(submitted-s0), nil
}

// drillDisk times I/Os on the setup's striped array with the mean
// concurrency outstanding; each completion submits the next.
func drillDisk(m modelSpec, setup workload.Setup, budget time.Duration) float64 {
	eng := sim.NewEngine()
	svc := setup.Workload.DiskService
	if svc == nil {
		svc = dist.NewExponential(0.01)
	}
	arr := disk.NewArray(eng, setup.Disks, svc, sim.NewRNG(m.seed, 17))
	submitted := 0
	var done func()
	done = func() {
		submitted++
		arr.SubmitIO(done)
	}
	for i := 0; i < max(1, int(math.Round(m.concurrency))); i++ {
		done()
	}
	stepFor(eng, budget/4)
	s0 := submitted
	c, _ := measure(func() error { stepFor(eng, budget); return nil })
	return float64(c.wall.Nanoseconds()) / float64(submitted-s0)
}

// coreDrill feeds a core frontend the workload's arrivals (its closed
// population, or Poisson arrivals at its per-backend rate) over a
// backend that holds each admitted item for an exponential time with
// the workload's mean inside time.
type coreDrill struct {
	eng       *sim.Engine
	fe        *core.Frontend
	rng       *sim.RNG
	inside    float64
	shares    []float64 // cumulative tenant shares; nil: every item class 0
	free      []*coreItem
	done      func(*core.Item) // d.finish, bound once
	closed    bool
	items     uint64 // completed or shed
	allocated uint64 // coreItems the drill allocated
}

type coreItem struct {
	it   core.Item
	fire func()
}

func (d *coreDrill) Exec(it *core.Item) {
	d.eng.After(d.rng.ExpFloat64()*d.inside, it.Payload.(*coreItem).fire)
}

func (d *coreDrill) finish(it *core.Item) {
	d.items++
	// A shed item may sit in the queue until its lazy discard, so only
	// completed items are reused.
	if !it.WasShed() {
		d.free = append(d.free, it.Payload.(*coreItem))
	}
	if d.closed {
		d.arrive()
	}
}

func (d *coreDrill) arrive() {
	var ci *coreItem
	if n := len(d.free); n > 0 {
		ci = d.free[n-1]
		d.free = d.free[:n-1]
		ci.it = core.Item{}
	} else {
		ci = &coreItem{}
		ci.fire = func() { d.fe.Complete(&ci.it, core.Outcome{InsideTime: d.eng.Now() - ci.it.Dispatch}) }
		d.allocated++
	}
	if d.shares != nil {
		u := d.rng.Float64()
		for c, s := range d.shares {
			if u < s || c == len(d.shares)-1 {
				ci.it.Class = core.Class(c)
				break
			}
		}
	}
	ci.it.SizeHint = d.inside
	ci.it.Payload = ci
	d.fe.Submit(&ci.it, d.done)
}

// drillCore times one item's submit, admission and completion through
// a core frontend with the workload's policy, tenant weights,
// partitions and deadlines, the drill's two engine events included.
func drillCore(m modelSpec, budget time.Duration, r *report) (float64, error) {
	weights := m.weights()
	policy, err := core.NewPolicy(m.policy, weights)
	if err != nil {
		return 0, err
	}
	d := &coreDrill{eng: sim.NewEngine(), rng: sim.NewRNG(m.seed, 19), inside: max(m.inside, 1e-6), closed: m.clients > 0}
	d.fe = core.New(d.eng.Clock(), d, m.mpl, policy)
	d.done = d.finish
	for c, dl := range m.deadlines {
		d.fe.SetAdmitDeadline(core.Class(c), dl)
	}
	if m.strict && weights != nil {
		d.fe.SetClassLimits(fairness.Allocate(m.mpl, weights))
		d.fe.SetStrictPartition(true)
	}
	total := 0.0
	for _, t := range m.tenants {
		total += t.Share
		d.shares = append(d.shares, total)
	}
	if d.closed {
		for i := 0; i < m.clients; i++ {
			d.arrive()
		}
	} else {
		var tick func()
		tick = func() {
			d.arrive()
			d.eng.After(d.rng.ExpFloat64()/m.lambda, tick)
		}
		tick()
	}
	stepFor(d.eng, budget/4)
	i0, a0 := d.items, d.allocated
	c, _ := measure(func() error { stepFor(d.eng, budget); return nil })
	n := float64(d.items - i0)
	if n == 0 {
		return 0, fmt.Errorf("no item completed")
	}
	// Each new coreItem is two allocations of the drill's own: the
	// record and its completion closure.
	r.set("core.allocs_per_txn", (float64(c.mallocs)-2*float64(d.allocated-a0))/n, "count")
	return float64(c.wall.Nanoseconds()) / n, nil
}

// drillPick times the dispatch decision over the workload's fleet (4
// pick-only shards under "jsq" for an unsharded workload): real
// frontends whose load counters the pick reads, and no DBMS behind
// them, since a dry-run Pick never dispatches.
func drillPick(m modelSpec, budget time.Duration) (float64, error) {
	n, name := m.shards, m.dispatch
	if n == 0 {
		n, name = 4, "jsq"
	}
	eng := sim.NewEngine()
	shards := make([]cluster.Shard, n)
	for i := range shards {
		shards[i] = cluster.Shard{FE: dbfe.New(eng, nil, 1, nil)}
	}
	p, err := cluster.NewPolicySeeded(name, m.seed)
	if err != nil {
		return 0, err
	}
	d, err := cluster.NewDispatcher(p, shards)
	if err != nil {
		return 0, err
	}
	var calls int
	c, _ := measure(func() error {
		calls = repeatFor(budget, func(int) { intSink = d.Pick(core.ClassLow, 1) })
		return nil
	})
	return float64(c.wall.Nanoseconds()) / float64(calls), nil
}

// drillReservoir times one response time offered to a percentile
// reservoir of the workload's size (4000 when it samples none).
func drillReservoir(m modelSpec, budget time.Duration) float64 {
	size := m.samples
	if size == 0 {
		size = 4000
	}
	res := stats.NewReservoir(size, sim.NewRNG(m.seed, 23))
	rng := sim.NewRNG(m.seed, 29)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.ExpFloat64()
	}
	var n int
	c, _ := measure(func() error {
		n = repeatFor(budget, func(i int) { res.Add(vals[i&4095]) })
		return nil
	})
	return float64(c.wall.Nanoseconds()) / float64(n)
}

type gateStats struct {
	acquireP50, acquireP99, releaseP50, selfP50, allocs float64
}

// drillGate times the live gate at the workload's limit and policy:
// two clients calling Acquire and Release with no HTTP, then two
// clients through Middleware, where the gate's own time is a request's
// duration minus its handler's.
func drillGate(m modelSpec, budget time.Duration) (gateStats, error) {
	const clients = 2
	policy := gate.Policy(m.policy)
	if policy == "" {
		policy = gate.FIFO
	}
	g, err := gate.New(gate.Config{Limit: m.mpl, Policy: policy})
	if err != nil {
		return gateStats{}, err
	}
	acq, rel := make([]histogram, clients), make([]histogram, clients)
	errs := make([]error, clients)
	ctx := context.Background()
	var wg sync.WaitGroup
	c, _ := measure(func() error {
		wg.Add(clients)
		for i := 0; i < clients; i++ {
			go func() {
				defer wg.Done()
				deadline := time.Now().Add(budget)
				for n := 0; n&255 != 0 || time.Now().Before(deadline); n++ {
					t0 := time.Now()
					tk, err := g.Acquire(ctx)
					t1 := time.Now()
					if err != nil {
						errs[i] = err
						return
					}
					tk.Release(gate.Result{})
					acq[i].add(int64(t1.Sub(t0)))
					rel[i].add(int64(time.Since(t1)))
				}
			}()
		}
		wg.Wait()
		return nil
	})
	if err := errors.Join(errs...); err != nil {
		return gateStats{}, err
	}
	for i := 1; i < clients; i++ {
		acq[0].merge(&acq[i])
		rel[0].merge(&rel[i])
	}
	gs := gateStats{
		acquireP50: acq[0].quantile(0.5),
		acquireP99: acq[0].quantile(0.99),
		releaseP50: rel[0].quantile(0.5),
		allocs:     float64(c.mallocs) / float64(acq[0].n),
	}

	self := make([]histogram, clients)
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			var hStart, hEnd time.Time
			h := gate.Middleware(g, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				hStart = time.Now()
				w.WriteHeader(http.StatusOK)
				hEnd = time.Now()
			}))
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			deadline := time.Now().Add(budget)
			for n := 0; n&255 != 0 || time.Now().Before(deadline); n++ {
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, req)
				self[i].add(int64(time.Since(t0) - hEnd.Sub(hStart)))
			}
		}()
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		self[0].merge(&self[i])
	}
	gs.selfP50 = self[0].quantile(0.5)
	return gs, nil
}

// drillParallel runs a shortened open-io-sharded round on the
// sequential and the parallel engine, alternately, checks that the two
// agree, and returns the sequential ÷ parallel host time.
func drillParallel(o options, r *report) (float64, error) {
	w, _ := workloadByName("open-io-sharded")
	cfg := w.sim.cfg
	cfg.Seed = o.seed
	sys, err := extsched.NewSystem(cfg)
	if err != nil {
		return 0, err
	}
	seq := w.sim.scenario(o.scale / 8)
	par := seq
	par.ParallelShards = true
	var seqWall, parWall []float64
	var want extsched.Report
	for i := 0; i < 6; i++ {
		sc := seq
		if i%2 == 1 {
			sc = par
		}
		t0 := time.Now()
		res, err := sys.Run(context.Background(), sc)
		if err != nil {
			return 0, err
		}
		wall := time.Since(t0).Seconds()
		if i == 0 {
			want = res.Total
		} else {
			r.check(reflect.DeepEqual(res.Total, want), "parallel_shards run %d differs from the sequential run", i)
		}
		if sc.ParallelShards {
			parWall = append(parWall, wall)
		} else {
			seqWall = append(seqWall, wall)
		}
	}
	return median(seqWall) / median(parWall), nil
}
