package gate

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"extsched/internal/sim"
	"extsched/internal/stats"
)

// vclock is a clock the test advances by hand; any goroutine may read
// it.
type vclock struct{ bits atomic.Uint64 }

func (c *vclock) Now() float64  { return math.Float64frombits(c.bits.Load()) }
func (c *vclock) set(t float64) { c.bits.Store(math.Float64bits(t)) }
func (c *vclock) After(float64, func()) sim.Timer {
	panic("gate: the virtual clock arms no timers")
}

// vload drives a gate on a virtual clock with a deterministic
// closed-loop load: every client re-acquires the moment its work
// finishes, and an admitted ticket waits FIFO for one of capacity units
// of a guarded resource, holds it for hold seconds, and is released.
// Each Acquire runs on its own goroutine (a queued one blocks), but
// only the test goroutine advances the clock and releases tickets, and
// it waits after every step until the gate has settled — each issued
// request either queued or admitted and handed over — so a run is a
// pure function of its inputs, just like a simulated one.
type vload struct {
	t        *testing.T
	g        *Gate
	ck       *vclock
	capacity int
	hold     float64
	ctx      context.Context
	// got carries admitted tickets to the test goroutine; it holds one
	// per client, so no acquire goroutine ever blocks on it.
	got chan Ticket
	// issued counts Acquire calls, received the tickets handed over.
	issued, received int
	// waiting holds admitted tickets queued for the resource; running
	// those holding it, in finish order (every hold is equal).
	waiting []Ticket
	running []vjob
}

type vjob struct {
	tk     Ticket
	finish float64
}

// newVLoad builds a gate from cfg on a fresh virtual clock and starts
// clients closed-loop clients on it, client i in class i%classes.
func newVLoad(t *testing.T, cfg Config, clients, classes, capacity int, hold float64) *vload {
	ck := &vclock{}
	cfg.clock = ck
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	v := &vload{t: t, g: g, ck: ck, capacity: capacity, hold: hold, ctx: ctx, got: make(chan Ticket, clients)}
	t.Cleanup(func() {
		cancel() // queued acquires return; their goroutines exit
		for _, tk := range v.waiting {
			tk.Release(Result{})
		}
		for _, j := range v.running {
			j.tk.Release(Result{})
		}
	})
	for i := 0; i < clients; i++ {
		v.acquire(Class(i % classes))
	}
	return v
}

// acquire issues one request and waits for the gate to settle.
func (v *vload) acquire(c Class) {
	v.issued++
	go func() {
		if tk, err := v.g.AcquireRequest(v.ctx, Request{Class: c}); err == nil {
			v.got <- tk
		}
	}()
	v.settle()
}

// settle waits until every issued request is either in the gate's queue
// or handed over, queues the newly admitted tickets for the resource —
// in arrival order, so goroutine scheduling cannot reorder them — and
// starts what the resource has room for.
func (v *vload) settle() {
	var batch []Ticket
	deadline := time.Now().Add(10 * time.Second)
	for v.issued-v.received != v.g.fe.QueueLen() {
		select {
		case tk := <-v.got:
			batch = append(batch, tk)
			v.received++
		default:
			if time.Now().After(deadline) {
				v.t.Fatal("gate did not settle")
			}
			runtime.Gosched()
		}
	}
	sort.Slice(batch, func(i, j int) bool {
		a, b := &batch[i].s.item, &batch[j].s.item
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.Class < b.Class
	})
	v.waiting = append(v.waiting, batch...)
	for len(v.running) < v.capacity && len(v.waiting) > 0 {
		v.running = append(v.running, vjob{tk: v.waiting[0], finish: v.ck.Now() + v.hold})
		v.waiting = v.waiting[1:]
	}
}

// run advances the virtual clock to until, releasing every ticket whose
// hold ends by then; each released client re-acquires at once.
func (v *vload) run(until float64) {
	for len(v.running) > 0 && v.running[0].finish <= until {
		j := v.running[0]
		v.running = v.running[1:]
		v.ck.set(j.finish)
		c := Class(j.tk.s.item.Class)
		j.tk.Release(Result{})
		v.acquire(c)
	}
	v.ck.set(until)
}

// converge runs until the auto-tuner converges, failing the test past
// the virtual deadline.
func (v *vload) converge(deadline float64) {
	for !v.g.TuneStatus().Converged {
		if v.ck.Now() >= deadline {
			v.t.Fatalf("controller did not converge in %v virtual seconds: %+v stats %+v", deadline, v.g.TuneStatus(), v.g.Stats())
		}
		v.run(v.ck.Now() + 0.05)
	}
}

// TestAutoTuneConvergesToCapacityVirtual is the deterministic twin of
// TestAutoTuneConvergesToCapacity: the same gate, load, resource and
// tuning targets, on a virtual clock, so the convergence claim is
// checked without wall-clock noise or a multi-second run.
func TestAutoTuneConvergesToCapacityVirtual(t *testing.T) {
	const capacity = 4
	v := newVLoad(t, Config{}, 32, 1, capacity, 0.001)
	v.run(0.2) // warm up
	v.g.ResetStats()
	v.run(1.2)
	reference := v.g.Stats().Throughput
	if reference <= 0 {
		t.Fatal("no reference throughput measured")
	}
	v.g.SetLimit(16)
	if err := v.g.EnableAutoTune(TuneConfig{
		MaxThroughputLoss:   0.15,
		ReferenceThroughput: reference,
		MinObservations:     50,
		MaxWindow:           500,
		MaxLimit:            64,
	}); err != nil {
		t.Fatal(err)
	}
	v.converge(30)
	st := v.g.TuneStatus()
	if st.Limit < capacity || st.Limit > 2*capacity {
		t.Errorf("converged limit = %d, want in [%d,%d] (status %+v)", st.Limit, capacity, 2*capacity, st)
	}
}

// TestAutoTuneWithFairnessVirtual stacks the two loops on one live
// gate: auto-tune finds the limit while fairness partitions it across
// three tenants, holding while the tuner probes below one slot per
// tenant. Once the tuner has converged and fairness has closed a window
// since, the partition covers exactly the tuned limit.
func TestAutoTuneWithFairnessVirtual(t *testing.T) {
	const capacity = 4
	v := newVLoad(t, Config{Limit: 16}, 32, 3, capacity, 0.001)
	if err := v.g.EnableAutoTune(TuneConfig{
		MaxThroughputLoss:   0.15,
		ReferenceThroughput: capacity / 0.001,
		MinObservations:     50,
		MaxWindow:           500,
		MaxLimit:            64,
	}); err != nil {
		t.Fatal(err)
	}
	if err := v.g.EnableFairness(FairnessConfig{
		Weights:         map[Class]float64{0: 1, 1: 2, 2: 3},
		MinObservations: 50,
	}); err != nil {
		t.Fatal(err)
	}
	v.converge(30)
	v.run(v.ck.Now() + 0.5) // 2000 more releases: fairness re-spreads
	tune, fair := v.g.TuneStatus(), v.g.FairnessStatus()
	sum := 0
	for c, l := range fair.Limits {
		if l < 1 {
			t.Errorf("tenant %d holds %d slots, want >= 1", c, l)
		}
		sum += l
	}
	if len(fair.Limits) != 3 || sum != tune.Limit {
		t.Errorf("fairness limits %v sum to %d, want the tuned limit %d", fair.Limits, sum, tune.Limit)
	}
	if tune.Limit < capacity || tune.Limit > 2*capacity {
		t.Errorf("converged limit = %d, want in [%d,%d]", tune.Limit, capacity, 2*capacity)
	}
}

// countClock is a virtual clock that counts its reads.
type countClock struct {
	vclock
	reads atomic.Int64
}

func (c *countClock) Now() float64 {
	c.reads.Add(1)
	return c.vclock.Now()
}

// TestClockReadsPerRequest pins the gate's clock cost: a request reads
// the clock once per event that needs a time stamp — arrival, dispatch
// and completion, with arrival and dispatch sharing one read on the
// fast path — and no layer reads it again for its own bookkeeping.
func TestClockReadsPerRequest(t *testing.T) {
	ck := &countClock{}
	g, err := New(Config{Limit: 1, clock: ck})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	step := func(what string, want int64, f func()) {
		t.Helper()
		ck.reads.Store(0)
		f()
		if got := ck.reads.Load(); got != want {
			t.Errorf("%s read the clock %d times, want %d", what, got, want)
		}
	}

	// Fast path: arrival = dispatch, then completion.
	step("fast-path Acquire+Release", 2, func() {
		tk, err := g.Acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tk.Release(Result{})
	})

	// Queued path, behind a held slot: arrival, then dispatch (read
	// once by the holder's Release, which also stamps the holder's own
	// completion), then completion.
	var holder Ticket
	step("holder's Acquire", 1, func() {
		if holder, err = g.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
	})
	got := make(chan Ticket, 1)
	step("queued arrival", 1, func() {
		go func() {
			tk, err := g.Acquire(ctx)
			if err != nil {
				t.Error(err)
			}
			got <- tk
		}()
		for g.Queued() != 1 {
			runtime.Gosched()
		}
	})
	var queued Ticket
	step("holder's completion + queued dispatch", 2, func() {
		holder.Release(Result{})
		queued = <-got
	})
	step("queued completion", 1, func() { queued.Release(Result{}) })
	if s := g.Stats(); s.Completed != 3 || s.Inflight != 0 || s.Queued != 0 {
		t.Errorf("completed %d inflight %d queued %d, want 3, 0, 0", s.Completed, s.Inflight, s.Queued)
	}
}

// TestPoolStatsFleetPercentiles: the pool's P50/P95/P99 are the fleet's,
// from the members' windows merged. Two members hold their work for
// different times, so neither member's tail is the fleet's; the pool's
// P95 must equal the P95 of the merged member sketches and lie within
// stats.SketchAlpha of the exact order statistic.
func TestPoolStatsFleetPercentiles(t *testing.T) {
	ck := &vclock{}
	p, err := NewPool(PoolConfig{Members: 2, Dispatch: "rr", Member: Config{clock: ck}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var rts []float64
	now := 0.0
	for i := 0; i < 400; i++ {
		tk, err := p.AcquireRequest(ctx, Request{Class: Class(i % 3)})
		if err != nil {
			t.Fatal(err)
		}
		hold := 0.001 * float64(1+i%7)
		if tk.Member() == 1 {
			hold = 0.05 * float64(1+i%11)
		}
		now += hold
		ck.set(now)
		tk.Release(Result{})
		rts = append(rts, hold)
	}
	s := p.Stats()
	if s.Completed != uint64(len(rts)) {
		t.Fatalf("pool completed %d, want %d", s.Completed, len(rts))
	}
	var merged stats.Sketch
	for i := 0; i < p.Members(); i++ {
		w := p.Member(i).fe.Metrics()
		for j := range w.Classes {
			merged.Merge(&w.Classes[j].Sketch)
		}
	}
	if got, want := s.P95, merged.Quantile(0.95); got != want {
		t.Errorf("pool P95 %v, merged member sketches %v", got, want)
	}
	members := p.MemberStats()
	if s.P95 == members[0].P95 || s.P95 == members[1].P95 {
		t.Errorf("pool P95 %v equals a member's (%v, %v); the members' tails differ", s.P95, members[0].P95, members[1].P95)
	}
	for _, c := range []struct {
		p, got float64
	}{{50, s.P50}, {95, s.P95}, {99, s.P99}} {
		want := stats.Percentile(rts, c.p)
		if math.Abs(c.got-want) > stats.SketchAlpha*want*(1+1e-9) {
			t.Errorf("pool p%v = %v, exact %v: beyond SketchAlpha", c.p, c.got, want)
		}
	}
}
