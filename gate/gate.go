// Package gate is the external scheduling frontend for live traffic:
// an MPL (multiprogramming-level) gate in front of any shared resource
// — a database connection, a downstream RPC, a CPU-heavy handler —
// that admits at most Limit concurrent units of work and queues the
// rest in a reorderable external queue (FIFO, priority, shortest-job-
// first, or weighted fair queueing).
//
// It is the wall-clock twin of the discrete-event simulation this
// repository uses to reproduce Schroeder et al., "How to determine a
// good multi-programming level for external scheduling" (ICDE 2006):
// the gate, queue policies, metrics, and the Section 4.3 feedback
// controller are the same code (internal/core, internal/controller)
// the simulator runs in virtual time — only the clock and the backend
// differ. What the paper shows for a simulated DBMS therefore carries
// over verbatim: a low MPL barely costs throughput, collapses response
// times under overload, and can be found automatically by feedback.
//
// Basic use:
//
//	g, _ := gate.New(gate.Config{Limit: 8})
//	tk, err := g.Acquire(ctx)
//	if err != nil {
//		return err // canceled, or ErrQueueFull under admission control
//	}
//	defer tk.Release(gate.Result{})
//	// ... at most 8 goroutines run here concurrently ...
//
// EnableAutoTune attaches the paper's feedback controller to the
// gate's completion stream so the limit tracks the lowest value that
// preserves throughput; Middleware wraps an http.Handler so every
// request passes through the gate. All methods are safe for concurrent
// use by any number of goroutines.
package gate

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"extsched/internal/controller"
	"extsched/internal/core"
	"extsched/internal/sim"
	"extsched/internal/stats"
	"extsched/metrics"
)

// Class is a small-integer priority class in [0, 65535]; every class
// takes the lock-free fast path, and one outside the range is an error.
// ClassHigh receives strict preference under the "priority" policy;
// WFQ keeps one virtual queue per distinct value. It is the frontend's
// own class type, so the loop configs' class fields take it directly.
type Class = core.Class

const (
	// ClassLow is the default (background) class.
	ClassLow = core.ClassLow
	// ClassHigh is the preferred class.
	ClassHigh = core.ClassHigh
)

// Policy names the built-in queue orderings.
type Policy string

const (
	// FIFO dispatches in arrival order (the default).
	FIFO Policy = "fifo"
	// Priority dispatches ClassHigh items first, FIFO within a class.
	Priority Policy = "priority"
	// SJF dispatches the smallest SizeHint first.
	SJF Policy = "sjf"
	// WFQ shares dispatch capacity across classes in proportion to
	// their weights, measured in SizeHint.
	WFQ Policy = "wfq"
)

// ErrQueueFull is returned by Acquire when the gate runs in
// admission-control mode (Config.QueueLimit > 0) and the queue is at
// its limit — the paper's "drop instead of wait" contrast system.
var ErrQueueFull = errors.New("gate: queue full")

// ErrDeadline is returned by Acquire when the request's class has an
// admission deadline (Config.AdmitDeadline, SetAdmitDeadline) and the
// gate could not admit the request in time: the ticket is shed —
// rejected without ever holding a slot — and counted in Stats.Shed.
// This is deadline-based load shedding: under overload the queue stops
// accumulating work that could no longer start in time, which is what
// keeps the waiting time of everything still admitted bounded.
var ErrDeadline = errors.New("gate: admission deadline exceeded")

// Config assembles a gate. Response-time percentiles need no setting:
// Stats always carries P50/P95/P99 and a P95 per class, within 1%
// (stats.SketchAlpha).
type Config struct {
	// Limit is the initial MPL: the maximum number of concurrently
	// admitted units of work. 0 means unlimited (pure accounting, no
	// gating) — useful for measuring a reference throughput before
	// enabling a limit or the auto-tuner.
	Limit int
	// Policy orders the waiting queue; default FIFO.
	Policy Policy
	// WFQWeights sets per-class weights for the WFQ policy (classes
	// absent from the map get weight 1; nil means {ClassHigh: 4}).
	WFQWeights map[Class]float64
	// QueueLimit, when > 0, enables admission control: an Acquire that
	// finds QueueLimit callers already waiting fails fast with
	// ErrQueueFull instead of queueing.
	QueueLimit int
	// AdmitDeadline sets per-class admission deadlines in seconds
	// (classes absent from the map have none): an Acquire that cannot
	// be admitted within its class's deadline fails with ErrDeadline
	// instead of waiting longer. SetAdmitDeadline changes them later.
	AdmitDeadline map[Class]float64
	// ClassLimits, when non-nil, partitions the Limit across classes:
	// class c holds at most ClassLimits[c] slots while other classes
	// have waiting work (idle capacity is still lent across the
	// partition — see core's work-conserving borrowing). Each limit
	// must be >= 1. EnableSLOTune steers this partition automatically.
	ClassLimits map[Class]int
	// Seed seeds a Pool's sampled dispatch policies (Pool reads
	// Member.Seed; a lone gate draws no random numbers); default 1.
	Seed uint64

	// clock overrides the time source (tests); nil = monotonic wall
	// clock.
	clock sim.Clock
}

// Request describes one unit of work for queue ordering.
type Request struct {
	// Class is the priority class (Priority and WFQ policies).
	Class Class
	// SizeHint estimates the work's duration in seconds (SJF orders by
	// it, WFQ charges by it). Zero = unknown.
	SizeHint float64
}

// Result reports the outcome of a released unit of work.
type Result struct {
	// Err, when non-nil, marks the guarded operation as failed; the
	// gate counts it in Stats.Errors. The gate itself treats failed and
	// successful completions alike (the slot is freed either way).
	Err error
}

// Gate is a wall-clock MPL gate. Create it with New.
type Gate struct {
	fe    *core.Frontend
	clock sim.Clock
	// wall is the gate's clock unless Config.clock overrides it; held
	// here, it costs the set-up no allocation of its own.
	wall sim.WallClock
	// slots recycles ticketSlots so the uncontended Acquire/Release
	// round trip allocates nothing. sync.Pool keeps slots per P, so a
	// core's releases keep recording into the same metrics stripe.
	slots sync.Pool
	// stripes is the frontend's number of metrics stripes, and
	// nextStripe numbers the ticket slots as they are made: a slot
	// starts on stripe number % stripes, so the first uses stripe 0,
	// and keeps the stripe its item last recorded into.
	stripes    uint32
	nextStripe atomic.Uint32
	// loops holds the gate's control loops (auto-tune, and SLO tuning
	// or fairness); every Release feeds them.
	loops controller.Slot
	errs  atomic.Uint64
}

// ticketSlot is the reusable per-acquisition record behind a Ticket.
// Slots cycle through a per-gate sync.Pool; the generation counter is
// what keeps a stale Ticket (one whose slot has since been reused)
// from touching the new acquisition: Release claims the slot with a
// CAS from the generation the Ticket was issued at, so only the first
// Release of the current generation does anything.
type ticketSlot struct {
	g    *Gate
	item core.Item
	// admitted carries the admission (or shed) wake-up: capacity 1,
	// one token per submission, consumed before the slot is reused.
	// It is made when the slot's first request goes to Submit: a slot
	// that only ever takes the fast path never needs one.
	admitted chan struct{}
	gen      atomic.Uint64
	// shed is set (before the admitted token is sent) when the ticket
	// was deadline-shed instead of admitted.
	shed bool
	// sw is Middleware's status writer for the request holding the
	// ticket; putSlot clears it so a pooled slot keeps no writer alive.
	sw statusWriter
}

// Ticket is one admitted unit of work. Callers must Release it exactly
// once; further Releases (from any copy of the Ticket) are no-ops. The
// zero Ticket is inert.
type Ticket struct {
	s   *ticketSlot
	gen uint64
}

// backend admits items by waking the Acquire that submitted them.
type backend struct{}

func (backend) Exec(it *core.Item) {
	it.Payload.(*ticketSlot).admitted <- struct{}{}
}

// New builds a gate from cfg.
func New(cfg Config) (*Gate, error) {
	if cfg.Limit < 0 {
		return nil, fmt.Errorf("gate: Limit %d must be >= 0", cfg.Limit)
	}
	if cfg.QueueLimit < 0 {
		return nil, fmt.Errorf("gate: QueueLimit %d must be >= 0", cfg.QueueLimit)
	}
	policy, err := core.NewPolicy(string(cfg.Policy), cfg.WFQWeights)
	if err != nil {
		return nil, fmt.Errorf("gate: %w", err)
	}
	g := &Gate{clock: cfg.clock, stripes: uint32(runtime.GOMAXPROCS(0))}
	if g.clock == nil {
		g.wall = *sim.NewWallClock()
		g.clock = &g.wall
	}
	g.fe = core.New(g.clock, backend{}, cfg.Limit, policy)
	// One metrics stripe per P: concurrent releases record without
	// contending for one lock, and the stripes past the first are
	// allocated only once a second slot's release needs one.
	g.fe.SetMetricsStripes(int(g.stripes))
	if cfg.QueueLimit > 0 {
		g.fe.SetQueueLimit(cfg.QueueLimit)
	}
	for c, d := range cfg.AdmitDeadline {
		if err := g.SetAdmitDeadline(c, d); err != nil {
			return nil, err
		}
	}
	if cfg.ClassLimits != nil {
		if err := g.SetClassLimits(cfg.ClassLimits); err != nil {
			return nil, err
		}
	}
	// Deadline-shed tickets are woken through the shed hook: the item
	// never dispatches, so the admitted channel would otherwise block
	// its Acquire forever. The channel send orders the shed flag for
	// the waking goroutine.
	g.fe.OnShed = func(it *core.Item) {
		s := it.Payload.(*ticketSlot)
		s.shed = true
		s.admitted <- struct{}{}
	}
	// The completion hook is installed once, before any traffic; the
	// loop slot makes attaching and detaching loops race-free
	// afterwards.
	g.fe.OnComplete = g.loops.Observe
	return g, nil
}

// checkClass rejects a class outside the frontend's per-class table.
func checkClass(c Class) error {
	if c < 0 || c > core.MaxClass {
		return fmt.Errorf("gate: class %d outside [0, %d]", c, core.MaxClass)
	}
	return nil
}

// Acquire waits for admission with default request attributes.
func (g *Gate) Acquire(ctx context.Context) (Ticket, error) {
	return g.AcquireRequest(ctx, Request{})
}

// AcquireRequest waits until the gate admits the request, the context
// is done, the request's class deadline passes (ErrDeadline), or — in
// admission-control mode — the queue is full. On success the caller
// holds one of the gate's Limit slots and must Release the ticket when
// the guarded work finishes.
//
// When a slot is free and nothing is waiting, admission is a lock-free
// CAS on the frontend's gate word plus a pooled ticket slot: no mutex,
// no channel operation, no allocation, and one clock read that stamps
// both arrival and dispatch. The queueing path below is taken only
// when the request must actually wait (or a policy feature — class
// partitions, admit deadlines — needs the ordered slow path); it reads
// the clock once on arrival (twice when an admit deadline arms a
// timer) and once more when a release dispatches it.
func (g *Gate) AcquireRequest(ctx context.Context, req Request) (Ticket, error) {
	if err := ctx.Err(); err != nil {
		return Ticket{}, err
	}
	if err := checkClass(req.Class); err != nil {
		return Ticket{}, err
	}
	s, _ := g.slots.Get().(*ticketSlot)
	if s == nil {
		s = &ticketSlot{g: g}
		s.item.Stripe = (g.nextStripe.Add(1) - 1) % g.stripes
	}
	it := &s.item
	it.Class = req.Class
	it.SizeHint = req.SizeHint
	it.Payload = s
	if g.fe.TryAcquire(it) {
		return Ticket{s: s, gen: s.gen.Load()}, nil
	}
	if s.admitted == nil {
		// The slot is still the caller's alone: Submit publishes it.
		s.admitted = make(chan struct{}, 1)
	}
	if !g.fe.Submit(it, nil) {
		g.putSlot(s)
		return Ticket{}, ErrQueueFull
	}
	// Submit stamped the class's admission deadline (if any); arm a
	// timer so a waiter is woken with ErrDeadline the moment it passes,
	// not whenever its dead ticket surfaces at the head of the queue.
	stopTimer := func() {}
	if it.Deadline > 0 {
		stopTimer = g.armDeadline(it)
	}
	select {
	case <-s.admitted:
		stopTimer()
		if s.shed {
			// The shed item may still sit in the queue awaiting lazy
			// discard, so the slot is not reusable; drop it.
			return Ticket{}, ErrDeadline
		}
		return Ticket{s: s, gen: s.gen.Load()}, nil
	case <-ctx.Done():
		stopTimer()
		if g.fe.CancelQueued(it) {
			// Withdrawn while still queued: no slot was consumed. The
			// canceled item stays referenced by the queue until its lazy
			// discard, so the ticket slot must not be recycled.
			return Ticket{}, ctx.Err()
		}
		// Admission — or a shed — raced the cancellation. A shed ticket
		// holds no slot; an admitted one must hand its slot back as a
		// discard: the work never ran, so it must not register as a
		// completion (which would feed the auto-tuner a fabricated
		// near-zero response time) or as an error.
		<-s.admitted
		if s.shed {
			return Ticket{}, ctx.Err()
		}
		g.fe.Discard(it)
		g.putSlot(s)
		return Ticket{}, ctx.Err()
	}
}

// armDeadline arms a timer that sheds it if it is still queued when
// its deadline passes. The returned stop cancels the timer or, when the
// callback has already claimed the item, waits for it to finish, so
// the callback never touches the item after stop returns: the ticket's
// lock-free Release may then write it, and its slot may be recycled.
func (g *Gate) armDeadline(it *core.Item) (stop func()) {
	const armed, stopped, firing = 0, 1, 2
	var state atomic.Int32
	done := make(chan struct{})
	t := g.clock.After(it.Deadline-g.clock.Now(), func() {
		if state.CompareAndSwap(armed, firing) {
			g.fe.ShedQueued(it)
			close(done)
		}
	})
	return func() {
		t.Cancel()
		if !state.CompareAndSwap(armed, stopped) {
			<-done
		}
	}
}

// putSlot resets a settled slot — no queue references, admitted token
// consumed — and returns it to the pool.
func (g *Gate) putSlot(s *ticketSlot) {
	s.item = core.Item{Stripe: s.item.Stripe}
	s.shed = false
	s.sw = statusWriter{}
	g.slots.Put(s)
}

// Release frees the ticket's slot, recording res. The next waiting
// request (per the queue policy) is admitted on the caller's
// goroutine before Release returns. On the uncontended path this is a
// lock-free CAS plus the metrics update under the lock of one per-core
// metrics stripe — no queue mutex, no allocation —
// and one clock read: the completion stamp, from which the time the
// work held its slot is also taken.
func (t Ticket) Release(res Result) { t.release(res) }

// release performs the first-Release work and reports whether this
// call was the one that claimed the ticket (false: already released,
// or the zero Ticket).
func (t Ticket) release(res Result) bool {
	s := t.s
	if s == nil || !s.gen.CompareAndSwap(t.gen, t.gen+1) {
		return false
	}
	g := s.g
	if res.Err != nil {
		g.errs.Add(1)
	}
	g.fe.CompleteMeasured(&s.item)
	g.putSlot(s)
	return true
}

// Limit returns the current MPL (0 = unlimited). Lock-free —
// hot-path-safe.
func (g *Gate) Limit() int { return g.fe.MPL() }

// Inflight returns the number of admitted, unreleased units of work.
// Lock-free — hot-path-safe.
func (g *Gate) Inflight() int { return g.fe.Inside() }

// Queued returns the number of callers waiting in the external queue.
// Takes the queue lock briefly; fine for reporters, avoid per-request.
func (g *Gate) Queued() int { return g.fe.QueueLen() }

// SetLimit changes the MPL. Raising it admits queued work immediately
// (on the calling goroutine); lowering it takes effect as admitted
// work releases — nothing is preempted.
func (g *Gate) SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	g.fe.SetMPL(n)
}

// SetAdmitDeadline changes class c's admission deadline (0 clears it).
// Applies to subsequent Acquires; waiters already queued keep the
// deadline they arrived under.
func (g *Gate) SetAdmitDeadline(c Class, seconds float64) error {
	if err := checkClass(c); err != nil {
		return err
	}
	if seconds < 0 {
		return fmt.Errorf("gate: class %d admit deadline %v must be >= 0", c, seconds)
	}
	g.fe.SetAdmitDeadline(c, seconds)
	return nil
}

// SetClassLimits partitions the limit across classes (each present
// limit >= 1; absent classes are uncapped; nil clears the partition).
// Idle capacity is still lent across the partition, so the gate stays
// work-conserving.
func (g *Gate) SetClassLimits(limits map[Class]int) error {
	for c, l := range limits {
		if err := checkClass(c); err != nil {
			return err
		}
		if l < 1 {
			return fmt.Errorf("gate: class %d limit %d must be >= 1", c, l)
		}
	}
	g.fe.SetClassLimits(limits)
	return nil
}

// ClassLimits returns the current per-class partition (nil when none).
// Allocates a fresh map per call; per-request readers should use
// ClassLimit instead.
func (g *Gate) ClassLimits() map[Class]int { return g.fe.ClassLimits() }

// ClassLimit returns class c's limit under the current partition (ok
// false when the class is uncapped or no partition is set). Unlike
// ClassLimits it allocates nothing.
func (g *Gate) ClassLimit(c Class) (limit int, ok bool) {
	return g.fe.ClassLimit(c)
}

// ClassPercentile reports class c's p-th response-time percentile (p
// in [0,100]) over the current metrics window, within
// stats.SketchAlpha (1%) — the signal an SLO is written against. It
// merges only class c's part of each metrics stripe, into a buffer it
// reuses, so it allocates only while that buffer grows.
func (g *Gate) ClassPercentile(c Class, p float64) float64 {
	return g.fe.ClassResponseTimePercentile(c, p)
}

// Tenant describes one registered tenant class.
type Tenant struct {
	// Class is the tenant's priority class ID.
	Class Class
	// Name labels the tenant in Stats.Classes.
	Name string
	// Weight is the tenant's relative fair share (EnableFairness uses
	// it when no explicit weights are given).
	Weight float64
	// SLOTarget is the tenant's advisory latency target in seconds
	// (0 = none).
	SLOTarget float64
}

// RegisterClass registers a named tenant and returns its class ID
// (sequential from 0, so the first two registrations land on ClassLow
// and ClassHigh). Weight is the tenant's relative fair share (> 0);
// sloTarget an advisory latency target in seconds (>= 0; 0 = none).
// Registration only names the class and records its weight — any class
// ID may be used in a Request without registering — but EnableFairness
// with nil Weights governs exactly the registered tenants.
func (g *Gate) RegisterClass(name string, weight, sloTarget float64) (Class, error) {
	if weight <= 0 {
		return 0, fmt.Errorf("gate: tenant %q weight %v must be > 0", name, weight)
	}
	if sloTarget < 0 {
		return 0, fmt.Errorf("gate: tenant %q SLO target %v must be >= 0", name, sloTarget)
	}
	return g.fe.RegisterClass(name, weight, sloTarget), nil
}

// Tenants returns the registered tenants in registration (= class ID)
// order; nil when none were registered.
func (g *Gate) Tenants() []Tenant {
	ts := g.fe.Tenants()
	if ts == nil {
		return nil
	}
	out := make([]Tenant, len(ts))
	for i, t := range ts {
		out[i] = Tenant{Class: t.Class, Name: t.Name, Weight: t.Weight, SLOTarget: t.SLOTarget}
	}
	return out
}

// TenantName returns the registered name for a class (empty when the
// class was never registered).
func (g *Gate) TenantName(c Class) string { return g.fe.TenantName(c) }

// SetWFQWeights reweights the WFQ policy per class (classes absent from
// the map keep their current weight). Returns an error for a
// non-positive weight; reports ok=false (with no error) when the gate's
// policy is not WFQ.
func (g *Gate) SetWFQWeights(weights map[Class]float64) (ok bool, err error) {
	for c, w := range weights {
		if w <= 0 {
			return false, fmt.Errorf("gate: class %d WFQ weight %v must be > 0", c, w)
		}
	}
	return g.fe.SetWFQWeights(weights), nil
}

// Stats is a point-in-time snapshot of the gate. It is the shared
// metrics.Snapshot vocabulary: the same fields a simulated Scenario run
// streams to its observers, so live and simulated measurements compare
// field for field. In a Stats value the completion counters cover the
// whole current metrics window — the time since New or the last
// ResetStats — and Dropped/Canceled/Errors are lifetime totals;
// Classes splits the window per tenant class (look one up with
// Class(id)); MeanInside is the admitted (dispatch-to-release) portion
// of the response time; P50/P95/P99 and each class's P95 are always
// populated, within 1% (stats.SketchAlpha). Only the fields a live
// gate genuinely cannot know — Phase, CPUUtil, DiskUtil, Restarts —
// stay zero here.
type Stats = metrics.Snapshot

// Stats snapshots the gate. Releases record into per-core stripes of
// the metrics window; Stats locks every stripe and merges them into
// one copy, so counts, means and percentiles cover the same
// completions, and the counts and sketches merge exactly. P50/P95/P99
// and each class's P95 are within stats.SketchAlpha (1%) of the exact
// percentiles of that window. Copying the window's sketches allocates,
// and Stats takes the gate's internal locks briefly, so it is a
// reporting call, not a per-request one — per-request code should
// stick to Limit/Inflight.
func (g *Gate) Stats() Stats {
	m := g.fe.Metrics()
	return g.stats(&m, new(stats.Sketch))
}

// stats builds the gate's Stats from its metrics window m, merging the
// class sketches through scratch.
func (g *Gate) stats(m *core.Metrics, scratch *stats.Sketch) Stats {
	all := m.Sketch(scratch)
	s := Stats{
		Time:         g.clock.Now(),
		Window:       m.Window(),
		Limit:        g.fe.MPL(),
		Inflight:     g.fe.Inside(),
		Queued:       g.fe.QueueLen(),
		Completed:    m.Completed,
		Throughput:   m.Throughput(),
		MeanResponse: m.All.Mean(),
		MeanWait:     m.ExtWait.Mean(),
		MeanInside:   m.Inside.Mean(),
		P50:          all.Quantile(0.50),
		P95:          all.Quantile(0.95),
		P99:          all.Quantile(0.99),
		Dropped:      g.fe.Dropped(),
		Canceled:     g.fe.Canceled(),
		Errors:       g.errs.Load(),
	}
	s.Shed = g.fe.Shed()
	s.Classes = g.classStats(m)
	return s
}

// classStats assembles the per-tenant slice of a Stats snapshot: every
// class that completed work this window or ever shed any, ascending.
// The frontend has a record, and so a shed count, for every class in m.
func (g *Gate) classStats(m *core.Metrics) []metrics.ClassStat {
	var out []metrics.ClassStat
	for c, shed := range g.fe.ShedClasses() {
		cm := m.ClassMetric(core.Class(c))
		if cm.Completed() == 0 && shed == 0 {
			continue
		}
		out = append(out, metrics.ClassStat{
			Class:     c,
			Name:      g.fe.TenantName(core.Class(c)),
			Completed: cm.Completed(),
			Shed:      shed,
			Mean:      cm.RT.Mean(),
			P95:       cm.Sketch.Quantile(0.95),
		})
	}
	return out
}

// ResetStats starts a fresh metrics window (Throughput, MeanResponse
// and the percentiles reset; the lifetime counters do not). The control
// loops keep their own windows: ResetStats leaves them running, and
// they never reset this one.
func (g *Gate) ResetStats() { g.fe.ResetMetrics() }

// Watch streams the gate's Stats to o every interval seconds until the
// returned stop function is called. Snapshots are cumulative (the same
// values Stats returns at that instant, over the window since New or
// the last ResetStats); the control loops never reset that window.
// OnInterval runs on a timer goroutine; o must be safe for that. stop
// is idempotent and safe to call from any goroutine (including from
// the observer itself); a tick that began emitting just before stop
// may still complete, but a tick firing after stop stays silent.
func (g *Gate) Watch(interval float64, o metrics.Observer) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("gate: watch interval %v must be positive", interval))
	}
	w := &watcher{g: g, o: o, interval: interval}
	w.mu.Lock()
	w.timer = g.clock.After(interval, w.tick)
	w.mu.Unlock()
	return w.stop
}

// watcher reschedules itself after each emitted snapshot.
type watcher struct {
	g        *Gate
	o        metrics.Observer
	interval float64
	mu       sync.Mutex
	timer    sim.Timer
	stopped  bool
}

func (w *watcher) tick() {
	// Check stopped BEFORE emitting, not only when rescheduling: a
	// timer that fired just after stop() must not deliver one last
	// snapshot to an observer the caller is tearing down. (A tick that
	// already passed this check may still overlap a concurrent stop —
	// observers must tolerate that, as Watch documents — but a tick
	// that fires after stop is now guaranteed silent.)
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	w.o.OnInterval(w.g.Stats())
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		return
	}
	w.timer = w.g.clock.After(w.interval, w.tick)
}

func (w *watcher) stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	if w.timer != nil {
		w.timer.Cancel()
	}
}
