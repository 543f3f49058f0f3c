package gate

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extsched/internal/sim"
	metricspkg "extsched/metrics"
)

func TestGateLimitsConcurrency(t *testing.T) {
	g, err := New(Config{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := g.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().Inflight; got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
	// A third Acquire must block until a slot frees.
	third := make(chan Ticket, 1)
	go func() {
		tk, err := g.Acquire(ctx)
		if err != nil {
			t.Error(err)
		}
		third <- tk
	}()
	select {
	case <-third:
		t.Fatal("third Acquire did not block at limit 2")
	case <-time.After(20 * time.Millisecond):
	}
	a.Release(Result{})
	select {
	case tk := <-third:
		tk.Release(Result{})
	case <-time.After(2 * time.Second):
		t.Fatal("queued Acquire was not admitted after Release")
	}
	b.Release(Result{})
	s := g.Stats()
	if s.Inflight != 0 || s.Queued != 0 || s.Completed != 3 {
		t.Errorf("final stats = %+v, want drained with 3 completions", s)
	}
}

func TestUnlimitedGate(t *testing.T) {
	g, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var tks []Ticket
	for i := 0; i < 50; i++ {
		tk, err := g.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	if got := g.Stats().Inflight; got != 50 {
		t.Errorf("inflight = %d, want 50 (unlimited)", got)
	}
	for _, tk := range tks {
		tk.Release(Result{})
	}
}

func TestQueueFullDrops(t *testing.T) {
	g, err := New(Config{Limit: 1, QueueLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tk, err := g.Acquire(ctx) // occupies the slot
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan Ticket, 1)
	go func() {
		q, err := g.Acquire(ctx) // fills the queue
		if err != nil {
			t.Error(err)
		}
		queued <- q
	}()
	// Wait for the goroutine's request to reach the queue.
	for g.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}
	if _, err := g.Acquire(ctx); err != ErrQueueFull {
		t.Errorf("Acquire with full queue = %v, want ErrQueueFull", err)
	}
	if got := g.Stats().Dropped; got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	tk.Release(Result{})
	(<-queued).Release(Result{})
}

func TestContextCancelWhileQueued(t *testing.T) {
	g, err := New(Config{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx)
		errc <- err
	}()
	for g.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Errorf("canceled Acquire = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled Acquire did not return")
	}
	if got := g.Stats().Canceled; got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}
	// The withdrawn request must not consume the slot freed next.
	tk.Release(Result{})
	tk2, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tk2.Release(Result{})
}

func TestAcquireOnDeadContext(t *testing.T) {
	g, err := New(Config{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Acquire(ctx); err != context.Canceled {
		t.Errorf("Acquire on dead context = %v, want context.Canceled", err)
	}
}

// TestClassRange admits any class in [0, 65535] — class 200 on the
// fast path like class 0 — and rejects one outside it with an error
// instead of the frontend's panic.
func TestClassRange(t *testing.T) {
	g, err := New(Config{Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []Class{0, 8, 200, 65535} {
		tk, err := g.AcquireRequest(ctx, Request{Class: c})
		if err != nil {
			t.Fatalf("class %d: %v", c, err)
		}
		tk.Release(Result{})
	}
	for _, c := range []Class{-1, 65536} {
		if _, err := g.AcquireRequest(ctx, Request{Class: c}); err == nil {
			t.Errorf("class %d admitted", c)
		}
		if err := g.SetAdmitDeadline(c, 1); err == nil {
			t.Errorf("SetAdmitDeadline accepted class %d", c)
		}
		if err := g.SetClassLimits(map[Class]int{c: 1}); err == nil {
			t.Errorf("SetClassLimits accepted class %d", c)
		}
		if _, err := New(Config{Limit: 4, ClassLimits: map[Class]int{c: 1}}); err == nil {
			t.Errorf("New accepted a class limit for class %d", c)
		}
	}
	if g.Inflight() != 0 || g.Queued() != 0 {
		t.Errorf("inflight %d, queued %d after the run, want 0/0", g.Inflight(), g.Queued())
	}
}

func TestDoubleReleaseIsNoOp(t *testing.T) {
	g, err := New(Config{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tk.Release(Result{})
	tk.Release(Result{}) // must not double-free the slot
	s := g.Stats()
	if s.Completed != 1 || s.Inflight != 0 {
		t.Errorf("stats after double release = %+v", s)
	}
}

func TestErrorCounting(t *testing.T) {
	g, err := New(Config{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	tk, _ := g.Acquire(context.Background())
	tk.Release(Result{Err: context.DeadlineExceeded})
	if got := g.Stats().Errors; got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
}

func TestPriorityPolicyAdmitsHighFirst(t *testing.T) {
	g, err := New(Config{Limit: 1, Policy: Priority})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tk, err := g.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan Class, 2)
	var wg sync.WaitGroup
	enqueue := func(c Class) {
		defer wg.Done()
		t2, err := g.AcquireRequest(ctx, Request{Class: c})
		if err != nil {
			t.Error(err)
			return
		}
		order <- c
		t2.Release(Result{})
	}
	wg.Add(1)
	go enqueue(ClassLow)
	for g.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go enqueue(ClassHigh)
	for g.Stats().Queued != 2 {
		time.Sleep(time.Millisecond)
	}
	tk.Release(Result{})
	wg.Wait()
	if first := <-order; first != ClassHigh {
		t.Errorf("first admitted class = %d, want ClassHigh", first)
	}
}

func TestInvalidConfig(t *testing.T) {
	cases := []Config{
		{Limit: -1},
		{QueueLimit: -2},
		{Policy: "zzz"},
		{Policy: WFQ, WFQWeights: map[Class]float64{ClassHigh: -1}},
	}
	for i, cfg := range cases {
		func() {
			defer func() { recover() }() // WFQ weight panic counts as rejection
			if g, err := New(cfg); err == nil && g != nil {
				t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
			}
		}()
	}
}

// TestConcurrentAcquireReleaseInvariant hammers the gate from many
// goroutines (run with -race) and checks the core invariant: observed
// concurrency never exceeds the limit, and every admission is
// released.
func TestConcurrentAcquireReleaseInvariant(t *testing.T) {
	const limit = 4
	g, err := New(Config{Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	var inflight, peak, total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tk, err := g.Acquire(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				n := inflight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				total.Add(1)
				inflight.Add(-1)
				tk.Release(Result{})
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > limit {
		t.Errorf("observed concurrency %d exceeded limit %d", p, limit)
	}
	if got := total.Load(); got != 1600 {
		t.Errorf("completions = %d, want 1600", got)
	}
	s := g.Stats()
	if s.Inflight != 0 || s.Queued != 0 || s.Completed != 1600 {
		t.Errorf("final stats = %+v", s)
	}
}

// TestStripedStatsConservation: goroutines acquire and release over
// two classes at real parallelism, so the completions spread over the
// gate's metrics stripes. Stats counts each completion once, per class
// too, and a ResetStats racing the load loses or double-counts
// nothing: a release that returned before the reset began is gone from
// the window, and one whose Acquire began after the reset returned is
// in it.
func TestStripedStatsConservation(t *testing.T) {
	const workers, perWorker = 8, 1000
	g, err := New(Config{Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	// phase runs the load, calling ResetStats once half of it is done
	// when resetMid is set, and returns per class the releases that
	// must be in the window and those that must not.
	phase := func(resetMid bool) (in, out [2]uint64) {
		var resetStarted, resetDone atomic.Bool
		var released atomic.Int64
		half := make(chan struct{})
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var myIn, myOut [2]uint64
				for i := 0; i < perWorker; i++ {
					c := (w + i) % 2
					after := resetDone.Load()
					tk, err := g.AcquireRequest(context.Background(), Request{Class: Class(c)})
					if err != nil {
						t.Error(err)
						return
					}
					tk.Release(Result{})
					if after {
						myIn[c]++
					}
					if !resetStarted.Load() {
						myOut[c]++
					}
					if released.Add(1) == workers*perWorker/2 {
						close(half)
					}
				}
				mu.Lock()
				for c := range in {
					in[c] += myIn[c]
					out[c] += myOut[c]
				}
				mu.Unlock()
			}(w)
		}
		if resetMid {
			<-half
			resetStarted.Store(true)
			g.ResetStats()
			resetDone.Store(true)
		}
		wg.Wait()
		return in, out
	}
	const perClass = workers * perWorker / 2
	exact := func(when string) {
		t.Helper()
		s := g.Stats()
		if s.Completed != 2*perClass || s.Inflight != 0 || s.Queued != 0 {
			t.Errorf("%s: %d completed, %d in flight, %d queued; want %d, 0, 0",
				when, s.Completed, s.Inflight, s.Queued, 2*perClass)
		}
		for c := 0; c < 2; c++ {
			if got := s.Class(c).Completed; got != perClass {
				t.Errorf("%s: class %d completed %d, want %d", when, c, got, perClass)
			}
		}
	}

	phase(false)
	exact("first run")

	g.ResetStats()
	if s := g.Stats(); s.Completed != 0 || len(s.Classes) != 0 {
		t.Fatalf("after ResetStats: %d completed in %d classes, want an empty window", s.Completed, len(s.Classes))
	}
	in, out := phase(true)
	s := g.Stats()
	var sum uint64
	for c := 0; c < 2; c++ {
		got := s.Class(c).Completed
		sum += got
		if got < in[c] || got > perClass-out[c] {
			t.Errorf("reset mid-run: class %d window holds %d completions, want %d to %d", c, got, in[c], perClass-out[c])
		}
	}
	if s.Completed != sum {
		t.Errorf("reset mid-run: window holds %d completions, its classes %d", s.Completed, sum)
	}

	g.ResetStats()
	phase(false)
	exact("run after the reset")
}

// TestConcurrentCancellationStorm mixes cancellations into concurrent
// load; the gate's accounting must stay exact.
func TestConcurrentCancellationStorm(t *testing.T) {
	g, err := New(Config{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*time.Millisecond)
				tk, err := g.Acquire(ctx)
				if err == nil {
					time.Sleep(100 * time.Microsecond)
					tk.Release(Result{})
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	s := g.Stats()
	if s.Inflight != 0 || s.Queued != 0 {
		t.Errorf("gate not drained after cancellation storm: %+v", s)
	}
}

// TestAutoTuneConvergesToCapacity drives the gate over a resource with
// hard capacity 4 (an inner worker pool) and checks the feedback
// controller walks the limit down to that capacity — the paper's
// convergence claim under real concurrent load and a wall clock.
func TestAutoTuneConvergesToCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock convergence test")
	}
	const capacity = 4
	const hold = time.Millisecond
	// Start unlimited: the no-limit run both measures the reference
	// throughput (sleep overshoot and scheduler noise included, which a
	// nominal capacity/hold computation would miss) and mirrors the
	// documented tuning workflow.
	g, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := make(chan struct{}, capacity)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tk, err := g.Acquire(context.Background())
				if err != nil {
					return
				}
				pool <- struct{}{} // hard capacity of the guarded resource
				time.Sleep(hold)
				<-pool
				tk.Release(Result{})
			}
		}()
	}
	time.Sleep(200 * time.Millisecond) // warm up
	g.ResetStats()
	time.Sleep(time.Second)
	reference := g.Stats().Throughput
	if reference <= 0 {
		t.Fatal("no reference throughput measured")
	}
	g.SetLimit(16)
	if err := g.EnableAutoTune(TuneConfig{
		MaxThroughputLoss:   0.15,
		ReferenceThroughput: reference,
		MinObservations:     50,
		MaxWindow:           500,
		MaxLimit:            64,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	for !g.TuneStatus().Converged {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("controller did not converge in 30s: %+v stats %+v", g.TuneStatus(), g.Stats())
		case <-time.After(50 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	st := g.TuneStatus()
	// The lowest feasible limit is the capacity itself (capacity-1
	// loses 1/capacity = 25% throughput, beyond the 15% tolerance).
	// Scheduling noise can leave the loop a few steps above.
	if st.Limit < capacity || st.Limit > 2*capacity {
		t.Errorf("converged limit = %d, want in [%d,%d] (status %+v)", st.Limit, capacity, 2*capacity, st)
	}
}

func TestWatchStreamsSnapshots(t *testing.T) {
	g, err := New(Config{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var snaps []Stats
	stop := g.Watch(0.02, metricspkg.ObserverFunc(func(s Stats) {
		mu.Lock()
		snaps = append(snaps, s)
		mu.Unlock()
	}))
	defer stop()
	// Drive some traffic while the watcher ticks.
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		tk, err := g.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		tk.Release(Result{})
	}
	mu.Lock()
	n := len(snaps)
	var last Stats
	if n > 0 {
		last = snaps[n-1]
	}
	mu.Unlock()
	if n < 3 {
		t.Fatalf("watcher delivered %d snapshots in 150ms at 20ms intervals", n)
	}
	if last.Completed == 0 || last.Throughput <= 0 {
		t.Errorf("snapshot carries no completions: %+v", last)
	}
	if last.Limit != 2 {
		t.Errorf("snapshot limit = %d, want 2", last.Limit)
	}
	if last.Time <= 0 || last.Window <= 0 {
		t.Errorf("snapshot missing time/window: %+v", last)
	}
	// stop() halts the stream: no further snapshots arrive.
	stop()
	mu.Lock()
	n = len(snaps)
	mu.Unlock()
	time.Sleep(60 * time.Millisecond)
	mu.Lock()
	after := len(snaps)
	mu.Unlock()
	if after > n+1 { // one in-flight tick may slip in
		t.Errorf("snapshots kept arriving after stop: %d -> %d", n, after)
	}
}

// captureClock is a manual sim.Clock for deterministic watcher tests:
// After only records the callback (never auto-fires), and its Timer's
// Cancel is a no-op — modeling a wall timer that has already fired, so
// stop()'s Cancel arrives too late to withdraw it.
type captureClock struct {
	t   float64
	fns []func()
}

func (c *captureClock) Now() float64 { return c.t }
func (c *captureClock) After(d float64, fn func()) sim.Timer {
	c.fns = append(c.fns, fn)
	return firedTimer{}
}

type firedTimer struct{}

func (firedTimer) Cancel() {}

// TestWatchStopSilencesLateTick deterministically pins the fix the
// race test flushed out: a Watch tick whose timer fires AFTER stop()
// (too late for Cancel to withdraw it) must not deliver a snapshot.
func TestWatchStopSilencesLateTick(t *testing.T) {
	ck := &captureClock{}
	g, err := New(Config{Limit: 1, clock: ck})
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	stop := g.Watch(1, metricspkg.ObserverFunc(func(Stats) { emitted++ }))
	if len(ck.fns) != 1 {
		t.Fatalf("watcher armed %d timers, want 1", len(ck.fns))
	}
	ck.t = 1
	ck.fns[0]() // tick 1: live — emits and rearms
	if emitted != 1 || len(ck.fns) != 2 {
		t.Fatalf("after first tick: emitted=%d timers=%d, want 1/2", emitted, len(ck.fns))
	}
	stop()
	ck.t = 2
	ck.fns[1]() // tick 2 fires after stop: must stay silent, not rearm
	if emitted != 1 {
		t.Errorf("tick after stop delivered a snapshot (emitted=%d)", emitted)
	}
	if len(ck.fns) != 2 {
		t.Errorf("tick after stop rearmed a timer (%d timers)", len(ck.fns))
	}
}

// TestWatchRace hammers Watch from every side at once — concurrent
// Acquire/Release traffic, SetLimit flapping, overlapping watchers,
// and stop racing the ticks — under -race in CI. (The post-stop
// silence guarantee itself is pinned deterministically by
// TestWatchStopSilencesLateTick; asserting it here would race the
// legitimate one-tick overlap Watch documents.)
func TestWatchRace(t *testing.T) {
	g, err := New(Config{Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	obs := metricspkg.ObserverFunc(func(s Stats) {
		_ = s.Throughput // read fields concurrently with traffic
	})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for {
				select {
				case <-done:
					return
				default:
				}
				tk, err := g.AcquireRequest(ctx, Request{SizeHint: 0.001})
				if err != nil {
					t.Error(err)
					return
				}
				tk.Release(Result{})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			g.SetLimit(2 + i%6)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Overlapping watchers starting and stopping while traffic flows.
	for round := 0; round < 20; round++ {
		stop1 := g.Watch(0.0005, obs)
		stop2 := g.Watch(0.0007, obs)
		time.Sleep(2 * time.Millisecond)
		stop1()
		stop2()
		stop1() // idempotent
	}
	close(done)
	wg.Wait()
	s := g.Stats()
	if s.Inflight != 0 {
		t.Errorf("gate not drained: %+v", s)
	}
}

// TestSetLimitShrinkUnderLoad verifies SetLimit races cleanly with the
// lock-free counter: shrinking below the current inflight count must
// not underflow, must block new admissions until the overshoot drains,
// and must not strand queued waiters afterwards.
func TestSetLimitShrinkUnderLoad(t *testing.T) {
	g, err := New(Config{Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var held []Ticket
	for i := 0; i < 4; i++ {
		tk, err := g.Acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, tk)
	}
	g.SetLimit(2)
	if got := g.Inflight(); got != 4 {
		t.Fatalf("Inflight=%d after shrink, want 4 (overshoot drains, never truncates)", got)
	}
	admitted := make(chan Ticket, 1)
	go func() {
		tk, err := g.Acquire(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		admitted <- tk
	}()
	// 4, then 3, then 2 inflight: all still >= the new limit of 2, so
	// the waiter must stay queued.
	held[0].Release(Result{})
	held[1].Release(Result{})
	select {
	case <-admitted:
		t.Fatal("waiter admitted while inflight >= shrunken limit")
	case <-time.After(20 * time.Millisecond):
	}
	held[2].Release(Result{}) // 1 < 2: the waiter must wake now
	select {
	case tk := <-admitted:
		tk.Release(Result{})
	case <-time.After(2 * time.Second):
		t.Fatal("waiter stranded after the overshoot drained")
	}
	held[3].Release(Result{})
	if got := g.Inflight(); got != 0 {
		t.Fatalf("Inflight=%d after drain, want 0 (underflow check)", got)
	}
}

// TestSetLimitShrinkConcurrentHammer flips the limit while goroutines
// hammer Acquire/Release across the fast and slow paths; run with
// -race. The invariant is only that nothing underflows, deadlocks, or
// strands: every Acquire eventually returns and the gate drains to 0.
func TestSetLimitShrinkConcurrentHammer(t *testing.T) {
	g, err := New(Config{Limit: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stop := make(chan struct{})
	go func() {
		limits := []int{8, 2, 5, 1, 8, 3}
		for i := 0; ; i++ {
			select {
			case <-stop:
				g.SetLimit(0)
				return
			default:
				g.SetLimit(limits[i%len(limits)])
			}
		}
	}()
	var wg sync.WaitGroup
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tk, err := g.Acquire(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				tk.Release(Result{})
			}
		}()
	}
	wg.Wait()
	close(stop)
	if got := g.Inflight(); got != 0 {
		t.Fatalf("Inflight=%d after drain, want 0", got)
	}
	if got := g.Queued(); got != 0 {
		t.Fatalf("Queued=%d after drain, want 0", got)
	}
}

// TestAcquireReleaseZeroAlloc pins the live fast path at zero
// allocations per op — ticket slots are pooled and the admission word
// is lock-free, so a warm gate must not touch the heap.
func TestAcquireReleaseZeroAlloc(t *testing.T) {
	g, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		tk, err := g.Acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tk.Release(Result{})
	}); n != 0 {
		t.Errorf("Acquire+Release allocates %v/op, want 0", n)
	}
}

// TestHotAccessorsZeroAlloc pins the accessors documented as
// hot-path-safe: Limit, Inflight, Queued and ClassLimit must not
// allocate (Stats and ClassLimits are reporting calls and may).
func TestHotAccessorsZeroAlloc(t *testing.T) {
	g, err := New(Config{Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetClassLimits(map[Class]int{0: 2}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = g.Limit()
		_ = g.Inflight()
		_ = g.Queued()
		_, _ = g.ClassLimit(0)
	}); n != 0 {
		t.Errorf("hot accessors allocate %v/op, want 0", n)
	}
}

// TestWaitPlusInsideIsResponse: on the wall clock, a request's inside
// time is taken from the same stamp that ends its response time, so
// the window's mean wait and mean inside time add up to its mean
// response time exactly (up to float rounding), queued requests
// included.
func TestWaitPlusInsideIsResponse(t *testing.T) {
	g, err := New(Config{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tk, err := g.Acquire(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				time.Sleep(10 * time.Microsecond)
				tk.Release(Result{})
			}
		}()
	}
	wg.Wait()
	s := g.Stats()
	if s.Completed != 200 || s.MeanWait <= 0 {
		t.Fatalf("completed %d mean wait %v: want 200 completions, some of them queued", s.Completed, s.MeanWait)
	}
	if diff := math.Abs(s.MeanWait + s.MeanInside - s.MeanResponse); diff > 1e-9*s.MeanResponse {
		t.Errorf("MeanWait %v + MeanInside %v = %v, MeanResponse %v (relative error %v > 1e-9)",
			s.MeanWait, s.MeanInside, s.MeanWait+s.MeanInside, s.MeanResponse, diff/s.MeanResponse)
	}
}
