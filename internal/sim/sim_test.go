package sim

import (
	"math"
	"strings"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(2.0, func() { got = append(got, 2) })
	e.At(1.0, func() { got = append(got, 1) })
	e.At(3.0, func() { got = append(got, 3) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3.0 {
		t.Errorf("Now() = %v, want 3.0", e.Now())
	}
}

func TestEngineStableTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5.0, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1.0, func() { fired = true })
	if !ev.Pending() {
		t.Error("Pending() = false before Cancel")
	}
	e.Cancel(ev)
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	if ev.Pending() {
		t.Error("Pending() = true after Cancel")
	}
	e.RunAll()
	if fired {
		t.Error("canceled event fired")
	}
}

func TestEngineCancelZeroHandleNoop(t *testing.T) {
	e := NewEngine()
	e.Cancel(Handle{}) // must not panic
	if (Handle{}).Pending() || (Handle{}).Canceled() {
		t.Error("zero handle reports live state")
	}
}

// TestEngineStaleHandleCancel pins the pool-safety contract: after an
// event fires, its record is recycled for new events, and canceling
// the stale handle must not touch the new occupant.
func TestEngineStaleHandleCancel(t *testing.T) {
	e := NewEngine()
	first := e.At(1.0, func() {})
	e.RunAll()
	if first.Pending() || first.Canceled() {
		t.Error("fired handle still reports live state")
	}
	secondFired := false
	second := e.At(2.0, func() { secondFired = true })
	e.Cancel(first) // stale: must be a no-op even though the record was recycled
	if !second.Pending() {
		t.Error("stale Cancel invalidated a recycled event")
	}
	e.RunAll()
	if !secondFired {
		t.Error("recycled event did not fire after stale Cancel")
	}
}

// TestEngineRunClockNeverRegresses pins the Run guard: calling Run
// with a bound in the past fires nothing and leaves the clock alone.
func TestEngineRunClockNeverRegresses(t *testing.T) {
	e := NewEngine()
	e.At(10.0, func() {})
	e.RunAll()
	if e.Now() != 10.0 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
	e.At(20.0, func() {})
	if n := e.Run(5.0); n != 0 {
		t.Errorf("Run(5) fired %d events, want 0", n)
	}
	if e.Now() != 10.0 {
		t.Errorf("Now() = %v after Run(5), want 10 (clock must not move backward)", e.Now())
	}
	if n := e.RunAll(); n != 1 {
		t.Errorf("RunAll fired %d events, want 1", n)
	}
}

// TestEngineEventReuse exercises the free list across many
// schedule/fire and schedule/cancel cycles, checking ordering and
// counts survive recycling.
func TestEngineEventReuse(t *testing.T) {
	e := NewEngine()
	var fired int
	for round := 0; round < 1000; round++ {
		keep := e.After(1, func() { fired++ })
		drop := e.After(0.5, func() { t.Error("canceled event fired") })
		e.Cancel(drop)
		if !keep.Pending() {
			t.Fatal("live handle lost pending state")
		}
		e.RunAll()
	}
	if fired != 1000 {
		t.Errorf("fired = %d, want 1000", fired)
	}
	if e.Processed() != 1000 {
		t.Errorf("Processed() = %d, want 1000", e.Processed())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(1.0, tick)
		}
	}
	e.After(1.0, tick)
	e.RunAll()
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
	if e.Now() != 100.0 {
		t.Errorf("Now() = %v, want 100", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []float64
	for i := 1; i <= 10; i++ {
		tm := float64(i)
		e.At(tm, func() { got = append(got, tm) })
	}
	n := e.Run(5.5)
	if n != 5 {
		t.Errorf("fired %d events, want 5", n)
	}
	if e.Now() != 5.5 {
		t.Errorf("Now() = %v, want 5.5 after bounded run", e.Now())
	}
	n = e.RunAll()
	if n != 5 {
		t.Errorf("fired %d more events, want 5", n)
	}
}

// TestEngineRunBoundInclusive pins the Run contract the runner's
// breakpoints depend on: an event scheduled at exactly the bound
// fires, and the clock lands on the bound. The doc used to say
// "(exclusive)" while the loop fired inclusively — this test keeps the
// intended (inclusive) semantics from regressing either way.
func TestEngineRunBoundInclusive(t *testing.T) {
	e := NewEngine()
	var fired []float64
	e.At(4.0, func() { fired = append(fired, 4) })
	e.At(5.0, func() { fired = append(fired, 5) })
	e.At(5.0, func() {
		fired = append(fired, 5)
		// A same-instant cascade scheduled at the bound from inside a
		// bound event must fire within the same Run call.
		e.At(5.0, func() { fired = append(fired, 5) })
	})
	e.At(math.Nextafter(5.0, 6.0), func() { fired = append(fired, 6) })
	if n := e.Run(5.0); n != 4 {
		t.Errorf("Run(5) fired %d events, want 4 (events at exactly the bound are inclusive)", n)
	}
	if e.Now() != 5.0 {
		t.Errorf("Now() = %v, want the clock to land on the bound 5.0", e.Now())
	}
	want := []float64{4, 5, 5, 5}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if n := e.RunAll(); n != 1 {
		t.Errorf("event just after the bound fired %d times in RunAll, want 1", n)
	}
}

// TestEnginePendingExcludesCanceled pins the live-event counter:
// canceling the only queued event must make Pending report zero
// immediately, even though the heap slot is discarded lazily —
// otherwise "queue drained?" checks spuriously report pending work.
func TestEnginePendingExcludesCanceled(t *testing.T) {
	e := NewEngine()
	h := e.At(1.0, func() { t.Error("canceled event fired") })
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d before Cancel, want 1", e.Pending())
	}
	e.Cancel(h)
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after canceling the only event, want 0", e.Pending())
	}
	// Double-cancel must not drive the counter negative.
	e.Cancel(h)
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after double Cancel, want 0", e.Pending())
	}
	e.RunAll()
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after RunAll, want 0", e.Pending())
	}
	// And firing still decrements: schedule two, cancel one, fire one.
	h2 := e.At(2.0, func() {})
	e.At(3.0, func() {})
	e.Cancel(h2)
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d with one live + one canceled, want 1", e.Pending())
	}
	e.RunAll()
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after draining, want 0", e.Pending())
	}
}

// TestEngineAtPanicMessages table-tests the two At guards: non-finite
// times must trip the non-finite panic (checked first, so At(NaN)
// never depends on how NaN compares against the clock), and finite
// past times must trip the in-the-past panic.
func TestEngineAtPanicMessages(t *testing.T) {
	cases := []struct {
		name string
		t    float64
		want string
	}{
		{"nan", math.NaN(), "non-finite time"},
		{"pos-inf", math.Inf(1), "non-finite time"},
		{"neg-inf", math.Inf(-1), "non-finite time"},
		{"past", 1.0, "before now"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.At(5.0, func() {})
			e.RunAll() // clock at 5, so t=1 is in the past
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("At(%v) did not panic", tc.t)
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("At(%v) panicked with %T, want string", tc.t, r)
				}
				if !strings.Contains(msg, tc.want) {
					t.Errorf("At(%v) panic %q, want it to mention %q", tc.t, msg, tc.want)
				}
			}()
			e.At(tc.t, func() {})
		})
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(float64(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.RunAll()
	if count != 3 {
		t.Errorf("count = %d, want 3 (stopped)", count)
	}
	if !e.Stopped() {
		t.Error("Stopped() = false")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(5.0, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1.0, func() {})
	})
	e.RunAll()
}

func TestEngineNonFiniteTimePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("scheduling at NaN did not panic")
		}
	}()
	e.At(math.NaN(), func() {})
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, 1)
	b := NewRNG(42, 1)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverge")
		}
	}
	c := NewRNG(42, 2)
	same := true
	a2 := NewRNG(42, 1)
	for i := 0; i < 16; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different-stream RNGs produced identical prefix")
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(7, 0)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Errorf("exp mean = %v, want ~1.0", mean)
	}
}

func TestRNGFork(t *testing.T) {
	g := NewRNG(1, 1)
	f1 := g.Fork()
	f2 := g.Fork()
	if f1.Float64() == f2.Float64() && f1.Float64() == f2.Float64() {
		t.Error("forked streams look identical")
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(float64(i), func() {})
	}
	ev := e.At(10, func() {})
	e.Cancel(ev)
	e.RunAll()
	if e.Processed() != 5 {
		t.Errorf("Processed() = %d, want 5", e.Processed())
	}
}
