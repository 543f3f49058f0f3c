// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is intentionally small: a monotonically advancing clock, a
// concrete-typed 4-ary heap event queue with stable FIFO ordering among
// simultaneous events, and cancellable, generation-checked event
// handles. All higher-level substrates (CPU scheduler, disks, lock
// manager, workload generators) are built on top of it. Simulated time
// is measured in seconds as float64.
//
// The queue stores plain value slots ({time, seq, *event}) in a flat
// slice — no interface{} boxing and no container/heap indirection — and
// the event records behind them are recycled through a free list when
// they fire or when a canceled event is discarded. In steady state the
// kernel therefore schedules and fires events without allocating.
package sim

import (
	"fmt"
	"math"
)

// event is the pooled per-event record. The heap slots carry the
// ordering keys; the record holds only what must live at a stable
// address: the callback, the cancellation flag, and the generation
// counter that invalidates stale handles after recycling.
type event struct {
	fn       func()
	gen      uint64
	canceled bool
}

// Handle identifies one scheduled event. It is a value: copy it
// freely. A Handle becomes stale once its event fires or its
// cancellation is collected; Cancel and Pending on a stale handle are
// safe no-ops, so holding a handle past its event's lifetime is fine.
type Handle struct {
	ev  *event
	gen uint64
}

// Pending reports whether the event is still scheduled and will fire
// (not canceled, not yet fired).
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.canceled
}

// Canceled reports whether the event was canceled and is still
// awaiting lazy discard. Once the engine collects the cancellation
// (or after the event fires) the handle is stale and Canceled reports
// false.
func (h Handle) Canceled() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.canceled
}

// slot is one entry of the event queue: the ordering keys inline (so
// heap comparisons stay within the slice) plus the pooled record.
type slot struct {
	time float64
	seq  uint64
	ev   *event
}

// before reports whether a fires before b: earlier time first, ties
// broken FIFO by sequence number.
func (a slot) before(b slot) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulation engine.
// It is not safe for concurrent use; all model code runs inside event
// callbacks on the engine's goroutine. Independent engines are fully
// isolated, so many runs may execute on separate goroutines at once
// (see experiments.Sweep).
type Engine struct {
	now     float64
	queue   []slot // implicit 4-ary min-heap
	free    []*event
	seq     uint64
	stopped bool
	// live counts scheduled events that will still fire: canceled
	// events leave it at Cancel time even though their slots are only
	// discarded lazily when they surface at the heap head.
	live int
	// processed counts events that have fired (excluding canceled ones).
	processed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled that will
// still fire. Canceled events stop counting the moment they are
// canceled, even though their heap slots are discarded lazily — so a
// zero return really does mean the engine has no live work.
func (e *Engine) Pending() int { return e.live }

// At schedules fn to run at absolute simulated time t. Non-finite t
// panics, as does scheduling in the past (t < Now): both always
// indicate a model bug, and silently clamping would hide it. The
// non-finite check runs first so At(NaN) reports the real problem
// rather than tripping (or sliding past) the in-the-past comparison,
// whose outcome against NaN is a coin toss of comparison semantics.
func (e *Engine) At(t float64, fn func()) Handle {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", t))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.fn = fn
	ev.canceled = false
	h := Handle{ev: ev, gen: ev.gen}
	e.push(slot{time: t, seq: e.seq, ev: ev})
	e.seq++
	e.live++
	return h
}

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d float64, fn func()) Handle {
	return e.At(e.now+d, fn)
}

// Cancel marks the event as canceled. A canceled event is skipped and
// recycled when it reaches the head of the queue. Canceling a stale
// handle (already fired, already collected) or the zero Handle is a
// no-op.
func (e *Engine) Cancel(h Handle) {
	if h.ev != nil && h.ev.gen == h.gen && !h.ev.canceled {
		h.ev.canceled = true
		e.live--
	}
}

// Stop halts the run loop after the current event callback returns.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// recycle invalidates outstanding handles and returns the record to
// the free list.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.canceled = false
	ev.gen++
	e.free = append(e.free, ev)
}

// Step fires the next non-canceled event. It returns false when the
// queue is empty or the engine is stopped.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 && !e.stopped {
		top := e.queue[0]
		e.pop()
		if top.ev.canceled {
			e.recycle(top.ev)
			continue
		}
		fn := top.ev.fn
		// Recycle before firing: the callback may schedule new events,
		// and the generation bump keeps any handle to this event stale.
		e.recycle(top.ev)
		e.now = top.time
		e.processed++
		e.live--
		fn()
		return true
	}
	return false
}

// Run fires events until the queue drains, Stop is called, or the
// next event lies strictly after until. The bound is inclusive: an
// event scheduled at exactly until fires, and only events later than
// until stay queued. Pass math.Inf(1) for no time bound. It returns
// the number of events fired during this call. Unless until is
// infinite, the clock always ends at the bound (even when the queue
// drains early — an idle system still experiences the passage of time,
// which is what lets a scenario phase with no traffic elapse). The
// clock never moves backward: calling Run with until < Now fires
// nothing and leaves the clock alone.
func (e *Engine) Run(until float64) uint64 {
	var fired uint64
	for !e.stopped {
		next, ok := e.peek()
		if !ok {
			break
		}
		if next.time > until {
			// Leave the event queued.
			break
		}
		if e.Step() {
			fired++
		}
	}
	// Advance the clock to the bound so repeated Run calls observe
	// monotonic time whether or not events (or any queue at all)
	// remained — but never pull the clock backward when until is
	// already in the past.
	if !e.stopped && until > e.now && !math.IsInf(until, 1) {
		e.now = until
	}
	return fired
}

// RunAll fires events until the queue drains or Stop is called.
func (e *Engine) RunAll() uint64 {
	return e.Run(math.Inf(1))
}

// peek returns the next non-canceled slot without removing it, lazily
// discarding canceled events at the top of the heap.
func (e *Engine) peek() (slot, bool) {
	for len(e.queue) > 0 {
		top := e.queue[0]
		if !top.ev.canceled {
			return top, true
		}
		e.pop()
		e.recycle(top.ev)
	}
	return slot{}, false
}

// push inserts s into the 4-ary heap.
func (e *Engine) push(s slot) {
	e.queue = append(e.queue, s)
	i := len(e.queue) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.queue[i].before(e.queue[parent]) {
			break
		}
		e.queue[i], e.queue[parent] = e.queue[parent], e.queue[i]
		i = parent
	}
}

// pop removes the heap head.
func (e *Engine) pop() {
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue[n] = slot{}
	e.queue = e.queue[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.queue[c].before(e.queue[best]) {
				best = c
			}
		}
		if !e.queue[best].before(e.queue[i]) {
			break
		}
		e.queue[i], e.queue[best] = e.queue[best], e.queue[i]
		i = best
	}
}
