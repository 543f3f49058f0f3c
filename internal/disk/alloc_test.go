package disk

import (
	"testing"

	"extsched/internal/dist"
	"extsched/internal/sim"
)

// TestSubmitCompleteZeroAlloc pins an I/O's submit→complete cycle at
// zero allocations once the request free list, the ring and the engine
// are warm. One request is always in service, so every request waits
// in the ring first.
func TestSubmitCompleteZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, "d0")
	done := 0
	onDone := func() { done++ }
	io := func() {
		d.Submit(0.01, onDone)
		d.Submit(0.01, onDone)
		eng.Step()
		eng.Step()
	}
	d.Submit(0.01, onDone) // one request always queued ahead
	for i := 0; i < 10; i++ {
		io()
	}
	if n := testing.AllocsPerRun(1000, io); n != 0 {
		t.Errorf("submit→complete allocates %v per two I/Os, want 0", n)
	}
	if want := uint64(2 * 1011); d.Served() != want {
		t.Errorf("served %d, want %d", d.Served(), want)
	}
}

// TestLogGroupCommitZeroAlloc does the same for group-commit log
// appends: the two group buffers swap, and nothing is allocated.
func TestLogGroupCommitZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLog(eng, dist.NewDeterministic(0.001), sim.NewRNG(1, 0))
	l.SetGroupCommit(true)
	durable := 0
	onDone := func() { durable++ }
	round := func() {
		for i := 0; i < 4; i++ {
			l.Append(onDone)
		}
		eng.RunAll()
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("group-commit round allocates %v, want 0", n)
	}
	if durable != 4*1011 {
		t.Errorf("%d records durable, want %d", durable, 4*1011)
	}
}

// TestStaleRequestHandle checks a handle cannot reach the I/O that
// reuses its record, whether the old I/O completed or was canceled in
// the queue.
func TestStaleRequestHandle(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDisk(eng, "d0")
	old := d.Submit(1, func() {})
	eng.RunAll()
	fired := 0
	cur := d.Submit(1, func() { fired++ })
	if cur.r != old.r {
		t.Fatal("the completed request's record was not reused")
	}
	d.Cancel(old)
	eng.RunAll()
	if fired != 1 {
		t.Fatalf("new I/O completed %d times after a stale Cancel, want 1", fired)
	}

	d.Submit(1, func() {}) // in service
	queued := d.Submit(1, func() { t.Error("canceled queued I/O fired") })
	d.Cancel(queued)
	next := d.Submit(1, func() { fired++ })
	if next.r != queued.r {
		t.Fatal("the canceled request's record was not reused")
	}
	d.Cancel(queued)
	eng.RunAll()
	if fired != 2 {
		t.Errorf("I/O after a canceled one completed %d times total, want 2", fired)
	}
}
