package cpusched

import (
	"testing"

	"extsched/internal/sim"
)

// TestSubmitCompleteZeroAlloc pins a burst's submit→complete cycle at
// zero allocations once the job free list and the engine are warm: a
// closed population of four jobs on two cores, each completion
// submitting the next burst (every fifth one zero-work), so every
// completion re-arms the CPU's one completion event.
func TestSubmitCompleteZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	cpu := New(eng, 2)
	done := 0
	var onDone func()
	onDone = func() {
		done++
		cpu.Submit(0.001*float64(done%5), 1, onDone)
	}
	for i := 0; i < 4; i++ {
		cpu.Submit(0.001*float64(i+1), 1, onDone)
	}
	for i := 0; i < 100; i++ {
		eng.Step()
	}
	before := done
	if n := testing.AllocsPerRun(1000, func() { eng.Step() }); n != 0 {
		t.Errorf("submit→complete allocates %v per event, want 0", n)
	}
	if done-before < 1000 {
		t.Errorf("%d bursts completed in 1001 events, want at least 1000", done-before)
	}
}

// TestStaleJobHandle checks a handle cannot reach the burst that
// reuses its record: after a job completes, its record serves the next
// Submit, and canceling or reweighting through the old handle must
// leave the new burst alone.
func TestStaleJobHandle(t *testing.T) {
	eng := sim.NewEngine()
	cpu := New(eng, 1)
	old := cpu.Submit(1, 1, func() {})
	eng.RunAll()
	fired := false
	cur := cpu.Submit(1, 1, func() { fired = true })
	if cur.j != old.j {
		t.Fatal("the completed job's record was not reused")
	}
	cpu.Cancel(old)
	cpu.SetWeight(old, 50)
	if old.Remaining() != 0 || old.Rate() != 0 {
		t.Errorf("stale handle reads remaining %v, rate %v; want 0, 0", old.Remaining(), old.Rate())
	}
	eng.RunAll()
	if !fired {
		t.Error("a stale Cancel canceled the record's new occupant")
	}
}

// TestStaleZeroWorkHandle covers a zero-work job canceled before its
// zero-delay completion event fires: the event recycles the record,
// and the stale handle must not cancel the job that reuses it.
func TestStaleZeroWorkHandle(t *testing.T) {
	eng := sim.NewEngine()
	cpu := New(eng, 1)
	canceledFired := false
	old := cpu.Submit(0, 1, func() { canceledFired = true })
	cpu.Cancel(old)
	eng.RunAll()
	if canceledFired {
		t.Fatal("canceled zero-work job completed")
	}
	fired := 0
	cur := cpu.Submit(0, 1, func() { fired++ })
	if cur.j != old.j {
		t.Fatal("the zero-work job's record was not reused")
	}
	cpu.Cancel(old)
	eng.RunAll()
	if fired != 1 {
		t.Errorf("new zero-work job completed %d times, want 1", fired)
	}
}
