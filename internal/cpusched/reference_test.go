package cpusched

// The processor-sharing scheduler as it stood before the unit-weight
// fast path and the contiguous remaining-work slice, kept verbatim
// apart from its renamed identifiers (job → refJob, Job → refHandle,
// CPU → refCPU, New → newRef). FuzzCPUMatchesReference drives it and
// the CPU side by side and requires bit-identical results.

import (
	"fmt"
	"math"

	"extsched/internal/sim"
)

// job is the recycled per-burst record behind a Job handle.
type refJob struct {
	remaining float64 // seconds of CPU work left at rate 1
	weight    float64
	rate      float64 // current service rate (cores)
	onDone    func()
	gen       uint64 // bumped on recycling; invalidates stale handles
	canceled  bool   // zero-work job canceled before its event fired
	idx       int    // position in the CPU's job slice; -1 when absent
	// fire completes a zero-work job from its zero-delay event; bound
	// once per record.
	fire func()
}

// Job is a value handle to a submitted CPU burst. Copy it freely. It
// goes stale once the burst completes or is canceled and its record
// is recycled. Remaining and Rate read 0 through a stale handle or the
// zero Job, and Cancel and SetWeight ignore one, so a handle kept past
// its burst can never touch the burst that later reuses the record.
type refHandle struct {
	j   *refJob
	gen uint64
}

// live returns the record if the handle is current.
func (h refHandle) live() *refJob {
	if h.j != nil && h.j.gen == h.gen {
		return h.j
	}
	return nil
}

// Remaining returns the job's outstanding CPU work in seconds (0 once
// it finished or was canceled).
func (h refHandle) Remaining() float64 {
	if j := h.live(); j != nil {
		return j.remaining
	}
	return 0
}

// Rate returns the job's current service rate in cores (0 once it
// finished or was canceled).
func (h refHandle) Rate() float64 {
	if j := h.live(); j != nil {
		return j.rate
	}
	return 0
}

// CPU is the shared multi-core resource.
type refCPU struct {
	eng        *sim.Engine
	cores      int
	jobs       []*refJob
	lastUpdate float64
	// busyTime integrates total busy core-seconds for utilization
	// reporting.
	busyTime float64
	// nextEv fires when nextJob — the earliest finisher at current
	// rates — completes. Keeping a single armed event (instead of one
	// per job) makes membership changes O(n) arithmetic without event-
	// heap churn. completeNext, bound once, is its callback.
	nextEv       sim.Handle
	nextJob      *refJob
	completeNext func()
	// scratch is reused by the water-filling pass to avoid a per-event
	// allocation.
	scratch []*refJob
	// free recycles job records.
	free []*refJob
}

// New returns a CPU pool with the given core count (>= 1).
func newRef(eng *sim.Engine, cores int) *refCPU {
	if cores < 1 {
		panic(fmt.Sprintf("cpusched: cores %d must be >= 1", cores))
	}
	c := &refCPU{eng: eng, cores: cores, lastUpdate: eng.Now()}
	c.completeNext = func() { c.complete(c.nextJob) }
	return c
}

// Cores returns the core count.
func (c *refCPU) Cores() int { return c.cores }

// Resident returns the number of resident jobs.
func (c *refCPU) Resident() int { return len(c.jobs) }

// BusyCoreSeconds returns the integral of in-use cores over time,
// advanced to the current instant.
func (c *refCPU) BusyCoreSeconds() float64 {
	c.advance()
	return c.busyTime
}

// Submit adds a job requiring work seconds of CPU at rate 1, with the
// given scheduling weight (> 0). onDone fires when the work completes.
func (c *refCPU) Submit(work, weight float64, onDone func()) refHandle {
	if work < 0 || math.IsNaN(work) || math.IsInf(work, 0) {
		panic(fmt.Sprintf("cpusched: invalid work %v", work))
	}
	if weight <= 0 {
		panic(fmt.Sprintf("cpusched: weight %v must be positive", weight))
	}
	c.advance()
	var j *refJob
	if n := len(c.free); n > 0 {
		j = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		j = &refJob{idx: -1}
		j.fire = func() { c.fireZero(j) }
	}
	j.remaining, j.weight, j.rate, j.onDone = work, weight, 0, onDone
	h := refHandle{j: j, gen: j.gen}
	if work == 0 {
		// Complete immediately but asynchronously, preserving the
		// invariant that callbacks never run inside Submit.
		c.eng.After(0, j.fire)
		return h
	}
	j.idx = len(c.jobs)
	c.jobs = append(c.jobs, j)
	c.reschedule()
	return h
}

// fireZero completes a zero-work job unless it was canceled.
func (c *refCPU) fireZero(j *refJob) {
	onDone, canceled := j.onDone, j.canceled
	c.recycle(j)
	if !canceled {
		onDone()
	}
}

// recycle invalidates outstanding handles to j and returns it to the
// free list.
func (c *refCPU) recycle(j *refJob) {
	j.gen++
	j.onDone = nil
	j.canceled = false
	j.remaining, j.rate = 0, 0
	j.idx = -1
	c.free = append(c.free, j)
}

// Cancel removes a job before completion (transaction abort). Safe to
// call on completed jobs and stale handles (no-op).
func (c *refCPU) Cancel(h refHandle) {
	j := h.live()
	if j == nil || j.canceled {
		return
	}
	if j.idx < 0 {
		// A zero-work job: its pending event recycles the record.
		j.canceled = true
		return
	}
	c.advance()
	c.remove(j)
	c.recycle(j)
	c.reschedule()
}

// remove drops j from the job slice in O(1) by swapping with the tail.
func (c *refCPU) remove(j *refJob) {
	i := j.idx
	if i < 0 || i >= len(c.jobs) || c.jobs[i] != j {
		return
	}
	last := len(c.jobs) - 1
	c.jobs[i] = c.jobs[last]
	c.jobs[i].idx = i
	c.jobs[last] = nil
	c.jobs = c.jobs[:last]
	j.idx = -1
}

// SetWeight changes a resident job's weight (e.g. a priority change
// mid-flight). No-op for finished jobs and stale handles.
func (c *refCPU) SetWeight(h refHandle, weight float64) {
	if weight <= 0 {
		panic(fmt.Sprintf("cpusched: weight %v must be positive", weight))
	}
	j := h.live()
	if j == nil || j.idx < 0 {
		return
	}
	c.advance()
	j.weight = weight
	c.reschedule()
}

// advance drains elapsed time into each resident job's remaining work
// at its current rate, and into the busy-time integral.
func (c *refCPU) advance() {
	now := c.eng.Now()
	dt := now - c.lastUpdate
	if dt <= 0 {
		c.lastUpdate = now
		return
	}
	for _, j := range c.jobs {
		j.remaining -= j.rate * dt
		if j.remaining < 0 {
			j.remaining = 0
		}
		c.busyTime += j.rate * dt
	}
	c.lastUpdate = now
}

// reschedule recomputes rates by weighted water-filling and re-arms
// the single next-completion event.
func (c *refCPU) reschedule() {
	c.eng.Cancel(c.nextEv)
	c.nextEv, c.nextJob = sim.Handle{}, nil
	n := len(c.jobs)
	if n == 0 {
		return
	}
	// Water-filling: allocate min(cores, n) total rate; each job's
	// share is proportional to weight, capped at 1 core. Jobs at the
	// cap release surplus to the rest.
	capacity := float64(c.cores)
	if float64(n) < capacity {
		capacity = float64(n)
	}
	// Fast path 1: fewer jobs than cores — everyone runs at full rate.
	if n <= c.cores {
		for _, j := range c.jobs {
			j.rate = 1
		}
		c.arm()
		return
	}
	// Fast path 2: proportional shares with no job hitting the 1-core
	// cap — the overwhelmingly common case with equal weights.
	totalW := 0.0
	maxW := 0.0
	for _, j := range c.jobs {
		totalW += j.weight
		if j.weight > maxW {
			maxW = j.weight
		}
	}
	if maxW*capacity/totalW < 1 {
		share := capacity / totalW
		for _, j := range c.jobs {
			j.rate = j.weight * share
		}
		c.arm()
		return
	}
	// General water-filling with the 1-core cap.
	for _, j := range c.jobs {
		j.rate = 0
	}
	uncapped := append(c.scratch[:0], c.jobs...)
	defer func() { c.scratch = uncapped[:0] }()
	remaining := capacity
	for len(uncapped) > 0 && remaining > 1e-15 {
		totalW := 0.0
		for _, j := range uncapped {
			totalW += j.weight
		}
		capped := false
		share := remaining / totalW
		kept := uncapped[:0]
		for _, j := range uncapped {
			if j.rate+j.weight*share >= 1 {
				remaining -= 1 - j.rate
				j.rate = 1
				capped = true
			} else {
				kept = append(kept, j)
			}
		}
		uncapped = kept
		if !capped {
			for _, j := range uncapped {
				j.rate += j.weight * share
			}
			remaining = 0
		}
	}
	c.arm()
}

// arm schedules one event for the earliest finisher at current rates.
func (c *refCPU) arm() {
	var soonest *refJob
	best := math.Inf(1)
	for _, j := range c.jobs {
		if j.rate <= 0 {
			continue // starved (possible transiently with extreme weights)
		}
		if f := j.remaining / j.rate; f < best {
			best, soonest = f, j
		}
	}
	if soonest == nil {
		return
	}
	c.nextJob = soonest
	c.nextEv = c.eng.At(c.eng.Now()+best, c.completeNext)
}

// complete finishes a job whose remaining work reached zero.
func (c *refCPU) complete(j *refJob) {
	c.advance()
	onDone := j.onDone
	c.remove(j)
	c.recycle(j)
	c.reschedule()
	onDone()
}
