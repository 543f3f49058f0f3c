// Package cpusched simulates a multi-core CPU shared processor-sharing
// style, the way a Linux box runs concurrent DBMS worker processes.
//
// Each of the C cores has unit service rate. When n jobs are resident,
// capacity is divided by weighted water-filling: a job's rate is
// proportional to its weight but never exceeds one core (a single
// process cannot use two CPUs at once — the same limitation the paper
// notes for its analytic model). With equal weights and n > C, every
// job runs at C/n; with n <= C every job runs at rate 1.
//
// Weights implement the paper's internal CPU prioritization (Section
// 5.2): "renice -20 vs 20" maps to a large weight ratio between high-
// and low-priority transactions.
//
// # One shared rate
//
// The resident jobs' remaining work lives in a slice parallel to the
// job slice, appended and swap-removed with it, so a pass over the
// jobs reads contiguous memory and always sums in slice order. When
// every resident job runs at the same rate — n <= C, or every weight
// exactly 1, as in each Table 2 setup without CPU prioritization —
// the CPU keeps that one rate instead of one per job, and never reads
// a job's record to drain, rate or rank it. Every result is
// bit-identical to per-job water-filling:
//
//   - The rate is 1, or float64(C)/float64(n): the sum of n unit
//     weights is exactly n, and 1*share is share.
//   - Draining elapsed time subtracts one hoisted product rate*dt from
//     each job in slice order and adds it to the busy integral once per
//     job: the same products, in the same order.
//   - The earliest finisher is the job with the least remaining work,
//     found without dividing, because dividing by one positive rate
//     never reverses an order. It can merge one, though: two works
//     at most about 2⁻⁵² apart (relative) may give the same quotient,
//     and then the first job in slice order must win. So when the least
//     work's nearest rival earlier in the slice lies within 2⁻⁴⁸
//     (relative) of it, the CPU falls back to dividing every job's work.
//   - The least work, its first holder and its rival stay known while
//     jobs are only appended: a submit at the instant of the last drain
//     (the next burst of a transaction whose burst just completed)
//     updates them without a pass.
//
// Every product is rounded explicitly (float64(a*b)), so no platform
// fuses a multiply into the following add or subtract, and results are
// the same on every architecture.
package cpusched

import (
	"fmt"
	"math"

	"extsched/internal/sim"
)

// job is the recycled per-burst record behind a Job handle. While the
// job is resident, its remaining work sits at index idx of the CPU's
// rem slice.
type job struct {
	cpu      *CPU
	weight   float64
	rate     float64 // service rate (cores) while the CPU's rate is 0
	onDone   func()
	gen      uint64 // bumped on recycling; invalidates stale handles
	idx      int32  // position in the CPU's job slice; -1 when absent
	canceled bool   // zero-work job canceled before its event fired
	next     *job   // next record on the CPU's free list
	// fire completes a zero-work job from its zero-delay event; bound
	// once per record.
	fire func()
}

// Job is a value handle to a submitted CPU burst. Copy it freely. It
// goes stale once the burst completes or is canceled and its record
// is recycled. Remaining and Rate read 0 through a stale handle or the
// zero Job, and Cancel and SetWeight ignore one, so a handle kept past
// its burst can never touch the burst that later reuses the record.
type Job struct {
	j   *job
	gen uint64
}

// live returns the record if the handle is current.
func (h Job) live() *job {
	if h.j != nil && h.j.gen == h.gen {
		return h.j
	}
	return nil
}

// resident returns the record if the handle is current and its job
// holds a place in the CPU's job slice.
func (h Job) resident() *job {
	if j := h.live(); j != nil && j.idx >= 0 {
		return j
	}
	return nil
}

// Remaining returns the job's outstanding CPU work in seconds (0 once
// it finished or was canceled).
func (h Job) Remaining() float64 {
	if j := h.resident(); j != nil {
		return j.cpu.rem[j.idx]
	}
	return 0
}

// Rate returns the job's current service rate in cores (0 once it
// finished or was canceled).
func (h Job) Rate() float64 {
	j := h.resident()
	if j == nil {
		return 0
	}
	if r := j.cpu.rate; r > 0 {
		return r
	}
	return j.rate
}

// CPU is the shared multi-core resource. The fields every submit and
// completion touches come first.
type CPU struct {
	eng *sim.Engine
	// jobs holds the resident jobs; rem[i] is jobs[i]'s remaining work
	// in seconds at rate 1.
	jobs []*job
	rem  []float64
	// rate is every resident job's rate while they all share one (see
	// the package doc), and 0 while each job's record holds its own.
	rate float64
	// least is the least remaining work and first its first index in
	// slice order; rival is the least work before first. They stay
	// true while rem only grows at its tail; first is -1 once elapsed
	// time drains rem or a job leaves it.
	least, rival float64
	first        int
	// unit counts the resident jobs whose weight is exactly 1.
	unit       int
	cores      int
	lastUpdate float64
	// busyTime integrates total busy core-seconds for utilization
	// reporting.
	busyTime float64
	// nextEv fires when nextJob — the earliest finisher at current
	// rates — completes. Keeping a single armed event (instead of one
	// per job) makes membership changes O(n) arithmetic without event-
	// heap churn. completeNext, bound once, is its callback.
	nextEv       sim.Handle
	nextJob      *job
	completeNext func()
	// free heads the list of recycled job records.
	free *job
	// scratch is reused by the water-filling pass to avoid a per-event
	// allocation.
	scratch []*job
}

// New returns a CPU pool with the given core count (>= 1).
func New(eng *sim.Engine, cores int) *CPU {
	if cores < 1 {
		panic(fmt.Sprintf("cpusched: cores %d must be >= 1", cores))
	}
	c := &CPU{eng: eng, cores: cores, lastUpdate: eng.Now(), first: -1}
	c.completeNext = func() { c.complete(c.nextJob) }
	return c
}

// Cores returns the core count.
func (c *CPU) Cores() int { return c.cores }

// Resident returns the number of resident jobs.
func (c *CPU) Resident() int { return len(c.jobs) }

// BusyCoreSeconds returns the integral of in-use cores over time,
// advanced to the current instant.
func (c *CPU) BusyCoreSeconds() float64 {
	c.advance()
	return c.busyTime
}

// Submit adds a job requiring work seconds of CPU at rate 1, with the
// given scheduling weight (> 0). onDone fires when the work completes.
func (c *CPU) Submit(work, weight float64, onDone func()) Job {
	if work < 0 || math.IsNaN(work) || math.IsInf(work, 0) {
		panic(fmt.Sprintf("cpusched: invalid work %v", work))
	}
	if weight <= 0 {
		panic(fmt.Sprintf("cpusched: weight %v must be positive", weight))
	}
	c.advance()
	var j *job
	if j = c.free; j != nil {
		c.free, j.next = j.next, nil
	} else {
		j = &job{cpu: c, idx: -1}
		j.fire = func() { c.fireZero(j) }
	}
	j.weight, j.rate, j.onDone = weight, 0, onDone
	h := Job{j: j, gen: j.gen}
	if work == 0 {
		// Complete immediately but asynchronously, preserving the
		// invariant that callbacks never run inside Submit.
		c.eng.After(0, j.fire)
		return h
	}
	j.idx = int32(len(c.jobs))
	c.jobs = append(c.jobs, j)
	c.rem = append(c.rem, work)
	if c.first >= 0 && work < c.least {
		c.rival, c.least, c.first = c.least, work, len(c.rem)-1
	}
	if weight == 1 {
		c.unit++
	}
	c.reschedule()
	return h
}

// fireZero completes a zero-work job unless it was canceled.
func (c *CPU) fireZero(j *job) {
	onDone, canceled := j.onDone, j.canceled
	c.recycle(j)
	if !canceled {
		onDone()
	}
}

// recycle invalidates outstanding handles to j and returns it to the
// free list.
func (c *CPU) recycle(j *job) {
	j.gen++
	j.onDone = nil
	j.canceled = false
	j.idx = -1
	j.next, c.free = c.free, j
}

// Cancel removes a job before completion (transaction abort). Safe to
// call on completed jobs and stale handles (no-op).
func (c *CPU) Cancel(h Job) {
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

// remove drops j from the job and remaining-work slices in O(1) by
// swapping with the tail.
func (c *CPU) remove(j *job) {
	i := int(j.idx)
	if i < 0 || i >= len(c.jobs) || c.jobs[i] != j {
		return
	}
	if j.weight == 1 {
		c.unit--
	}
	last := len(c.jobs) - 1
	c.jobs[i] = c.jobs[last]
	c.jobs[i].idx = int32(i)
	c.jobs[last] = nil
	c.jobs = c.jobs[:last]
	c.rem[i] = c.rem[last]
	c.rem = c.rem[:last]
	c.first = -1
	j.idx = -1
}

// SetWeight changes a resident job's weight (e.g. a priority change
// mid-flight). No-op for finished jobs and stale handles.
func (c *CPU) SetWeight(h Job, weight float64) {
	if weight <= 0 {
		panic(fmt.Sprintf("cpusched: weight %v must be positive", weight))
	}
	j := h.resident()
	if j == nil {
		return
	}
	c.advance()
	if j.weight == 1 {
		c.unit--
	}
	if weight == 1 {
		c.unit++
	}
	j.weight = weight
	c.reschedule()
}

// advance drains elapsed time into each resident job's remaining work
// at its current rate, and into the busy-time integral.
func (c *CPU) advance() {
	now := c.eng.Now()
	dt := now - c.lastUpdate
	c.lastUpdate = now
	if dt <= 0 {
		return
	}
	c.first = -1
	busy := c.busyTime
	rem := c.rem
	if c.rate > 0 {
		p := float64(c.rate * dt)
		for i, r := range rem {
			r -= p
			if r < 0 {
				r = 0
			}
			rem[i] = r
			busy += p
		}
	} else {
		rem = rem[:len(c.jobs)]
		for i, j := range c.jobs {
			p := float64(j.rate * dt)
			r := rem[i] - p
			if r < 0 {
				r = 0
			}
			rem[i] = r
			busy += p
		}
	}
	c.busyTime = busy
}

// reschedule recomputes rates and re-arms the single next-completion
// event.
func (c *CPU) reschedule() {
	c.eng.Cancel(c.nextEv)
	c.nextEv, c.nextJob = sim.Handle{}, nil
	n := len(c.jobs)
	switch {
	case n == 0:
		c.rate = 0
		return
	case n <= c.cores:
		// Fewer jobs than cores: everyone runs at full rate.
		c.rate = 1
	case c.unit == n:
		c.rate = float64(c.cores) / float64(n)
	default:
		c.rate = 0
		c.waterfill()
	}
	c.arm()
}

// waterfill sets each job's rate by weighted water-filling over more
// jobs than cores: the cores' capacity is shared in proportion to
// weight, each share capped at 1 core, and jobs at the cap release
// their surplus to the rest.
func (c *CPU) waterfill() {
	capacity := float64(c.cores)
	// Proportional shares with no job hitting the 1-core cap.
	totalW := 0.0
	maxW := 0.0
	for _, j := range c.jobs {
		totalW += j.weight
		if j.weight > maxW {
			maxW = j.weight
		}
	}
	if float64(maxW*capacity)/totalW < 1 {
		share := capacity / totalW
		for _, j := range c.jobs {
			j.rate = float64(j.weight * share)
		}
		return
	}
	// General water-filling with the 1-core cap.
	for _, j := range c.jobs {
		j.rate = 0
	}
	uncapped := append(c.scratch[:0], c.jobs...)
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
			if j.rate+float64(j.weight*share) >= 1 {
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
				j.rate += float64(j.weight * share)
			}
			remaining = 0
		}
	}
	c.scratch = uncapped[:0]
}

// arm schedules one event for the earliest finisher at current rates:
// the least remaining/rate, the first in slice order on a tie.
func (c *CPU) arm() {
	k, best := -1, math.Inf(1)
	if rate := c.rate; rate > 0 {
		if c.first < 0 {
			c.findLeast()
		}
		k, best = c.first, c.least/rate
		if c.rival-c.least <= float64(c.least*0x1p-48)+0x1p-960 {
			// The rival's quotient may round to best, and the rival
			// comes first: divide, as the per-job path does.
			k, best = -1, math.Inf(1)
			for i, r := range c.rem {
				if f := r / rate; f < best {
					best, k = f, i
				}
			}
		}
	} else {
		rem := c.rem[:len(c.jobs)]
		for i, j := range c.jobs {
			if j.rate <= 0 {
				continue // starved (possible transiently with extreme weights)
			}
			if f := rem[i] / j.rate; f < best {
				best, k = f, i
			}
		}
	}
	if k < 0 || !(best < math.Inf(1)) {
		return
	}
	c.nextJob = c.jobs[k]
	c.nextEv = c.eng.At(c.eng.Now()+best, c.completeNext)
}

// findLeast scans rem for least, first and rival.
func (c *CPU) findLeast() {
	least, rival, first := math.Inf(1), math.Inf(1), -1
	for i, r := range c.rem {
		if r < least {
			rival, least, first = least, r, i
		}
	}
	c.least, c.rival, c.first = least, rival, first
}

// complete finishes a job whose remaining work reached zero.
func (c *CPU) complete(j *job) {
	c.advance()
	onDone := j.onDone
	c.remove(j)
	c.recycle(j)
	c.reschedule()
	onDone()
}
