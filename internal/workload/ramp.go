package workload

import (
	"fmt"
	"math"

	"extsched/internal/sim"
)

// RampDriver submits transactions as a non-homogeneous Poisson process
// whose rate moves linearly from From to To over Duration seconds, then
// holds at To. It models the load transitions the paper's external
// scheduler must survive — a morning ramp-up, the onset of a flash
// crowd — between the steady-state phases the figures measure.
//
// Arrivals are generated by Lewis–Shedler thinning against the peak
// rate, so the process is exact (not a staircase approximation) and
// deterministic given the driver's RNG stream.
type RampDriver struct {
	eng      *sim.Engine
	fe       Sink
	gen      *Generator
	from, to float64
	duration float64
	peak     float64
	start    float64
	rng      *sim.RNG
	stopped  bool
	paused   bool
	pending  sim.Handle
	arrived  uint64
	fire     func() // arrive, bound once
}

// NewRampDriver builds a driver ramping from `from` to `to` arrivals
// per second over duration seconds. Both rates must be >= 0, at least
// one positive; duration must be positive.
func NewRampDriver(eng *sim.Engine, fe Sink, gen *Generator, from, to, duration float64) *RampDriver {
	if from < 0 || to < 0 || math.Max(from, to) <= 0 {
		panic(fmt.Sprintf("workload: ramp rates %v -> %v must be >= 0 with a positive peak", from, to))
	}
	if duration <= 0 {
		panic(fmt.Sprintf("workload: ramp duration %v must be positive", duration))
	}
	d := &RampDriver{
		eng: eng, fe: fe, gen: gen,
		from: from, to: to, duration: duration,
		peak: math.Max(from, to),
		rng:  sim.NewRNG(gen.rng.Uint64(), 17),
	}
	d.fire = d.arrive
	return d
}

// Rate returns the target arrival rate at absolute engine time t.
func (d *RampDriver) Rate(t float64) float64 {
	el := t - d.start
	switch {
	case el <= 0:
		return d.from
	case el >= d.duration:
		return d.to
	default:
		return d.from + (d.to-d.from)*el/d.duration
	}
}

// Start anchors the ramp at the engine's current time and schedules the
// first candidate arrival.
func (d *RampDriver) Start() {
	d.start = d.eng.Now()
	d.next()
}

// Stop halts future arrivals.
func (d *RampDriver) Stop() { d.stopped = true }

// Pause cancels the pending candidate arrival. The thinning process is
// memoryless at the peak rate, so Resume draws a fresh gap; the ramp's
// time base is unchanged (the rate keeps following the original
// schedule).
func (d *RampDriver) Pause() {
	if d.stopped || d.paused {
		return
	}
	d.paused = true
	d.eng.Cancel(d.pending)
}

// Resume restarts arrivals from the engine's current time.
func (d *RampDriver) Resume() {
	if d.stopped || !d.paused {
		return
	}
	d.paused = false
	d.next()
}

// Arrived returns the number of accepted arrivals so far.
func (d *RampDriver) Arrived() uint64 { return d.arrived }

func (d *RampDriver) next() {
	if d.stopped || d.paused {
		return
	}
	d.pending = d.eng.After(d.rng.ExpFloat64()/d.peak, d.fire)
}

// arrive is the candidate-arrival event.
func (d *RampDriver) arrive() {
	if d.stopped || d.paused {
		return
	}
	// Thinning: accept the candidate with probability rate/peak.
	if d.rng.Float64()*d.peak <= d.Rate(d.eng.Now()) {
		d.arrived++
		d.fe.Submit(d.gen.Next())
	}
	d.next()
}

// BurstDriver submits transactions as a two-state Markov-modulated
// Poisson process (MMPP-2) with long-run mean rate exactly lambda: an
// "on" state at rate 2λF²/(F²+1) and an "off" state at 2λ/(F²+1) — a
// Factor² rate ratio between states, normalized so the two equal-mean
// sojourns average to λ. Sojourns are exponential with mean Period
// seconds; Factor 1 degenerates to plain Poisson. This is the
// flash-crowd / diurnal arrival structure of the production traces the
// paper compares against (package trace synthesizes the same shape
// offline; BurstDriver generates it live so mid-run control — MPL
// changes, the feedback controller — can react to it).
type BurstDriver struct {
	eng     *sim.Engine
	fe      Sink
	gen     *Generator
	hi, lo  float64
	period  float64
	rng     *sim.RNG // arrival stream
	modRng  *sim.RNG // state-sojourn stream
	on      bool
	flipAt  float64
	stopped bool
	paused  bool
	pending sim.Handle
	arrived uint64
	fire    func() // arrive, bound once
}

// NewBurstDriver builds an MMPP-2 driver around mean rate lambda with
// the given burst factor (>= 1) and mean state sojourn period (> 0).
func NewBurstDriver(eng *sim.Engine, fe Sink, gen *Generator, lambda, factor, period float64) *BurstDriver {
	if lambda <= 0 {
		panic(fmt.Sprintf("workload: burst lambda %v must be positive", lambda))
	}
	if factor < 1 {
		panic(fmt.Sprintf("workload: burst factor %v must be >= 1", factor))
	}
	if period <= 0 {
		panic(fmt.Sprintf("workload: burst period %v must be positive", period))
	}
	seed := gen.rng.Uint64()
	// Normalize so (hi+lo)/2 == lambda with hi/lo == factor².
	f2 := float64(factor * factor)
	d := &BurstDriver{
		eng: eng, fe: fe, gen: gen,
		hi: 2 * lambda * f2 / (f2 + 1), lo: 2 * lambda / (f2 + 1), period: period,
		rng:    sim.NewRNG(seed, 19),
		modRng: sim.NewRNG(seed, 29),
	}
	d.fire = d.arrive
	return d
}

// Start enters the "on" state at the engine's current time and
// schedules the first candidate arrival.
func (d *BurstDriver) Start() {
	d.on = true
	d.flipAt = d.eng.Now() + float64(d.modRng.ExpFloat64()*d.period)
	d.next()
}

// Stop halts future arrivals.
func (d *BurstDriver) Stop() { d.stopped = true }

// Pause cancels the pending candidate arrival; the modulating chain
// keeps evolving on its original schedule (rate advances lazily), so a
// paused burst driver resumes into whatever state the chain is in.
func (d *BurstDriver) Pause() {
	if d.stopped || d.paused {
		return
	}
	d.paused = true
	d.eng.Cancel(d.pending)
}

// Resume restarts arrivals from the engine's current time.
func (d *BurstDriver) Resume() {
	if d.stopped || !d.paused {
		return
	}
	d.paused = false
	d.next()
}

// Arrived returns the number of accepted arrivals so far.
func (d *BurstDriver) Arrived() uint64 { return d.arrived }

// rate advances the modulating chain to time t and returns the state's
// rate. Lazy advancement keeps the draw order deterministic: sojourn
// lengths are consumed in state order regardless of arrival times.
func (d *BurstDriver) rate(t float64) float64 {
	for t >= d.flipAt {
		d.on = !d.on
		d.flipAt += float64(d.modRng.ExpFloat64() * d.period)
	}
	if d.on {
		return d.hi
	}
	return d.lo
}

func (d *BurstDriver) next() {
	if d.stopped || d.paused {
		return
	}
	d.pending = d.eng.After(d.rng.ExpFloat64()/d.hi, d.fire)
}

// arrive is the candidate-arrival event.
func (d *BurstDriver) arrive() {
	if d.stopped || d.paused {
		return
	}
	if d.rng.Float64()*d.hi <= d.rate(d.eng.Now()) {
		d.arrived++
		d.fe.Submit(d.gen.Next())
	}
	d.next()
}
