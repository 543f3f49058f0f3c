package workload

import (
	"fmt"
	"math"

	"extsched/internal/sim"
)

// ShapedDriver submits transactions as a non-homogeneous Poisson
// process shaped like production multi-tenant traffic: a diurnal sine
// around a base rate, optionally overlaid with a flash-crowd window
// that multiplies the instantaneous rate by FlashFactor. Arrivals are
// generated by Lewis–Shedler thinning against the combined peak rate
// (like RampDriver), so the process is exact and deterministic given
// the driver's RNG stream.
//
//	rate(t) = Base · (1 + Amp·sin(2π·(t−start)/Period)) · flash(t)
//	flash(t) = FlashFactor while t−start ∈ [FlashAt, FlashAt+FlashDuration), else 1
type ShapedDriver struct {
	eng                            *sim.Engine
	fe                             Sink
	gen                            *Generator
	base                           float64
	amp                            float64
	period                         float64
	flashFactor, flashAt, flashDur float64
	peak                           float64
	start                          float64
	rng                            *sim.RNG
	stopped                        bool
	paused                         bool
	pending                        sim.Handle
	arrived                        uint64
	fire                           func() // arrive, bound once
}

// ShapedConfig parameterizes a ShapedDriver.
type ShapedConfig struct {
	// Base is the mean arrival rate in transactions per second (> 0).
	Base float64
	// Amp is the diurnal amplitude in [0, 1]: the rate swings between
	// Base·(1−Amp) and Base·(1+Amp). 0 disables the sine.
	Amp float64
	// Period is the diurnal period in seconds (> 0 when Amp > 0).
	Period float64
	// FlashFactor multiplies the rate during the flash window (>= 1;
	// 1 or a zero-length window disables the flash).
	FlashFactor float64
	// FlashAt / FlashDuration position the flash window in seconds
	// relative to Start (both >= 0).
	FlashAt, FlashDuration float64
}

// NewShapedDriver builds a diurnal/flash-crowd driver.
func NewShapedDriver(eng *sim.Engine, fe Sink, gen *Generator, cfg ShapedConfig) *ShapedDriver {
	if cfg.Base <= 0 {
		panic(fmt.Sprintf("workload: shaped base rate %v must be positive", cfg.Base))
	}
	if cfg.Amp < 0 || cfg.Amp > 1 {
		panic(fmt.Sprintf("workload: diurnal amplitude %v outside [0,1]", cfg.Amp))
	}
	if cfg.Amp > 0 && cfg.Period <= 0 {
		panic(fmt.Sprintf("workload: diurnal period %v must be positive", cfg.Period))
	}
	if cfg.FlashFactor != 0 && cfg.FlashFactor < 1 {
		panic(fmt.Sprintf("workload: flash factor %v must be >= 1", cfg.FlashFactor))
	}
	if cfg.FlashAt < 0 || cfg.FlashDuration < 0 {
		panic(fmt.Sprintf("workload: flash window [%v, +%v) must be >= 0", cfg.FlashAt, cfg.FlashDuration))
	}
	ff := cfg.FlashFactor
	if ff == 0 || cfg.FlashDuration == 0 {
		ff = 1
	}
	peak := cfg.Base * (1 + cfg.Amp) * ff
	d := &ShapedDriver{
		eng: eng, fe: fe, gen: gen,
		base: cfg.Base, amp: cfg.Amp, period: cfg.Period,
		flashFactor: ff, flashAt: cfg.FlashAt, flashDur: cfg.FlashDuration,
		peak: peak,
		rng:  sim.NewRNG(gen.rng.Uint64(), 23),
	}
	d.fire = d.arrive
	return d
}

// Rate returns the target arrival rate at absolute engine time t.
func (d *ShapedDriver) Rate(t float64) float64 {
	el := t - d.start
	r := d.base
	if d.amp > 0 {
		r *= 1 + float64(d.amp*math.Sin(2*math.Pi*el/d.period))
	}
	if d.flashFactor > 1 && el >= d.flashAt && el < d.flashAt+d.flashDur {
		r *= d.flashFactor
	}
	return r
}

// Start anchors the shape at the engine's current time and schedules
// the first candidate arrival.
func (d *ShapedDriver) Start() {
	d.start = d.eng.Now()
	d.next()
}

// Stop halts future arrivals.
func (d *ShapedDriver) Stop() { d.stopped = true }

// Pause cancels the pending candidate arrival. The thinning process is
// memoryless at the peak rate, so Resume draws a fresh gap; the
// shape's time base is unchanged.
func (d *ShapedDriver) Pause() {
	if d.stopped || d.paused {
		return
	}
	d.paused = true
	d.eng.Cancel(d.pending)
}

// Resume restarts arrivals from the engine's current time.
func (d *ShapedDriver) Resume() {
	if d.stopped || !d.paused {
		return
	}
	d.paused = false
	d.next()
}

// Arrived returns the number of accepted arrivals so far.
func (d *ShapedDriver) Arrived() uint64 { return d.arrived }

func (d *ShapedDriver) next() {
	if d.stopped || d.paused {
		return
	}
	d.pending = d.eng.After(d.rng.ExpFloat64()/d.peak, d.fire)
}

// arrive is the candidate-arrival event.
func (d *ShapedDriver) arrive() {
	if d.stopped || d.paused {
		return
	}
	if d.rng.Float64()*d.peak <= d.Rate(d.eng.Now()) {
		d.arrived++
		d.fe.Submit(d.gen.Next())
	}
	d.next()
}
