// SLO control: from throughput convergence to per-class latency
// targets.
//
// The paper's Section 4.3 loop tunes ONE number — the MPL — to keep
// aggregate throughput near the no-MPL optimum. Its Section 5
// prioritization experiments show that the external queue can
// differentiate transaction classes without touching the DBMS. The SLO
// controller here combines the two: given a fixed MPL, it partitions
// the slots across priority classes (core.Frontend class limits, with
// work-conserving borrowing) and steers the partition from the
// measured tail latency of the SLO class — growing that class's share
// while its percentile target is violated, handing slots back to the
// other classes once the target is met with margin, so their
// throughput is sacrificed only while the SLO needs it. Overload is
// not the partition's job: admission deadlines on the non-SLO classes
// (core.Frontend.SetAdmitDeadline) shed work that could not start in
// time, which is what keeps the queue — and therefore the SLO class's
// tail — bounded when the offered load exceeds capacity.
package controller

import (
	"fmt"
	"sync"

	"extsched/internal/core"
)

// ClassGate is the control surface the SLO loop drives: a limit to
// read and partition across classes. *core.Frontend implements it.
type ClassGate interface {
	// MPL returns the current limit.
	MPL() int
	// SetClassLimits partitions the MPL (see core.Frontend).
	SetClassLimits(map[core.Class]int)
}

// SLOConfig tunes the SLO loop: hold Class's Percentile-th
// response-time percentile at or below Target seconds. The live gate
// takes it as gate.SLOTuneConfig, and the scenario runner builds it
// from an SLOSpec.
type SLOConfig struct {
	// Class is the protected class (usually core.ClassHigh).
	Class core.Class
	// OtherClass is the class the SLO class borrows slots from; left
	// zero (or equal to Class) it defaults to low, or to high for a
	// low target. The partition always covers exactly these two
	// classes; any other class stays uncapped.
	OtherClass core.Class
	// Percentile is the controlled percentile (e.g. 95); default 95.
	Percentile float64
	// Target is the latency bound in seconds. Required, > 0.
	Target float64
	// MinObservations gates window close: the window needs this many
	// completions overall AND a tenth of it (at least 5) from the SLO
	// class, so a reaction never steers on an unmeasured tail. Default
	// 50.
	MinObservations int
	// Margin is the give-back hysteresis: a slot moves back to the
	// other class only while the measured percentile is below
	// Margin×Target (default 0.5), so the partition does not oscillate
	// at the boundary.
	Margin float64
}

// giveBackHold is how many CONSECUTIVE below-margin windows it takes to
// hand one slot back. Taking is per-window, giving back is
// deliberately slower: with work-conserving borrowing an oversized SLO
// share costs the other class almost nothing while the SLO class is
// idle (the idle slots are lent out), whereas an undersized share at
// the next burst costs the SLO class its tail. Asymmetric pacing keeps
// the share from decaying between burst episodes. minClassLimit floors
// each class's share.
const (
	giveBackHold  = 4
	minClassLimit = 1
)

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Percentile == 0 {
		c.Percentile = 95
	}
	if c.OtherClass == c.Class {
		c.OtherClass = core.ClassLow
		if c.Class == core.ClassLow {
			c.OtherClass = core.ClassHigh
		}
	}
	if c.MinObservations <= 0 {
		c.MinObservations = 50
	}
	if c.Margin == 0 {
		c.Margin = 0.5
	}
	return c
}

// SLOController partitions a gate's MPL across classes to hold a
// latency SLO. Like the throughput and fairness controllers it is a
// Loop that owns its observation window: attach it to the gate's Slot,
// or invoke Observe once per completion, from any goroutine. It never
// "converges" — an SLO is held continuously, not found once — so it
// keeps reacting for as long as it is attached.
type SLOController struct {
	mu   sync.Mutex
	gate ClassGate
	cfg  SLOConfig
	// sloShare is the SLO class's current slot share; the other class
	// holds the remainder of the gate's MPL.
	sloShare int
	// belowCount counts consecutive below-margin windows (the give-back
	// pacing state).
	belowCount int
	// iterations counts reactions; lastMeasured is the SLO class's
	// percentile over the last closed window.
	iterations   int
	lastMeasured float64
	// win tallies the current observation window's completions; the
	// SLO class's sketch in it gives the measured percentile.
	win core.Metrics
}

// NewSLO builds an SLO controller over g and installs the initial
// partition: an even split of the gate's current MPL (SLO class
// rounded up). The gate must have a finite MPL of at least 2 — a
// partition needs at least one slot per class. Changing the gate's MPL while the loop
// runs is fine: the partition re-spreads over the new total at the
// next reaction.
func NewSLO(g ClassGate, cfg SLOConfig) (*SLOController, error) {
	cfg = cfg.withDefaults()
	if cfg.Target <= 0 {
		return nil, fmt.Errorf("controller: SLO target %v must be positive seconds", cfg.Target)
	}
	if cfg.Percentile <= 0 || cfg.Percentile >= 100 {
		return nil, fmt.Errorf("controller: SLO percentile %v outside (0,100)", cfg.Percentile)
	}
	if cfg.Margin < 0 || cfg.Margin >= 1 {
		return nil, fmt.Errorf("controller: SLO margin %v outside [0,1)", cfg.Margin)
	}
	total := g.MPL()
	if total < 2*minClassLimit {
		return nil, fmt.Errorf("controller: SLO partition needs MPL >= %d, gate has %d", 2*minClassLimit, total)
	}
	c := &SLOController{gate: g, cfg: cfg, sloShare: (total + 1) / 2}
	c.clampShare(total)
	c.apply(total)
	return c, nil
}

// clampShare keeps the SLO share inside [minClassLimit, total-minClassLimit].
func (c *SLOController) clampShare(total int) {
	if c.sloShare < minClassLimit {
		c.sloShare = minClassLimit
	}
	if max := total - minClassLimit; c.sloShare > max {
		c.sloShare = max
	}
}

// apply pushes the current partition to the gate. The two limits
// always sum to the gate's MPL and each stays >= minClassLimit — the
// partition invariant the property tests pin.
func (c *SLOController) apply(total int) {
	c.gate.SetClassLimits(map[core.Class]int{
		c.cfg.Class:      c.sloShare,
		c.cfg.OtherClass: total - c.sloShare,
	})
}

// SLOStatus is the SLO loop's progress, read under one lock so its
// fields come from the same reaction.
type SLOStatus struct {
	// SLOLimit / OtherLimit are the current slot partition, clamped
	// against the gate's CURRENT MPL: an external limit change between
	// reactions (SetLimit, a composed MPL loop) shrinks the reported
	// share rather than producing a negative other side; the next
	// closed window re-spreads the stored share the same way.
	SLOLimit, OtherLimit int
	// Iterations is the number of completed reactions.
	Iterations int
	// LastMeasured is the SLO class's percentile, in seconds, over the
	// last closed window (0 before the first reaction).
	LastMeasured float64
}

// Status returns the SLO loop's progress.
func (c *SLOController) Status() SLOStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.gate.MPL()
	slo := min(c.sloShare, total-minClassLimit)
	if slo < 0 {
		slo = 0
	}
	return SLOStatus{SLOLimit: slo, OtherLimit: total - slo, Iterations: c.iterations, LastMeasured: c.lastMeasured}
}

// Observe tallies one completed item into the observation window: when
// the window has seen enough traffic — overall and from the SLO class
// — it reads the class percentile, moves one slot toward whichever
// side the measurement demands, and opens a fresh window. Call it once
// per completed item, from any goroutine.
func (c *SLOController) Observe(it *core.Item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.win.Record(it)
	if int(c.win.Completed) < c.cfg.MinObservations {
		return
	}
	minSLO := c.cfg.MinObservations / 10
	if minSLO < 5 {
		minSLO = 5
	}
	tail := c.win.ClassMetric(c.cfg.Class)
	if int(tail.Completed()) < minSLO {
		return
	}
	measured := tail.Sketch.Quantile(c.cfg.Percentile / 100)
	total := c.gate.MPL()
	if total >= 2*minClassLimit {
		switch {
		case measured > c.cfg.Target:
			c.sloShare++
			c.belowCount = 0
		case measured < c.cfg.Margin*c.cfg.Target:
			c.belowCount++
			if c.belowCount >= giveBackHold {
				c.sloShare--
				c.belowCount = 0
			}
		default:
			c.belowCount = 0
		}
		c.clampShare(total)
		// Re-apply even when the share held: an MPL change since the
		// last reaction must be re-spread across the classes.
		c.apply(total)
	}
	c.iterations++
	c.lastMeasured = measured
	c.win.Reset()
}
