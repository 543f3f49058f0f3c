// Package controller implements the paper's Section 4.3 feedback
// controller for tuning the MPL, augmented with the queueing-theoretic
// jump-start of Sections 4.1–4.2.
//
// The controller alternates observation and reaction phases. An
// observation window closes once it has seen enough completions (the
// paper found ~100 per window), the confidence interval on the mean
// response time is tight enough, and the system load is representative
// (an idle system says nothing about the MPL). The reaction compares
// the window's throughput and mean response time against references —
// the no-MPL optimum predicted by the models or measured by probing —
// and nudges the MPL by a small constant step: up when a target is
// violated, down when both targets are met with margin, holding (and
// declaring convergence) at the lowest feasible value. The jump-start,
// Recommend's MVA throughput and QBD response-time bounds, gives the
// loop a close-to-optimal starting MPL, which is what makes small
// constant steps converge in under ten iterations. Recommend is also
// the repository's one Section 4 MPL tool (extsched.RecommendMPL,
// cmd/mpltool).
//
// The loop is deliberately ignorant of what it tunes: it consumes a
// completion stream (Observe, called once per completed item, which it
// tallies into its own observation window) and drives anything that
// satisfies the Gate interface — the simulated DBMS frontend, the
// sharded dispatcher and the wall-clock live gate all do. Time comes
// from a sim.Clock, so one controller implementation serves
// deterministic virtual-time experiments and real traffic alike. All methods are
// safe for concurrent callers (live gates complete items from many
// goroutines at once).
//
// This MPL loop, the SLO loop (SLOController) and the fairness loop
// (package fairness) share one shape, Loop, and attach to a gate
// through its Slot: one MPL loop and one partition loop can run
// together, the paper's recipe of picking the lowest feasible MPL and
// then prioritizing under it. Each loop owns its observation window
// and keeps constant-size state — counters, its window and its last
// reaction, never a growing log — so a loop can stay attached to a
// live gate indefinitely.
//
// Config and SLOConfig are the one vocabulary for these loops: the live
// gate takes them directly (gate.TuneConfig and gate.SLOTuneConfig are
// aliases), and the scenario runner translates its name-keyed JSON
// specs into them.
package controller

import (
	"fmt"
	"sync"

	"extsched/internal/core"
	"extsched/internal/sim"
	"extsched/internal/stats"
)

// Gate is the MPL-limited system under control: a settable limit plus
// the saturation signals the representative-load gate needs.
// *core.Frontend implements it for both the simulated DBMS and live
// traffic, and *cluster.Dispatcher for a sharded fleet.
type Gate interface {
	// MPL returns the current limit.
	MPL() int
	// SetMPL changes the limit (the reaction phase's actuator).
	SetMPL(int)
	// QueueLen and Inside report instantaneous load (for the
	// representative-load gate).
	QueueLen() int
	Inside() int
}

// Config tunes the control loop. The live gate takes it as
// gate.TuneConfig, and the scenario runner builds it from a
// ControllerSpec.
type Config struct {
	// MaxThroughputLoss is the largest acceptable fractional loss of
	// throughput versus the no-MPL optimum (e.g. 0.05). Required, in
	// [0,1).
	MaxThroughputLoss float64
	// ReferenceThroughput is the no-MPL optimum in completions per
	// second: the throughput of the system run without an MPL, from
	// the queueing models or a probe run. Required.
	ReferenceThroughput float64
	// MaxRTIncrease and ReferenceRT enable the optional response-time
	// criterion: mean response must stay within (1+MaxRTIncrease) ×
	// ReferenceRT, the no-MPL mean response time. Zero values disable
	// it.
	MaxRTIncrease float64
	ReferenceRT   float64
	// MinObservations gates window close; default 100 (paper).
	MinObservations int
	// MaxWindow caps a window's completions (default 50×MinObservations).
	MaxWindow int
	// MinLimit / MaxLimit clamp the search range; defaults 1 and 200.
	MinLimit, MaxLimit int
	// HoldWindows is the number of consecutive no-change reactions
	// after which the controller declares convergence; default 2.
	HoldWindows int
}

// The window-close gates and the step rule. A window closes once the
// response-time CI is within maxRelCI of the mean at the given
// confidence and the throughput estimate is within tputRelCI. The step
// starts at 1, doubles while consecutive reactions move in the same
// direction (capped at maxStep) and resets on a reversal or hold,
// which recovers quickly when the queueing jump-start misjudges the
// system; with an accurate jump-start it never engages. A decrease
// needs the throughput target met with decreaseMargin of the allowed
// slack to spare, the hysteresis that prevents oscillation.
const (
	confidence     = 0.95
	maxRelCI       = 0.15
	maxStep        = 16
	decreaseMargin = 0.5
)

// tputRelCI is the relative CI half-width of the mean inter-completion
// time a window must reach before it closes (unless it hits
// MaxWindow). A reaction that discriminates a 5% throughput loss needs
// windows measured better than 5%, so it is half the allowed loss,
// floored at 0.02: that is what makes the loop immune to window noise.
func (c Config) tputRelCI() float64 {
	return max(c.MaxThroughputLoss/2, 0.02)
}

func (c Config) withDefaults() Config {
	if c.MinObservations <= 0 {
		c.MinObservations = 100
	}
	if c.MinLimit <= 0 {
		c.MinLimit = 1
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 200
	}
	if c.HoldWindows <= 0 {
		c.HoldWindows = 2
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 50 * c.MinObservations
	}
	return c
}

// Action describes a reaction decision.
type Action string

const (
	// Increase raised the MPL (a target was violated).
	Increase Action = "increase"
	// Decrease lowered the MPL (targets met with margin).
	Decrease Action = "decrease"
	// Hold kept the MPL (at the feasibility boundary).
	Hold Action = "hold"
)

// Decision records one completed observation/reaction iteration.
type Decision struct {
	Iteration  int
	MPL        int
	Throughput float64
	MeanRT     float64
	Action     Action
	// TputOK / RTOK record which targets the window satisfied.
	TputOK, RTOK bool
}

// Controller drives a Gate's MPL from its completion stream.
type Controller struct {
	mu    sync.Mutex
	clock sim.Clock
	gate  Gate
	cfg   Config
	// iterations counts reactions; last is the most recent one (its
	// Action drives the adaptive step).
	iterations int
	last       Decision
	holdCount  int
	converged  bool
	// floor marks MPL values known to violate a target; the controller
	// will not descend into them again.
	floor int
	// step is the adaptive step size.
	step int
	// win tallies the completions of the current observation window,
	// which opened at winStart; interCompletion tracks the window's
	// inter-completion times, whose CI gates the throughput estimate.
	win             core.Metrics
	winStart        float64
	interCompletion stats.Accumulator
	lastCompletion  float64
}

// New builds a controller over g and opens its first observation
// window. The gate's MPL should already be set to the jump-start value
// (see Recommend). The caller owns the wiring: attach it to the gate's
// Slot, or invoke Observe once per completion.
func New(clock sim.Clock, g Gate, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxThroughputLoss < 0 || cfg.MaxThroughputLoss >= 1 {
		return nil, fmt.Errorf("controller: MaxThroughputLoss %v outside [0,1)", cfg.MaxThroughputLoss)
	}
	if cfg.ReferenceThroughput <= 0 {
		return nil, fmt.Errorf("controller: ReferenceThroughput required")
	}
	c := &Controller{clock: clock, gate: g, cfg: cfg, floor: cfg.MinLimit - 1, step: 1}
	c.resetWindow()
	return c, nil
}

// Status is the controller's progress, read under one lock so its
// fields come from the same reaction.
type Status struct {
	// Converged reports whether the controller has settled.
	Converged bool
	// Iterations is the number of completed reactions.
	Iterations int
	// Last is the most recent reaction (the zero Decision before the
	// first).
	Last Decision
}

// Status returns the controller's progress.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{Converged: c.converged, Iterations: c.iterations, Last: c.last}
}

// Observe tallies one completed item into the observation window, and
// closes the window and reacts when the gates are satisfied. Call it
// once per completed item, from any goroutine; the item's Complete
// stamp (never earlier than the previous observation's) is the
// observation time.
func (c *Controller) Observe(it *core.Item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.converged {
		return
	}
	// The completion was stamped as it finished, so reading the clock
	// again would only cost time. Concurrent live completions can
	// arrive here out of stamp order; the clamp keeps observation
	// times monotone, so no inter-completion time is negative.
	now := max(it.Complete, c.lastCompletion)
	if c.lastCompletion > 0 {
		c.interCompletion.Add(now - c.lastCompletion)
	}
	c.lastCompletion = now
	c.win.Record(it)
	m := &c.win
	if int(m.Completed) < c.cfg.MinObservations {
		return
	}
	if int(m.Completed) < c.cfg.MaxWindow {
		if m.All.RelativeCIHalfWidth(confidence) > maxRelCI {
			return
		}
		if c.interCompletion.RelativeCIHalfWidth(confidence) > c.cfg.tputRelCI() {
			return
		}
	}
	// Representative-load gate: an adjustment decision is meaningless
	// if the backend wasn't kept busy by offered load during the window.
	if c.gate.QueueLen() == 0 && c.gate.Inside() < c.gate.MPL() {
		// Not saturated right now; restart the window rather than
		// react to a possibly idle period.
		c.resetWindow()
		return
	}
	c.react(m.WithWindow(now - c.winStart))
	c.resetWindow()
}

// resetWindow starts a fresh observation window.
func (c *Controller) resetWindow() {
	c.win.Reset()
	c.winStart = c.clock.Now()
	c.interCompletion.Reset()
	c.lastCompletion = 0
}

// react implements the reaction phase. Called with c.mu held.
func (c *Controller) react(m core.Metrics) {
	cfg := c.cfg
	tput := m.Throughput()
	rt := m.All.Mean()
	tputTarget := float64((1 - cfg.MaxThroughputLoss) * cfg.ReferenceThroughput)
	tputOK := tput >= tputTarget
	rtOK := true
	if cfg.MaxRTIncrease > 0 && cfg.ReferenceRT > 0 {
		rtOK = rt <= (1+cfg.MaxRTIncrease)*cfg.ReferenceRT
	}
	mpl := c.gate.MPL()
	action := Hold
	switch {
	case !tputOK || !rtOK:
		// A target is violated: the current MPL is infeasible. Mark it
		// as the floor and step up.
		if mpl > c.floor {
			c.floor = mpl
		}
		step := c.nextStep(Increase)
		if mpl+step > cfg.MaxLimit {
			step = cfg.MaxLimit - mpl
		}
		if step > 0 {
			action = Increase
			c.gate.SetMPL(mpl + step)
		}
	case mpl-1 > c.floor && c.comfortably(tput, tputTarget):
		// Both targets met with margin and the next value down is not
		// known-infeasible: probe lower.
		step := c.nextStep(Decrease)
		if mpl-step <= c.floor {
			step = mpl - c.floor - 1
		}
		action = Decrease
		c.gate.SetMPL(mpl - step)
	default:
		action = Hold
	}
	c.iterations++
	c.last = Decision{
		Iteration:  c.iterations,
		MPL:        mpl,
		Throughput: tput,
		MeanRT:     rt,
		Action:     action,
		TputOK:     tputOK,
		RTOK:       rtOK,
	}
	if action == Hold {
		c.holdCount++
		if c.holdCount >= cfg.HoldWindows {
			c.converged = true
		}
	} else {
		c.holdCount = 0
	}
}

// nextStep returns the step for an intended action, doubling while the
// direction persists and resetting to 1 otherwise.
func (c *Controller) nextStep(intended Action) int {
	if c.last.Action == intended {
		c.step = min(2*c.step, maxStep)
	} else {
		c.step = 1
	}
	return c.step
}

// comfortably reports whether tput exceeds the target with hysteresis
// margin, so that a decrease is unlikely to immediately bounce back.
func (c *Controller) comfortably(tput, target float64) bool {
	slack := c.cfg.MaxThroughputLoss * c.cfg.ReferenceThroughput
	return tput >= target+float64(decreaseMargin*slack)
}
