// Package autoscale is the fleet-sizing controller: the third feedback
// loop in the family after the MPL controller (how many transactions
// may run inside one backend) and the SLO controller (how the limit
// splits across classes). This one decides how many SHARDS should
// exist at all, growing the fleet when observed per-shard load breaches
// a high-water mark and shrinking it again after a sustained calm.
//
// The kernel is deliberately pure and clock-free: Observe(now, up,
// signal) returns a Decision and mutates only the controller's own
// counters. The caller — internal/runner on a simulated engine timer,
// gate.Pool on a wall-clock ticker — owns the actuation (recover or
// add a shard, drain one out) and the cadence. Purity is what makes
// autoscaled simulation runs rerun bit-identically and lets the same
// hysteresis logic serve both clocks.
//
// # Hysteresis
//
// Scaling reacts asymmetrically on purpose: capacity shortfalls hurt
// immediately (queues build, p95 blows through the SLO), while excess
// capacity only costs money. So scale-up triggers after BreachWindows
// consecutive observations at or above HighWater, scale-down only
// after the longer CalmWindows run at or below LowWater, and both
// respect a Cooldown so the controller never reacts to load the
// previous action has not yet absorbed. Observations strictly between
// the two water marks reset both runs — the dead band that keeps the
// fleet from oscillating when load hovers near a threshold.
//
// Config is the one vocabulary for this loop: the live pool takes it
// directly (gate.AutoscaleConfig is an alias), and the scenario runner
// translates its JSON spec into it.
package autoscale

import "fmt"

// Config bounds and tunes the controller. The zero value is not
// usable: Min and Max are required; everything else defaults.
type Config struct {
	// Min and Max bound the Up-shard count. Min >= 1, Max >= Min.
	Min, Max int
	// Interval is the seconds between evaluations (> 0; default 1).
	// The caller ticks at this cadence; the controller itself only uses
	// it to default the cooldown.
	Interval float64
	// HighWater is the per-up-shard backlog (queued + in flight,
	// divided by Up shards) at or above which an interval counts as
	// overloaded. Default 8.
	HighWater float64
	// LowWater is the per-up-shard backlog at or below which an
	// interval counts as calm. Default HighWater/4. Must be strictly
	// below HighWater.
	LowWater float64
	// BreachWindows is the consecutive overloaded intervals required to
	// scale up (default 2).
	BreachWindows int
	// CalmWindows is the consecutive calm intervals required to scale
	// down (default 3*BreachWindows: shrinking is the slow direction).
	CalmWindows int
	// Cooldown is the minimum seconds between actions (default
	// 2*Interval).
	Cooldown float64
}

// low reports the effective low-water mark.
func (c Config) low() float64 {
	if c.LowWater > 0 {
		return c.LowWater
	}
	return c.HighWater / 4
}

// withDefaults fills the optional fields.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 1
	}
	if c.HighWater <= 0 {
		c.HighWater = 8
	}
	c.LowWater = c.low()
	if c.BreachWindows <= 0 {
		c.BreachWindows = 2
	}
	if c.CalmWindows <= 0 {
		c.CalmWindows = 3 * c.BreachWindows
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * c.Interval
	}
	return c
}

// Validate rejects unusable configurations loudly; it applies the
// same defaults withDefaults would, so a config that validates is the
// config that runs.
func (c Config) Validate() error {
	if c.Min < 1 {
		return fmt.Errorf("autoscale: min fleet %d must be >= 1", c.Min)
	}
	if c.Max < c.Min {
		return fmt.Errorf("autoscale: max fleet %d below min %d", c.Max, c.Min)
	}
	if c.Interval < 0 {
		return fmt.Errorf("autoscale: interval %v must be positive", c.Interval)
	}
	if c.HighWater < 0 {
		return fmt.Errorf("autoscale: high water %v must be positive", c.HighWater)
	}
	if c.LowWater < 0 {
		return fmt.Errorf("autoscale: low water %v must not be negative", c.LowWater)
	}
	cd := c.withDefaults()
	if cd.LowWater >= cd.HighWater {
		return fmt.Errorf("autoscale: low water %v must be strictly below high water %v",
			cd.LowWater, cd.HighWater)
	}
	if c.BreachWindows < 0 || c.CalmWindows < 0 {
		return fmt.Errorf("autoscale: breach/calm windows must be positive (got %d/%d)",
			c.BreachWindows, c.CalmWindows)
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("autoscale: cooldown %v must not be negative", c.Cooldown)
	}
	return nil
}

// Decision is what one observation asks the caller to do.
type Decision int

const (
	// Hold keeps the fleet as it is.
	Hold Decision = iota
	// ScaleUp asks for one more Up shard (recover a down one or add a
	// fresh one).
	ScaleUp
	// ScaleDown asks to drain one Up shard out.
	ScaleDown
)

// String names the decision for logs and test failures.
func (d Decision) String() string {
	switch d {
	case Hold:
		return "hold"
	case ScaleUp:
		return "scale-up"
	case ScaleDown:
		return "scale-down"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// Controller is the hysteresis state machine. Not safe for concurrent
// use; callers on a wall clock wrap it in their own lock.
type Controller struct {
	cfg        Config
	highRuns   int
	lowRuns    int
	lastAction float64
	acted      bool
	ups, downs uint64
}

// New builds a controller; cfg must validate.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg.withDefaults()}, nil
}

// Config returns the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// ScaleUps and ScaleDowns count the decisions issued so far.
func (c *Controller) ScaleUps() uint64   { return c.ups }
func (c *Controller) ScaleDowns() uint64 { return c.downs }

// Observe feeds one measurement: now is the clock, up the current
// Up-shard count, signal the per-up-shard backlog (or whatever load
// proxy the caller steers on). It returns the action the caller should
// take; bound enforcement (up outside [Min,Max]) overrides hysteresis
// and cooldown, because a fleet outside its bounds is a configuration
// violation, not a load signal.
func (c *Controller) Observe(now float64, up int, signal float64) Decision {
	if up < c.cfg.Min {
		return c.act(now, ScaleUp)
	}
	if up > c.cfg.Max {
		return c.act(now, ScaleDown)
	}
	switch {
	case signal >= c.cfg.HighWater:
		c.highRuns++
		c.lowRuns = 0
	case signal <= c.cfg.LowWater:
		c.lowRuns++
		c.highRuns = 0
	default:
		c.highRuns, c.lowRuns = 0, 0
	}
	if c.acted && now-c.lastAction < c.cfg.Cooldown {
		return Hold
	}
	if c.highRuns >= c.cfg.BreachWindows && up < c.cfg.Max {
		return c.act(now, ScaleUp)
	}
	if c.lowRuns >= c.cfg.CalmWindows && up > c.cfg.Min {
		return c.act(now, ScaleDown)
	}
	return Hold
}

// act records an action and resets the hysteresis runs.
func (c *Controller) act(now float64, d Decision) Decision {
	c.highRuns, c.lowRuns = 0, 0
	c.lastAction, c.acted = now, true
	switch d {
	case ScaleUp:
		c.ups++
	case ScaleDown:
		c.downs++
	}
	return d
}
