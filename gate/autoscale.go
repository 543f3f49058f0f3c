package gate

import (
	"fmt"

	"extsched/internal/autoscale"
)

// AutoscaleConfig arms fleet autoscaling on a Pool: the same hysteresis
// controller the simulator's scenario autoscaler runs (scale up after
// BreachWindows consecutive intervals at or above HighWater, scale down
// only after the longer CalmWindows calm hold, cooldown between
// actions) driving the pool's ACTIVE member set. All members are built
// up front — activation is a routing decision, not an allocation — and
// the active set is always the lowest-index prefix: scale-up activates
// the next parked member, scale-down parks the highest active one and
// lets its outstanding work drain.
//
// Evaluation is traffic-driven, like the breaker's half-open probes:
// each Acquire checks whether an interval has elapsed and feeds the
// controller the active members' backlog. An idle pool therefore never
// shrinks on its own; callers who want that run their own ticker and
// call AutoscaleTick.
//
// It is the fleet controller's own config, with one meaning only the
// pool gives it: Max 0 means every built member. Min >= 1, and Max must
// not exceed PoolConfig.Members. The pool starts at Min — capacity is
// added on demand, which is the point of autoscaling. Interval is the
// seconds between controller evaluations (0 = 1); HighWater and
// LowWater are per-active-member backlog (queued + in flight)
// watermarks (defaults 8 and HighWater/4); BreachWindows and
// CalmWindows are the consecutive-interval runs required to scale up
// and down (defaults 2 and 3*BreachWindows); Cooldown is the minimum
// seconds between actions (0 = 2*Interval).
type AutoscaleConfig = autoscale.Config

// armAutoscale validates cfg against the built fleet and installs the
// controller. Called from NewPool before the pool is shared.
func (p *Pool) armAutoscale(cfg AutoscaleConfig) error {
	if cfg.Max == 0 {
		cfg.Max = len(p.members)
	}
	if cfg.Max > len(p.members) {
		return fmt.Errorf("gate: autoscale max %d exceeds the pool's %d members", cfg.Max, len(p.members))
	}
	ctl, err := autoscale.New(cfg)
	if err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	p.asc = ctl
	p.active = cfg.Min
	p.ascNext = p.clock.Now()
	return nil
}

// autoscaleLocked runs one controller evaluation if the interval has
// elapsed. Callers hold p.mu.
func (p *Pool) autoscaleLocked(now float64) {
	if p.asc == nil || now < p.ascNext {
		return
	}
	p.ascNext = now + p.asc.Config().Interval
	p.observeLocked(now)
}

// observeLocked feeds the controller one measurement of the active
// members' backlog and applies its decision. Callers hold p.mu with
// the autoscaler armed.
func (p *Pool) observeLocked(now float64) {
	backlog := 0
	for i := 0; i < p.active; i++ {
		g := p.members[i]
		backlog += g.Queued() + g.Inflight()
	}
	sig := 0.0
	if p.active > 0 {
		sig = float64(backlog) / float64(p.active)
	}
	switch p.asc.Observe(now, p.active, sig) {
	case autoscale.ScaleUp:
		if p.active < len(p.members) {
			p.active++
			p.rescaleLimitLocked()
		}
	case autoscale.ScaleDown:
		if p.active > 1 {
			p.active--
			p.rescaleLimitLocked()
		}
	}
}

// rescaleLimitLocked makes the breaker's fleet limit track the active
// member count after a scale action: capacity belongs to serving
// members, so the limit the breaker re-splits over trips and
// recoveries is Member.Limit per ACTIVE member, recomputing away any
// earlier SetLimit override. Without a breaker there is nothing to do —
// each member keeps its own per-member limit and parked members simply
// receive no traffic. Callers hold p.mu.
func (p *Pool) rescaleLimitLocked() {
	if p.breaker == nil || p.memberLimit <= 0 {
		return
	}
	p.fleetLimit = p.memberLimit * p.active
	p.resplitLocked()
}

// AutoscaleTick forces one controller evaluation now, regardless of
// the traffic-driven cadence. Use it from a ticker when the pool can go
// idle: evaluation otherwise happens only on Acquire, so a pool nobody
// routes to would never scale down. A no-op when autoscaling is off.
func (p *Pool) AutoscaleTick() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.asc == nil {
		return
	}
	now := p.clock.Now()
	p.ascNext = now + p.asc.Config().Interval
	p.observeLocked(now)
}

// Active returns the number of members the dispatch policy currently
// routes to — the autoscaler's active set, or every member when
// autoscaling is off.
func (p *Pool) Active() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.asc == nil {
		return len(p.members)
	}
	return p.active
}

// AutoscaleCounts returns the cumulative scale-up and scale-down
// actions taken so far (both 0 when autoscaling is off).
func (p *Pool) AutoscaleCounts() (ups, downs uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.asc == nil {
		return 0, 0
	}
	return p.asc.ScaleUps(), p.asc.ScaleDowns()
}
