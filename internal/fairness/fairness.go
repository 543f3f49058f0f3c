// Package fairness implements weighted max-min fair sharing of an MPL
// gate across N tenants — the multi-tenant generalization of the
// two-class SLO partition (internal/controller).
//
// The mechanism is the paper's: the external queue and the MPL
// partition (core.Frontend class limits with work-conserving
// borrowing) already shape contention between classes without touching
// the backend. What this package adds is the policy layer for many
// tenants: a controller that measures each tenant's attained service
// over an observation window, normalizes it by the tenant's weight
// (DRF-style — the "dominant resource" of an MPL gate is its slots),
// and moves slots from the most-overserved tenant toward the
// most-underserved one. Idle tenants donate first: with
// work-conserving borrowing their reserved slots were being lent out
// anyway, so reclaiming them is free.
//
// Two invariants hold after every reaction, pinned by property tests:
// the per-class limits always sum to the gate's MPL, and every tenant
// keeps at least one slot (no tenant can be starved out entirely, so
// an aggressor can never capture the whole gate).
//
// Config is the one vocabulary for this loop: the live gate takes it
// directly (gate.FairnessConfig is an alias), and the scenario runner
// translates its name-keyed JSON spec into it.
package fairness

import (
	"fmt"
	"sort"
	"sync"

	"extsched/internal/core"
)

// Gate is the control surface the fairness loop drives. *core.Frontend
// implements it; the live gate and the scenario runner adapt theirs.
type Gate interface {
	// MPL returns the current total limit.
	MPL() int
	// SetClassLimits partitions the MPL (see core.Frontend).
	SetClassLimits(map[core.Class]int)
	// SetStrictPartition switches the partition between
	// work-conserving and hard-cap (see core.Frontend).
	SetStrictPartition(bool)
}

// Config tunes the fairness controller.
type Config struct {
	// Weights maps each governed tenant class to its relative share
	// weight. Required: at least 2 entries, every weight > 0. Classes
	// absent from the map are not governed (the gate's global MPL still
	// applies to them).
	Weights map[core.Class]float64
	// MinObservations gates window close: a reaction needs this many
	// completions so it never steers on noise. Default 50.
	MinObservations int
	// Hysteresis is the imbalance ratio required before a slot moves
	// from a busy donor: donorScore > Hysteresis × receiverScore
	// (scores are weight-normalized completion counts). Idle donors
	// bypass it. Default 1.2; must be >= 1.
	Hysteresis float64
	// Strict makes the partition a hard cap: a tenant at its limit
	// never borrows idle capacity. Default false (work-conserving
	// borrowing): slots a tenant is not using are lent out per
	// dispatch, which maximizes utilization but lets an overloaded
	// tenant keep the backend saturated — under strict the controller
	// is the only path by which unused slots change hands, so the
	// other tenants' in-DBMS times hold near their uncontended levels.
	Strict bool
}

func (c Config) withDefaults() Config {
	if c.MinObservations <= 0 {
		c.MinObservations = 50
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 1.2
	}
	return c
}

// Allocate splits mpl slots across the weighted classes: every class
// gets at least one slot, the remainder is spread proportionally to
// the weights by largest remainder, and the result always sums to
// exactly mpl. Ties break toward the lower class ID, so the split is
// deterministic. Panics when mpl < len(weights) (a floor of one slot
// each is then impossible) or a weight is <= 0.
func Allocate(mpl int, weights map[core.Class]float64) map[core.Class]int {
	n := len(weights)
	if n == 0 {
		return nil
	}
	if mpl < n {
		panic(fmt.Sprintf("fairness: MPL %d cannot floor %d classes at 1 slot each", mpl, n))
	}
	classes := make([]core.Class, 0, n)
	sumW := 0.0
	for c, w := range weights {
		if w <= 0 {
			panic(fmt.Sprintf("fairness: class %d weight %v must be > 0", c, w))
		}
		classes = append(classes, c)
		sumW += w
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })

	out := make(map[core.Class]int, n)
	spare := mpl - n
	type frac struct {
		c core.Class
		f float64
	}
	fracs := make([]frac, 0, n)
	assigned := 0
	for _, c := range classes {
		ideal := float64(spare) * weights[c] / sumW
		base := int(ideal)
		out[c] = 1 + base
		assigned += base
		fracs = append(fracs, frac{c, ideal - float64(base)})
	}
	// Largest remainder for the slots integer truncation left over;
	// ties toward the lower class ID (fracs is already class-ascending,
	// and the sort is stable).
	sort.SliceStable(fracs, func(i, j int) bool { return fracs[i].f > fracs[j].f })
	for i := 0; i < spare-assigned; i++ {
		out[fracs[i].c]++
	}
	return out
}

// Controller is the weighted max-min fairness loop. Like the other
// controllers in this repository it is a controller.Loop that owns its
// observation window: attach it to the gate's slot, or call Observe
// once per completed item, from any goroutine.
type Controller struct {
	mu      sync.Mutex
	gate    Gate
	cfg     Config
	classes []core.Class // governed classes, ascending
	limits  map[core.Class]int
	// iterations counts reactions; moves those that moved a slot.
	iterations, moves int
	// win tallies the current observation window's completions.
	win core.Metrics
}

// New builds a fairness controller over g and installs the initial
// weighted partition (Allocate of the gate's current MPL). The gate
// must have a finite MPL of at least one slot per governed class.
func New(g Gate, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Weights) < 2 {
		return nil, fmt.Errorf("fairness: need >= 2 weighted classes, got %d", len(cfg.Weights))
	}
	for c, w := range cfg.Weights {
		if w <= 0 {
			return nil, fmt.Errorf("fairness: class %d weight %v must be > 0", c, w)
		}
	}
	if cfg.Hysteresis < 1 {
		return nil, fmt.Errorf("fairness: hysteresis %v must be >= 1", cfg.Hysteresis)
	}
	total := g.MPL()
	if total < len(cfg.Weights) {
		return nil, fmt.Errorf("fairness: MPL %d below one slot per class (%d classes)", total, len(cfg.Weights))
	}
	// Defensive copy: the caller may mutate its map after New.
	weights := make(map[core.Class]float64, len(cfg.Weights))
	classes := make([]core.Class, 0, len(cfg.Weights))
	for c, w := range cfg.Weights {
		weights[c] = w
		classes = append(classes, c)
	}
	cfg.Weights = weights
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	ctl := &Controller{gate: g, cfg: cfg, classes: classes}
	ctl.limits = Allocate(total, cfg.Weights)
	ctl.apply()
	g.SetStrictPartition(cfg.Strict)
	return ctl, nil
}

// apply pushes a copy of the current partition to the gate (a copy so
// the gate cannot alias the controller's authoritative map). Called
// with c.mu held.
func (c *Controller) apply() {
	out := make(map[core.Class]int, len(c.limits))
	for cl, l := range c.limits {
		out[cl] = l
	}
	c.gate.SetClassLimits(out)
}

// Status is the fairness loop's progress, read under one lock so its
// fields come from the same reaction.
type Status struct {
	// Limits is a copy of the current partition.
	Limits map[core.Class]int
	// Iterations counts completed reactions; Moves how many of them
	// actually moved a slot.
	Iterations, Moves int
}

// Status returns the fairness loop's progress.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[core.Class]int, len(c.limits))
	for cl, l := range c.limits {
		out[cl] = l
	}
	return Status{Limits: out, Iterations: c.iterations, Moves: c.moves}
}

// Observe tallies one completed item into the observation window: when
// the window has seen enough traffic it scores every governed tenant —
// weight-normalized attained completions — and moves one slot from the
// most-overserved donor to the most-underserved receiver, then opens a
// fresh window. Idle tenants (zero completions with more than the
// floor slot) donate first and without hysteresis; busy tenants donate
// only past the hysteresis ratio, so a balanced system holds steady.
// One slot per window keeps reactions smooth; persistent imbalance
// compounds across windows until max-min fairness is reached.
func (c *Controller) Observe(it *core.Item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.win.Record(it)
	m := &c.win
	if int(m.Completed) < c.cfg.MinObservations {
		return
	}
	// An MPL change since the last reaction invalidates the partition
	// sum: re-spread the weights over the new total and start over.
	total := c.gate.MPL()
	sum := 0
	for _, l := range c.limits {
		sum += l
	}
	if sum != total {
		if total < len(c.classes) {
			// The new MPL cannot floor every class; hold until it can.
			return
		}
		c.limits = Allocate(total, c.cfg.Weights)
		c.apply()
		c.iterations++
		c.win.Reset()
		return
	}

	// Score each governed tenant: attained completions per unit weight.
	// The receiver is the busy tenant with the lowest score; the donor
	// is an idle tenant above the floor if any (its reservation was
	// being lent out anyway — reclaiming is free), else the busy tenant
	// with the highest score above the floor.
	var (
		donor, receiver    core.Class
		haveIdle, haveBusy bool
		haveRecv           bool
		maxScore           float64
		minScore           float64
	)
	for _, cl := range c.classes {
		n := m.ClassMetric(cl).Completed()
		score := float64(n) / c.cfg.Weights[cl]
		if n == 0 {
			if !haveIdle && c.limits[cl] > 1 {
				donor, haveIdle = cl, true
			}
			continue
		}
		if !haveRecv || score < minScore {
			receiver, minScore, haveRecv = cl, score, true
		}
		if c.limits[cl] > 1 && (!haveBusy || score > maxScore) {
			if !haveIdle {
				donor = cl
			}
			maxScore, haveBusy = score, true
		}
	}
	c.iterations++
	haveDonor := haveIdle || haveBusy
	if haveRecv && haveDonor && donor != receiver &&
		(haveIdle || maxScore > c.cfg.Hysteresis*minScore) {
		c.limits[donor]--
		c.limits[receiver]++
		c.apply()
		c.moves++
	}
	c.win.Reset()
}
