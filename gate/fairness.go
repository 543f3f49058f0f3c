package gate

import (
	"fmt"

	"extsched/internal/controller"
	"extsched/internal/core"
	"extsched/internal/fairness"
)

// FairnessConfig parameterizes the N-tenant weighted max-min fairness
// loop for a live gate: partition the gate's limit across the weighted
// tenant classes and steer the split so each tenant's weight-normalized
// attained service equalizes. The mechanism is the same class-partition
// machinery the SLO loop drives (work-conserving — idle slots are still
// lent across the partition), with the policy generalized from one
// protected class to N weighted tenants.
type FairnessConfig struct {
	// Weights maps each governed tenant class to its relative share
	// weight (every weight > 0; >= 2 classes). Nil means "govern the
	// registered tenants": the classes and weights passed to
	// RegisterClass.
	Weights map[Class]float64
	// MinObservations gates fairness-window close (0 = 50).
	MinObservations int
	// Hysteresis is the imbalance ratio a busy donor must exceed before
	// a slot moves (0 = 1.2; must be >= 1 otherwise).
	Hysteresis float64
	// Strict makes the partition a hard cap: a tenant at its limit
	// never borrows idle capacity. Trades utilization for latency
	// isolation. Default false (work-conserving borrowing).
	Strict bool
}

// FairnessStatus reports the fairness loop's progress.
type FairnessStatus struct {
	// Enabled is false until EnableFairness succeeds.
	Enabled bool
	// Limits is the current per-tenant slot partition (sums to the
	// gate's limit).
	Limits map[Class]int
	// Iterations counts completed reactions; Moves how many of them
	// actually moved a slot.
	Iterations, Moves int
}

// EnableFairness attaches the weighted max-min fairness controller to
// the gate's completion stream: every Release feeds the loop's own
// observation window, and each closed window moves at most one slot
// from the most-overserved tenant (idle tenants donate first) to the
// most-underserved one. Two invariants hold after every reaction: the per-tenant limits
// sum to the gate's limit, and every governed tenant keeps at least one
// slot — an aggressor can never capture the whole gate. The gate needs
// a finite limit of at least one slot per governed tenant. Enabling
// twice replaces the previous loop, which opens a fresh window.
// Fairness and SLO tuning both write the class partition, so enabling
// one while the other is enabled fails. Auto-tune may run alongside:
// fairness re-spreads the weights over each new limit at its next
// reaction, and holds while the limit is below one slot per tenant.
func (g *Gate) EnableFairness(fc FairnessConfig) error {
	weights := make(map[core.Class]float64, len(fc.Weights))
	if fc.Weights == nil {
		for _, t := range g.fe.Tenants() {
			weights[t.Class] = t.Weight
		}
		if len(weights) < 2 {
			return fmt.Errorf("gate: fairness over registered tenants needs >= 2 RegisterClass calls (have %d); or pass explicit Weights", len(weights))
		}
	} else {
		for c, w := range fc.Weights {
			if err := checkClass(c); err != nil {
				return err
			}
			weights[core.Class(c)] = w
		}
	}
	return g.loops.Attach(controller.KindFairness, func() (controller.Loop, error) {
		return fairness.New(g.fe, fairness.Config{
			Weights:         weights,
			MinObservations: fc.MinObservations,
			Hysteresis:      fc.Hysteresis,
			Strict:          fc.Strict,
		})
	})
}

// DisableFairness detaches the fairness loop; the tenant partition
// stays where it left it (clear it with SetClassLimits(nil)), but a
// strict partition relaxes back to work-conserving — a frozen hard cap
// with no controller rebalancing it could idle capacity forever.
func (g *Gate) DisableFairness() {
	if g.loops.Detach(controller.KindFairness) != nil {
		g.fe.SetStrictPartition(false)
	}
}

// FairnessStatus reports the fairness loop's state (zero value when
// fairness is not enabled).
func (g *Gate) FairnessStatus() FairnessStatus {
	f, ok := g.loops.Loop(controller.KindFairness).(*fairness.Controller)
	if !ok {
		return FairnessStatus{}
	}
	limits := f.Limits()
	out := make(map[Class]int, len(limits))
	for c, l := range limits {
		out[Class(c)] = l
	}
	return FairnessStatus{
		Enabled:    true,
		Limits:     out,
		Iterations: f.Iterations(),
		Moves:      f.Moves(),
	}
}
