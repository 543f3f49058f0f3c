package gate

import (
	"fmt"

	"extsched/internal/controller"
	"extsched/internal/fairness"
)

// FairnessConfig parameterizes the N-tenant weighted max-min fairness
// loop for a live gate: partition the gate's limit across the weighted
// tenant classes and steer the split so each tenant's weight-normalized
// attained service equalizes. The mechanism is the same class-partition
// machinery the SLO loop drives (work-conserving — idle slots are still
// lent across the partition), with the policy generalized from one
// protected class to N weighted tenants.
//
// It is the fairness loop's own config, with one meaning only the gate
// gives it: nil Weights means "govern the registered tenants", the
// classes and weights passed to RegisterClass. Otherwise Weights maps
// each governed tenant class (in [0, 65535]) to its relative share
// weight (every weight > 0; >= 2 classes). MinObservations 0 means 50;
// Hysteresis 0 means 1.2 (must be >= 1 otherwise); Strict makes the
// partition a hard cap, trading utilization for latency isolation.
type FairnessConfig = fairness.Config

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
	if fc.Weights == nil {
		ts := g.fe.Tenants()
		if len(ts) < 2 {
			return fmt.Errorf("gate: fairness over registered tenants needs >= 2 RegisterClass calls (have %d); or pass explicit Weights", len(ts))
		}
		fc.Weights = make(map[Class]float64, len(ts))
		for _, t := range ts {
			fc.Weights[t.Class] = t.Weight
		}
	}
	for c := range fc.Weights {
		if err := checkClass(c); err != nil {
			return err
		}
	}
	return g.loops.Attach(controller.KindFairness, func() (controller.Loop, error) {
		return fairness.New(g.fe, fc)
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
	st := f.Status()
	return FairnessStatus{
		Enabled:    true,
		Limits:     st.Limits,
		Iterations: st.Iterations,
		Moves:      st.Moves,
	}
}
