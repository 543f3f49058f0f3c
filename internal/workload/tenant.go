package workload

import (
	"fmt"

	"extsched/internal/dbms"
	"extsched/internal/dist"
	"extsched/internal/lockmgr"
)

// TenantMix is one tenant's slice of a generator's arrival stream: a
// class ID, an arrival share, and an optional per-tenant size
// distribution. Installing a mix (SetMix) generalizes the historical
// two-class HighFrac tagging to N tenants — every driver (closed,
// open, ramp, burst, shaped) draws through Generator.Next, so the mix
// applies to every phase kind uniformly. In particular, under
// BurstDriver all tenants share ONE modulating MMPP state: their
// bursts arrive correlated, which is the multi-tenant overload shape
// a fairness controller has to survive.
type TenantMix struct {
	// Class is the tenant's priority class.
	Class lockmgr.Class
	// Share is the tenant's fraction of arrivals. Shares must be > 0
	// and sum to 1 across the mix.
	Share float64
	// SizeMean, when > 0, scales the tenant's transactions by a
	// lognormal multiplier with this mean and squared coefficient of
	// variation SizeC2 (0 = deterministic scaling). A heavy-tailed
	// multiplier (SizeC2 >> 1) gives the tenant the occasional huge
	// transaction of real multi-tenant traffic. Zero leaves the
	// workload's native sizes untouched.
	SizeMean float64
	SizeC2   float64
}

// SetMix installs (or, with nil, clears) an N-tenant arrival mix.
// Shares must each be > 0 and sum to 1 (±0.001); classes must be
// distinct. A generator without a mix behaves exactly as before —
// same RNG draw order, so existing two-class runs stay bit-identical.
func (g *Generator) SetMix(mix []TenantMix) error {
	if len(mix) == 0 {
		g.mix, g.mixCum, g.mixSize = nil, nil, nil
		return nil
	}
	total := 0.0
	seen := make(map[lockmgr.Class]bool, len(mix))
	for _, m := range mix {
		if m.Share <= 0 {
			return fmt.Errorf("workload: tenant class %d share %v must be > 0", m.Class, m.Share)
		}
		if m.SizeMean < 0 || m.SizeC2 < 0 {
			return fmt.Errorf("workload: tenant class %d size dist (mean %v, c2 %v) must be >= 0", m.Class, m.SizeMean, m.SizeC2)
		}
		if seen[m.Class] {
			return fmt.Errorf("workload: duplicate tenant class %d in mix", m.Class)
		}
		seen[m.Class] = true
		total += m.Share
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("workload: tenant shares sum to %v, want 1", total)
	}
	g.mix = make([]TenantMix, len(mix))
	copy(g.mix, mix)
	g.mixCum = make([]float64, len(mix))
	g.mixSize = make([]dist.Distribution, len(mix))
	cum := 0.0
	for i, m := range mix {
		cum += m.Share / total
		g.mixCum[i] = cum
		switch {
		case m.SizeMean <= 0:
			g.mixSize[i] = nil
		case m.SizeC2 <= 0:
			g.mixSize[i] = dist.NewDeterministic(m.SizeMean)
		default:
			g.mixSize[i] = dist.NewLognormal(m.SizeMean, m.SizeC2)
		}
	}
	g.mixCum[len(g.mixCum)-1] = 1
	return nil
}

// Mix returns a copy of the installed tenant mix (nil when none).
func (g *Generator) Mix() []TenantMix {
	if g.mix == nil {
		return nil
	}
	out := make([]TenantMix, len(g.mix))
	copy(out, g.mix)
	return out
}

// nextTenant draws one profile under the tenant mix: one uniform draw
// picks the tenant, the workload's own machinery draws the profile,
// and the tenant's size multiplier (if any) scales the transaction's
// CPU work — with EstimatedDemand recomputed so SJF/WFQ size hints
// stay truthful.
func (g *Generator) nextTenant() dbms.TxnProfile {
	u := g.rng.Float64()
	i := len(g.mix) - 1
	for j, c := range g.mixCum {
		if u < c {
			i = j
			break
		}
	}
	p := g.NextWithClass(g.mix[i].Class)
	if sd := g.mixSize[i]; sd != nil {
		mult := sd.Sample(g.rng)
		if mult < 0 {
			mult = 0
		}
		ioPerPage := g.missEst * g.Spec.DiskService.Mean()
		demand := 0.0
		for k := range p.Ops {
			p.Ops[k].CPUWork *= mult
			demand += p.Ops[k].CPUWork + float64(float64(len(p.Ops[k].Pages))*ioPerPage)
		}
		p.EstimatedDemand = demand
	}
	return p
}
