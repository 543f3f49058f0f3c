package controller

import (
	"fmt"

	"extsched/internal/dist"
	"extsched/internal/queueing/mva"
	"extsched/internal/queueing/qbd"
)

// Model is the input of the paper's Section 4 MPL tool: the hardware
// shape and demands of the closed MVA model, the DBA's throughput loss,
// and optionally an open-system load for the response-time model.
type Model struct {
	// CPUs and Disks shape the Section 4.1 network (mva.Balanced).
	CPUs, Disks int
	// CPUDemand and IODemand are per-transaction demands in seconds
	// (workload.Setup.Demands).
	CPUDemand, IODemand float64
	// Loss is the acceptable fractional throughput loss, in [0,1).
	Loss float64
	// Cap is the largest MPL either search considers; zero means 500.
	Cap int
	// Lambda, MeanDemand and DemandC2 describe the open load for the
	// Section 4.2 response-time bound: arrival rate, mean total service
	// demand and its squared coefficient of variation. The bound is
	// skipped unless all three are positive, DemandC2 > 1 and the load
	// Lambda·MeanDemand is below 1.
	Lambda, MeanDemand, DemandC2 float64
	// RTTolerance is the acceptable mean response-time increase over
	// processor sharing (e.g. 0.1); zero means 0.1.
	RTTolerance float64
}

// Recommendation is the output of the Section 4 MPL tool.
type Recommendation struct {
	// ThroughputMPL is the Section 4.1 MVA bound: the lowest MPL
	// keeping throughput within the loss tolerance.
	ThroughputMPL int
	// ResponseTimeMPL is the Section 4.2 QBD bound (0 when no open-
	// system load was specified).
	ResponseTimeMPL int
	// MPL is the recommendation: the max of the two bounds.
	MPL int
}

// Network returns the Section 4.1 closed network that Recommend solves.
func (m Model) Network() (*mva.Network, error) {
	return mva.Balanced(m.CPUs, m.Disks, m.CPUDemand, m.IODemand)
}

// Recommend returns the lowest MPL the queueing models consider safe:
// the least MPL whose MVA throughput is within Loss of the bottleneck
// bound (Section 4.1) and, with an open load, the least MPL whose QBD
// mean response time is within RTTolerance of processor sharing
// (Section 4.2). It is the controller's jump-start and the public
// tool's answer.
//
// Each bound is searched in [1, Cap]. A criterion that no MPL up to Cap
// meets is an error, as is an invalid input or a failed QBD solve; no
// bound is ever clamped or dropped.
func Recommend(m Model) (Recommendation, error) {
	if m.Loss < 0 || m.Loss >= 1 {
		return Recommendation{}, fmt.Errorf("controller: throughput loss %v outside [0,1)", m.Loss)
	}
	limit := m.Cap
	if limit <= 0 {
		limit = 500
	}
	nw, err := m.Network()
	if err != nil {
		return Recommendation{}, fmt.Errorf("controller: MPL model: %w", err)
	}
	var rec Recommendation
	rec.ThroughputMPL = nw.MinMPLForFraction(1-m.Loss, limit)
	if rec.ThroughputMPL > limit {
		return Recommendation{}, fmt.Errorf("controller: no MPL up to %d keeps the throughput loss within %g", limit, m.Loss)
	}
	rec.MPL = rec.ThroughputMPL
	if m.Lambda > 0 && m.MeanDemand > 0 && m.DemandC2 > 1 && m.Lambda*m.MeanDemand < 1 {
		tol := m.RTTolerance
		if tol <= 0 {
			tol = 0.1
		}
		rt, err := qbd.MinMPLForResponseTime(m.Lambda, dist.FitH2(m.MeanDemand, m.DemandC2), tol, limit)
		if err != nil {
			return Recommendation{}, fmt.Errorf("controller: response-time model: %w", err)
		}
		if rt > limit {
			return Recommendation{}, fmt.Errorf("controller: no MPL up to %d keeps the response-time increase within %g", limit, tol)
		}
		rec.ResponseTimeMPL = rt
		rec.MPL = max(rec.MPL, rt)
	}
	return rec, nil
}
