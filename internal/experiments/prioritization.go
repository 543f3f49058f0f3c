package experiments

import (
	"fmt"

	"extsched/internal/controller"
	"extsched/internal/core"
	"extsched/internal/lockmgr"
	"extsched/internal/workload"
)

// FindMPLForLoss returns the lowest MPL whose measured throughput under
// the closed system stays within lossFrac of baselineTput. The search
// is jump-started from the MVA model (Section 4.1) and refined with
// short measured runs, mirroring how the paper's tool would be used
// offline. maxMPL bounds the search; it is an error if the model finds
// no MPL up to maxMPL.
func FindMPLForLoss(setup workload.Setup, baselineTput, lossFrac float64, maxMPL int, opts RunOpts) (int, error) {
	if baselineTput <= 0 {
		return 0, fmt.Errorf("experiments: baseline throughput must be positive")
	}
	target := (1 - lossFrac) * baselineTput
	mpl, err := modelMPL(setup, lossFrac, maxMPL)
	if err != nil {
		return 0, err
	}
	measure := func(m int) (float64, error) {
		r, err := RunClosed(setup, m, "", workload.DBOptions{}, opts)
		if err != nil {
			return 0, err
		}
		return r.Throughput, nil
	}
	tput, err := measure(mpl)
	if err != nil {
		return 0, err
	}
	if tput < target {
		// Model underestimated (lock contention, log device, ...):
		// climb until feasible.
		for mpl < maxMPL {
			mpl++
			if tput, err = measure(mpl); err != nil {
				return 0, err
			}
			if tput >= target {
				return mpl, nil
			}
		}
		return maxMPL, nil
	}
	// Feasible: descend while still feasible.
	for mpl > 1 {
		t2, err := measure(mpl - 1)
		if err != nil {
			return 0, err
		}
		if t2 < target {
			break
		}
		mpl--
		tput = t2
	}
	return mpl, nil
}

// modelMPL returns the Section 4.1 recommendation for a closed run of
// setup at the given throughput loss, searching MPLs up to limit (0
// means controller.Recommend's default).
func modelMPL(setup workload.Setup, loss float64, limit int) (int, error) {
	cpuD, ioD := setup.Demands()
	rec, err := controller.Recommend(controller.Model{
		CPUs: setup.CPUs, Disks: setup.Disks,
		CPUDemand: cpuD, IODemand: ioD,
		Loss: loss, Cap: limit,
	})
	return rec.MPL, err
}

// highClass and lowClass are the two-class workloads' IDs in a
// report's per-class breakdown.
const highClass, lowClass = int(core.ClassHigh), int(core.ClassLow)

// PrioritizationResult is one setup's external-prioritization outcome.
type PrioritizationResult struct {
	SetupID  int
	MPL      int
	High     float64 // mean response time of the high-priority class (s)
	Low      float64 // mean response time of the low-priority class (s)
	NoPrioRT float64 // overall mean RT without any external scheduling
	AllRT    float64 // overall mean RT with priorities at this MPL
	Baseline float64 // no-MPL throughput
	Tput     float64 // throughput at this MPL
}

// Differentiation returns Low / High, the paper's headline factor.
func (p PrioritizationResult) Differentiation() float64 {
	if p.High == 0 {
		return 0
	}
	return p.Low / p.High
}

// LowPenalty returns Low / NoPrioRT, the low class's suffering.
func (p PrioritizationResult) LowPenalty() float64 {
	if p.NoPrioRT == 0 {
		return 0
	}
	return p.Low / p.NoPrioRT
}

// OverallPenalty returns AllRT / NoPrioRT.
func (p PrioritizationResult) OverallPenalty() float64 {
	if p.NoPrioRT == 0 {
		return 0
	}
	return p.AllRT / p.NoPrioRT
}

// RunPrioritization measures external prioritization on one setup with
// the MPL set for the given throughput-loss threshold.
func RunPrioritization(setupID int, lossFrac float64, opts RunOpts) (PrioritizationResult, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return PrioritizationResult{}, err
	}
	base, err := RunClosed(setup, 0, "", workload.DBOptions{}, opts)
	if err != nil {
		return PrioritizationResult{}, err
	}
	mpl, err := FindMPLForLoss(setup, base.Throughput, lossFrac, 100, opts)
	if err != nil {
		return PrioritizationResult{}, err
	}
	prio, err := RunClosed(setup, mpl, core.PolicyPriority, workload.DBOptions{}, opts)
	if err != nil {
		return PrioritizationResult{}, err
	}
	return PrioritizationResult{
		SetupID:  setupID,
		MPL:      mpl,
		High:     prio.Class(highClass).MeanRT,
		Low:      prio.Class(lowClass).MeanRT,
		NoPrioRT: base.MeanRT,
		AllRT:    prio.MeanRT,
		Baseline: base.Throughput,
		Tput:     prio.Throughput,
	}, nil
}

// Figure11 regenerates the external-prioritization bars across all 17
// setups at the 5% and 20% throughput-loss thresholds. setupIDs may
// restrict the sweep (nil = all 17).
func Figure11(lossFrac float64, setupIDs []int, opts RunOpts) (*Figure, error) {
	if setupIDs == nil {
		for i := 1; i <= 17; i++ {
			setupIDs = append(setupIDs, i)
		}
	}
	f := &Figure{
		ID:    fmt.Sprintf("fig11@%g%%", lossFrac*100),
		Title: fmt.Sprintf("External prioritization, MPL set for %g%% max throughput loss", lossFrac*100),
	}
	high := Series{Name: "HighPrio RT (s)"}
	low := Series{Name: "LowPrio RT (s)"}
	noPrio := Series{Name: "NoPrio RT (s)"}
	mplS := Series{Name: "chosen MPL"}
	var sumDiff, sumPen, sumOverall float64
	// One sweep point per setup: each point runs the full pipeline
	// (baseline probe, MPL search, prioritized run) independently.
	results, err := SweepContext(opts.ctx(), len(setupIDs), func(i int) (PrioritizationResult, error) {
		r, err := RunPrioritization(setupIDs[i], lossFrac, opts)
		if err != nil {
			return PrioritizationResult{}, fmt.Errorf("setup %d: %w", setupIDs[i], err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, id := range setupIDs {
		r := results[i]
		x := float64(id)
		high.X = append(high.X, x)
		high.Y = append(high.Y, r.High)
		low.X = append(low.X, x)
		low.Y = append(low.Y, r.Low)
		noPrio.X = append(noPrio.X, x)
		noPrio.Y = append(noPrio.Y, r.NoPrioRT)
		mplS.X = append(mplS.X, x)
		mplS.Y = append(mplS.Y, float64(r.MPL))
		sumDiff += r.Differentiation()
		sumPen += r.LowPenalty()
		sumOverall += r.OverallPenalty()
	}
	n := float64(len(setupIDs))
	f.Series = []Series{high, low, noPrio, mplS}
	f.Notes = append(f.Notes,
		fmt.Sprintf("avg differentiation (low/high RT): %.1fx (paper @5%%: 12.1x, @20%%: 18x)", sumDiff/n),
		fmt.Sprintf("avg low-priority penalty vs no-prio: %.2fx (paper @5%%: ~1.16x, @20%%: ~1.37x)", sumPen/n),
		fmt.Sprintf("avg overall-RT penalty vs no-prio: %.2fx (paper @5%%: <=1.06x, @20%%: <=1.25x)", sumOverall/n))
	return f, nil
}

// InternalComparison is one bar group of Figs. 12-13.
type InternalComparison struct {
	Variant string  // "internal", "ext95", "ext80", "ext100"
	High    float64 // mean response time of the high-priority class (s)
	Low     float64 // mean response time of the low-priority class (s)
	MeanRT  float64
	MPL     int // 0 for internal (no external limit)
}

// CompareInternalExternal regenerates Fig. 12 (setupID 1, lock-bound →
// POW lock prioritization) or Fig. 13 (setupID 3, CPU-bound → CPU
// prioritization): internal prioritization versus external
// prioritization at MPLs chosen for 5%, 20% and ~0% throughput loss.
func CompareInternalExternal(setupID int, opts RunOpts) ([]InternalComparison, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	var internalOpts workload.DBOptions
	switch {
	case setupID == 1:
		// Lock-bound: Preempt-on-Wait at the lock queues (Shore).
		internalOpts = workload.DBOptions{LockPolicy: lockmgr.PriorityFIFO, POW: true}
	default:
		// CPU-bound: renice-style CPU priorities (DB2 on Linux).
		internalOpts = workload.DBOptions{CPUPriority: true}
	}
	base, err := RunClosed(setup, 0, "", workload.DBOptions{}, opts)
	if err != nil {
		return nil, err
	}
	externals := []struct {
		name string
		loss float64
	}{
		{"ext95", 0.05},
		{"ext80", 0.20},
		{"ext100", 0.005},
	}
	// Variant 0 is the internal-prioritization run; 1..3 are the
	// external runs at their loss-targeted MPLs (each embedding its own
	// sequential MPL search). All four fan out in parallel.
	out, err := SweepContext(opts.ctx(), 1+len(externals), func(i int) (InternalComparison, error) {
		if i == 0 {
			internal, err := RunClosed(setup, 0, "", internalOpts, opts)
			if err != nil {
				return InternalComparison{}, err
			}
			return InternalComparison{
				Variant: "internal",
				High:    internal.Class(highClass).MeanRT,
				Low:     internal.Class(lowClass).MeanRT,
				MeanRT:  internal.MeanRT,
			}, nil
		}
		v := externals[i-1]
		mpl, err := FindMPLForLoss(setup, base.Throughput, v.loss, 100, opts)
		if err != nil {
			return InternalComparison{}, err
		}
		r, err := RunClosed(setup, mpl, core.PolicyPriority, workload.DBOptions{}, opts)
		if err != nil {
			return InternalComparison{}, err
		}
		return InternalComparison{
			Variant: v.name,
			High:    r.Class(highClass).MeanRT,
			Low:     r.Class(lowClass).MeanRT,
			MeanRT:  r.MeanRT,
			MPL:     mpl,
		}, nil
	})
	return out, err
}

// FigureInternal renders CompareInternalExternal as a Figure (Fig. 12
// for setup 1, Fig. 13 for setup 3).
func FigureInternal(setupID int, opts RunOpts) (*Figure, error) {
	comps, err := CompareInternalExternal(setupID, opts)
	if err != nil {
		return nil, err
	}
	figID := "fig12"
	if setupID != 1 {
		figID = "fig13"
	}
	f := &Figure{
		ID:    figID,
		Title: fmt.Sprintf("Internal vs external prioritization, setup %d", setupID),
	}
	high := Series{Name: "HighPrio RT (s)"}
	low := Series{Name: "LowPrio RT (s)"}
	mean := Series{Name: "Mean RT (s)"}
	for i, c := range comps {
		x := float64(i)
		high.X = append(high.X, x)
		high.Y = append(high.Y, c.High)
		low.X = append(low.X, x)
		low.Y = append(low.Y, c.Low)
		mean.X = append(mean.X, x)
		mean.Y = append(mean.Y, c.MeanRT)
		f.Notes = append(f.Notes, fmt.Sprintf("x=%d: %s (MPL %d)", i, c.Variant, c.MPL))
	}
	f.Series = []Series{high, low, mean}
	f.Notes = append(f.Notes,
		"expect: external (ext100/ext95) differentiation comparable to internal; ext80 differentiates more at a throughput cost")
	return f, nil
}
