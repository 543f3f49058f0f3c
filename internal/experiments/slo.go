package experiments

import (
	"fmt"

	"extsched/internal/core"
	"extsched/internal/runner"
	"extsched/internal/workload"
)

// sloOutcome is one scenario run's slice of the SLO comparison.
type sloOutcome struct {
	highP95 float64
	lowTput float64
	shed    uint64
	out     runner.Result
}

// SLOFigure is the SLO-driven-admission comparison: under a flash-
// crowd burst that transiently overloads the system, sweep fixed MPLs
// (plain FIFO gate — what the paper's converged controller would hold)
// and pit them against the per-class SLO controller (class-partitioned
// MPL steered to the high class's p95 target, plus a low-class
// admission deadline shedding work that could no longer start in
// time).
//
// The point the figure makes: a single global MPL has no knob that
// protects the high class's tail during overload — every fixed MPL
// shares one queue, so the burst's backlog lands on both classes —
// while the SLO controller holds the high-class p95 at the target and
// gives every slot the SLO does not need to low-class throughput,
// shedding only the low-class work that had already missed its
// deadline. targetP95 <= 0 picks a default of 3/4 of the closed-system
// baseline mean response time — far below the shared-queue overload
// tail, comfortably above the partitioned one.
func SLOFigure(setupID int, targetP95 float64, opts RunOpts) (*Figure, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(setup)
	// Reference capacity and baseline response time from a no-MPL
	// closed probe (the same probe every controller figure uses).
	base, err := RunClosed(setup, 0, "", workload.DBOptions{}, opts)
	if err != nil {
		return nil, err
	}
	ref := base.Throughput
	if ref <= 0 {
		return nil, fmt.Errorf("experiments: degenerate baseline throughput")
	}
	if targetP95 <= 0 {
		targetP95 = 0.75 * base.MeanRT
	}
	seg := opts.Measure
	spec := func(extra []runner.Event) runner.Scenario {
		return runner.Scenario{
			Warmup: opts.Warmup,
			Phases: []runner.Phase{
				{
					Name: "steady", Kind: runner.PhaseOpen,
					Lambda: 0.7 * ref, Duration: seg,
					Events: extra,
				},
				{
					Name: "burst", Kind: runner.PhaseBurst,
					Lambda: 1.1 * ref, BurstFactor: 3, BurstPeriod: seg / 8,
					Duration: seg,
				},
				{
					Name: "recover", Kind: runner.PhaseOpen,
					Lambda: 0.6 * ref, Duration: seg,
				},
			},
		}
	}
	runOne := func(mpl int, events []runner.Event) (sloOutcome, error) {
		out, err := RunPhases(setup, mpl, "", workload.DBOptions{}, opts, spec(events))
		if err != nil {
			return sloOutcome{}, err
		}
		var o sloOutcome
		o.out = out
		o.highP95 = out.Total.Class(int(core.ClassHigh)).P95
		if w := out.Total.SimSeconds; w > 0 {
			// Every completion outside the high class is low-class work.
			low := out.Total.Completed
			for _, c := range out.Total.Classes {
				if c.Class == int(core.ClassHigh) {
					low -= c.Completed
				}
			}
			o.lowTput = float64(low) / w
		}
		o.shed = out.Total.Shed
		return o, nil
	}

	mpls := []int{2, 4, 8, 12, 16, 24, 32, 48}
	sloMPL := 16 // the partitioned total the SLO controller steers

	// The SLO run and every fixed-MPL point are independent
	// simulations: fan them out on the sweep pool. Index 0 is the
	// controller, 1..len(mpls) the fixed sweep.
	results, err := SweepContext(opts.ctx(), len(mpls)+1, func(i int) (sloOutcome, error) {
		if i == 0 {
			return runOne(sloMPL, []runner.Event{{
				At: 0,
				SetSLO: &runner.SLOSpec{
					Class:  "high",
					Target: targetP95,
				},
				SetTenantDeadlines: map[string]float64{"low": 3 * targetP95},
			}})
		}
		return runOne(mpls[i-1], nil)
	})
	if err != nil {
		return nil, err
	}
	slo, fixed := results[0], results[1:]

	f := &Figure{
		ID: "slo",
		Title: fmt.Sprintf("SLO-driven admission: high-class p95 target %.3gs under a burst, setup %d (fixed MPL sweep vs SLO controller)",
			targetP95, setupID),
	}
	fp95 := Series{Name: "fixed highP95 (s)"}
	ftput := Series{Name: "fixed low tput (tx/s)"}
	cp95 := Series{Name: "slo highP95 (s)"}
	ctput := Series{Name: "slo low tput (tx/s)"}
	bestFixed := -1
	for i, m := range mpls {
		x := float64(m)
		fp95.X = append(fp95.X, x)
		fp95.Y = append(fp95.Y, fixed[i].highP95)
		ftput.X = append(ftput.X, x)
		ftput.Y = append(ftput.Y, fixed[i].lowTput)
		cp95.X = append(cp95.X, x)
		cp95.Y = append(cp95.Y, slo.highP95)
		ctput.X = append(ctput.X, x)
		ctput.Y = append(ctput.Y, slo.lowTput)
		// A fixed MPL "competes" only if it meets the target without
		// sacrificing >= 20% of the controller's low-class throughput.
		if fixed[i].highP95 <= targetP95 && fixed[i].lowTput >= 0.8*slo.lowTput {
			if bestFixed < 0 {
				bestFixed = m
			}
		}
	}
	f.Series = []Series{fp95, ftput, cp95, ctput}
	f.Notes = append(f.Notes,
		fmt.Sprintf("no-MPL reference: %.2f tx/s; burst phase offers 1.1x mean with 3x on-state surges", ref),
		fmt.Sprintf("SLO controller (total MPL %d): high p95 %.3gs vs target %.3gs (met: %v), low tput %.2f tx/s, shed %d low-class txns",
			sloMPL, slo.highP95, targetP95, slo.highP95 <= targetP95, slo.lowTput, slo.shed))
	if rep := slo.out.SLO; rep != nil {
		f.Notes = append(f.Notes, fmt.Sprintf("final partition: high %d + low %d slots after %d reactions (last window p95 %.3gs)",
			rep.SLOLimit, rep.OtherLimit, rep.Iterations, rep.LastMeasured))
	}
	if bestFixed < 0 {
		f.Notes = append(f.Notes,
			"no fixed MPL in the sweep meets the high-class p95 target without >= 20% low-class throughput loss vs the controller")
	} else {
		f.Notes = append(f.Notes,
			fmt.Sprintf("CAUTION: fixed MPL %d also meets the target with competitive low-class throughput", bestFixed))
	}
	return f, nil
}
