package experiments

import (
	"fmt"

	"extsched/internal/core"
	"extsched/internal/lockmgr"
	"extsched/internal/workload"
)

// GroupCommitAblation measures the effect of batching commit log
// writes. At high MPLs the serial log write becomes a hidden extra
// "resource" that inflates the MPL needed for peak throughput — one of
// the reasons the paper's W_CPU-inventory needed a slightly higher MPL
// than its CPU count alone suggests (§3.1 points at log I/O from
// updates).
func GroupCommitAblation(setupID int, mpls []int, opts RunOpts) (*Figure, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:    "ablate-groupcommit",
		Title: fmt.Sprintf("Group commit on/off, setup %d: throughput vs MPL", setupID),
	}
	variants := []bool{false, true}
	// Flatten (variant, MPL) into one parallel sweep.
	tputs, err := SweepContext(opts.ctx(), len(variants)*len(mpls), func(i int) (float64, error) {
		gc, m := variants[i/len(mpls)], mpls[i%len(mpls)]
		r, err := RunClosed(setup, m, "", workload.DBOptions{GroupCommit: gc}, opts)
		if err != nil {
			return 0, err
		}
		return r.Throughput, nil
	})
	if err != nil {
		return nil, err
	}
	for vi, gc := range variants {
		name := "serial-log"
		if gc {
			name = "group-commit"
		}
		s := Series{Name: name}
		for mi, m := range mpls {
			s.X = append(s.X, float64(m))
			s.Y = append(s.Y, tputs[vi*len(mpls)+mi])
		}
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes, "expect: group commit lifts high-MPL throughput on commit-heavy workloads")
	return f, nil
}

// POWAblation compares the two internal lock-prioritization variants
// on the lock-bound setup: plain priority queues (high-class waiters
// jump the queue) versus full Preempt-on-Wait (additionally aborting
// blocked low-priority holders) — the McWherter et al. comparison the
// paper builds on.
func POWAblation(opts RunOpts) (*Figure, error) {
	setup, err := workload.SetupByID(1)
	if err != nil {
		return nil, err
	}
	f := &Figure{ID: "ablate-pow", Title: "Internal lock prioritization: none vs priority-queue vs POW (setup 1)"}
	variants := []struct {
		name string
		dbo  workload.DBOptions
	}{
		{"no-priority", workload.DBOptions{}},
		{"prio-queue", workload.DBOptions{LockPolicy: lockmgr.PriorityFIFO}},
		{"pow", workload.DBOptions{LockPolicy: lockmgr.PriorityFIFO, POW: true}},
	}
	high := Series{Name: "HighPrio RT (s)"}
	low := Series{Name: "LowPrio RT (s)"}
	preempt := Series{Name: "preemptions"}
	results, err := SweepContext(opts.ctx(), len(variants), func(i int) (RunResult, error) {
		return RunClosed(setup, 0, "", variants[i].dbo, opts)
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		x := float64(i)
		high.X = append(high.X, x)
		high.Y = append(high.Y, r.Class(highClass).MeanRT)
		low.X = append(low.X, x)
		low.Y = append(low.Y, r.Class(lowClass).MeanRT)
		preempt.X = append(preempt.X, x)
		preempt.Y = append(preempt.Y, float64(r.Preemptions))
		f.Notes = append(f.Notes, fmt.Sprintf("x=%d: %s", i, variants[i].name))
	}
	f.Series = []Series{high, low, preempt}
	f.Notes = append(f.Notes, "expect: prio-queue helps high-priority lock waits; POW helps further when holders block elsewhere")
	return f, nil
}

// PolicyComparison contrasts the external queue policies at a fixed
// low MPL on a high-variability workload: FIFO suffers HOL blocking,
// SJF minimizes overall mean RT, Priority trades overall RT for class
// differentiation — the design space the paper's §1 sketches.
func PolicyComparison(setupID, mpl int, opts RunOpts) (*Figure, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:    "ablate-policy",
		Title: fmt.Sprintf("External queue policies at MPL %d, setup %d", mpl, setupID),
	}
	mean := Series{Name: "Mean RT (s)"}
	high := Series{Name: "HighPrio RT (s)"}
	tput := Series{Name: "tput (tx/s)"}
	policies := []string{core.PolicyFIFO, core.PolicySJF, core.PolicyPriority}
	results, err := SweepContext(opts.ctx(), len(policies), func(i int) (RunResult, error) {
		return RunClosed(setup, mpl, policies[i], workload.DBOptions{}, opts)
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		x := float64(i)
		mean.X = append(mean.X, x)
		mean.Y = append(mean.Y, r.MeanRT)
		high.X = append(high.X, x)
		high.Y = append(high.Y, r.Class(highClass).MeanRT)
		tput.X = append(tput.X, x)
		tput.Y = append(tput.Y, r.Throughput)
		f.Notes = append(f.Notes, fmt.Sprintf("x=%d: %s", i, policies[i]))
	}
	f.Series = []Series{mean, high, tput}
	f.Notes = append(f.Notes, "expect: SJF lowest overall mean RT; priority lowest high-class RT; throughput ~unchanged")
	return f, nil
}

// AdmissionComparison contrasts external scheduling (unbounded queue)
// with the admission-control approach the paper distinguishes itself
// from (§1): same MPL, but arrivals beyond a queue bound are dropped.
// Open system so that dropping actually sheds load.
func AdmissionComparison(setupID, mpl, queueLimit int, utilization float64, opts RunOpts) (*Figure, error) {
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	base, err := RunClosed(setup, 0, "", workload.DBOptions{}, opts)
	if err != nil {
		return nil, err
	}
	lambda := utilization * base.Throughput
	f := &Figure{
		ID:    "ablate-admission",
		Title: fmt.Sprintf("External scheduling vs admission control (drop beyond %d queued), setup %d, MPL %d", queueLimit, setupID, mpl),
	}
	meanRT := Series{Name: "Mean RT (s)"}
	completed := Series{Name: "completed/s"}
	dropped := Series{Name: "dropped/s"}
	limits := []int{0, queueLimit}
	results, err := SweepContext(opts.ctx(), len(limits), func(i int) (openLimitResult, error) {
		return runOpenWithLimit(setup, mpl, lambda, limits[i], opts)
	})
	if err != nil {
		return nil, err
	}
	for i, limit := range limits {
		r := results[i]
		x := float64(i)
		meanRT.X = append(meanRT.X, x)
		meanRT.Y = append(meanRT.Y, r.meanRT)
		completed.X = append(completed.X, x)
		completed.Y = append(completed.Y, r.tput)
		dropped.X = append(dropped.X, x)
		dropped.Y = append(dropped.Y, r.dropRate)
		label := "external (no drops)"
		if limit > 0 {
			label = "admission control"
		}
		f.Notes = append(f.Notes, fmt.Sprintf("x=%d: %s", i, label))
	}
	f.Series = []Series{meanRT, completed, dropped}
	f.Notes = append(f.Notes, "expect: admission control trims RT tails by rejecting work; external scheduling completes everything")
	return f, nil
}

type openLimitResult struct {
	tput, meanRT, dropRate float64
}

// runOpenWithLimit is RunOpen plus a frontend queue bound.
func runOpenWithLimit(setup workload.Setup, mpl int, lambda float64, limit int, opts RunOpts) (openLimitResult, error) {
	opts.QueueLimit = limit
	r, err := RunOpen(setup, mpl, lambda, "", workload.DBOptions{}, opts)
	if err != nil {
		return openLimitResult{}, err
	}
	return openLimitResult{
		tput:     r.Throughput,
		meanRT:   r.MeanRT,
		dropRate: float64(r.Dropped) / r.SimSeconds,
	}, nil
}
