// Prioritization: the paper's Section 5 application. Tag 10% of
// transactions "high priority" (the big spenders), schedule the
// external queue high-first, and compare against (a) no prioritization
// and (b) internal prioritization inside the DBMS.
//
//	go run ./examples/prioritization
package main

import (
	"fmt"
	"log"

	"extsched"
)

func run(cfg extsched.Config) extsched.Report {
	sys, err := extsched.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sys.RunClosed(100, 20, 200)
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

func main() {
	const setup = 1 // TPC-C-like, lock-heavy — the paper's Fig. 12 setup

	fmt.Println("Priority differentiation on setup 1 (10% high-priority transactions)")
	fmt.Println()
	fmt.Printf("%-34s %10s %10s %10s\n", "configuration", "high RT", "low RT", "low/high")

	// The generator tags high-priority transactions class 1 and the
	// rest class 0.
	show := func(name string, r extsched.Report) {
		high, low := r.Class(1).MeanRT, r.Class(0).MeanRT
		diff := 0.0
		if high > 0 {
			diff = low / high
		}
		fmt.Printf("%-34s %9.3fs %9.3fs %9.1fx\n", name, high, low, diff)
	}

	// Baseline: no scheduling at all — both classes see the same RT.
	show("no prioritization (MPL none)", run(extsched.Config{SetupID: setup, Seed: 3}))

	// External prioritization at a low MPL: the scheduler holds
	// transactions outside and dispatches high-priority ones first.
	show("external priority, MPL 4", run(extsched.Config{
		SetupID: setup, MPL: 4, Policy: extsched.PolicyPriority, Seed: 3,
	}))

	// Same idea with a tighter MPL: more differentiation, some
	// throughput cost (the paper's 20%-loss configuration).
	show("external priority, MPL 2", run(extsched.Config{
		SetupID: setup, MPL: 2, Policy: extsched.PolicyPriority, Seed: 3,
	}))

	// Internal prioritization: Preempt-on-Wait priority lock queues
	// inside the engine (what the paper implemented in Shore).
	show("internal lock priority (POW)", run(extsched.Config{
		SetupID: setup, InternalLockPriority: true, Seed: 3,
	}))

	fmt.Println()
	fmt.Println("Reading: with the MPL set low (but not so low that throughput")
	fmt.Println("suffers), external prioritization differentiates about as well as")
	fmt.Println("invasive internal scheduling — the paper's headline result.")
}
