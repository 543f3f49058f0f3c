// Capacity planning with the pure queueing models — no simulation.
// This is what a DBA can compute on a napkin before touching the
// system: how does the lowest safe MPL scale with hardware, and how
// does workload variability move the response-time bound? Every number
// comes from extsched.RecommendMPL, the same Section 4 recommender
// (exact MVA for throughput, QBD for response time) that mpltool and
// the controller's starting MPL use.
//
//	go run ./examples/capacityplanning
package main

import (
	"fmt"
	"log"

	"extsched"
)

func main() {
	fmt.Println("Part 1 — Fig. 7's law: min MPL for 95% of max throughput grows")
	fmt.Println("linearly with the number of (balanced) disks:")
	fmt.Println()
	fmt.Printf("%8s %14s %14s\n", "disks", "minMPL@80%", "minMPL@95%")
	for _, d := range []int{1, 2, 3, 4, 8, 16} {
		r80, err := extsched.RecommendMPL(1, d, 0.0001, 0.2, 0.20, 0, 0, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		r95, err := extsched.RecommendMPL(1, d, 0.0001, 0.2, 0.05, 0, 0, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d %14d %14d\n", d, r80.MPL, r95.MPL)
	}

	fmt.Println()
	fmt.Println("Part 2 — Fig. 10's law: workload variability (C²) sets the")
	fmt.Println("response-time lower bound on the MPL (mean demand 100 ms):")
	fmt.Println()
	fmt.Printf("%8s %12s %12s\n", "C²", "rho=0.7", "rho=0.9")
	for _, c2 := range []float64{2, 5, 10, 15} {
		var row [2]int
		for i, rho := range []float64{0.7, 0.9} {
			rec, err := extsched.RecommendMPL(1, 1, 0.1, 0, 0.05,
				rho/0.1, 0.1, c2, 0.1)
			if err != nil {
				log.Fatal(err)
			}
			row[i] = rec.ResponseTimeMPL
		}
		fmt.Printf("%8.0f %12d %12d\n", c2, row[0], row[1])
	}
	fmt.Println()
	fmt.Println("Reading: low-variability (TPC-C-like) workloads tolerate tiny MPLs;")
	fmt.Println("high-variability (TPC-W-like) ones need MPL ~10 at moderate load and")
	fmt.Println("~30 near saturation — exactly the paper's Section 4.2 numbers.")
}
