// Trace replay: take a production-shaped transaction trace (the
// paper's retailer/auction comparison, C² ≈ 2), replay it through the
// external scheduler at several MPLs, and watch how mean and tail
// response times react — the workflow a DBA would use with their own
// transaction log before picking an MPL. The replay is a one-phase
// trace Scenario, so the same System is reused for every MPL point.
//
//	go run ./examples/tracereplay
package main

import (
	"context"
	"fmt"
	"log"

	"extsched"
)

func main() {
	// A synthetic stand-in for the paper's top-10 retailer trace:
	// 60k transactions, C² ≈ 2, bursty arrivals.
	synth := extsched.TraceSynth{
		N: 60000, MeanDemand: 0.05, DemandC2: 2.0, Lambda: 50,
		Burstiness: 2, Source: "synthetic-retailer", Seed: 42,
	}
	fmt.Printf("replaying %s: %d transactions, mean demand %.1f ms, C² = %.1f\n\n",
		synth.Source, synth.N, synth.MeanDemand*1000, synth.DemandC2)
	fmt.Printf("%6s %12s %12s %12s %12s\n", "MPL", "tput (tx/s)", "meanRT (ms)", "p95 (ms)", "p99 (ms)")

	// The traced site ran on a larger box than one core (its offered
	// load is ~2.5 core-seconds per second); replay onto 4 cores at
	// recorded speed: ~63% mean utilization with bursts that
	// transiently exceed capacity — where the MPL choice matters.
	sys, err := extsched.NewSystem(extsched.Config{
		Workload: "W_CPU-inventory", CPUs: 4, Disks: 1,
		Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	scenario := extsched.Scenario{
		Phases: []extsched.Phase{{
			Kind:       extsched.PhaseTrace,
			TraceSynth: &synth,
			Duration:   1300, // covers the trace's ~1200-second span
		}},
	}
	for _, mpl := range []int{2, 4, 8, 16, 0} {
		sys.SetMPL(mpl)
		res, err := sys.Run(context.Background(), scenario)
		if err != nil {
			log.Fatal(err)
		}
		rep := res.Total
		label := fmt.Sprint(mpl)
		if mpl == 0 {
			label = "none"
		}
		fmt.Printf("%6s %12.1f %12.2f %12.2f %12.2f\n",
			label, rep.Throughput, rep.MeanRT*1000, rep.P95*1000, rep.P99*1000)
	}
	fmt.Println()
	fmt.Println("Reading: at C² ≈ 2 the mean RT flattens at a modest MPL — the")
	fmt.Println("paper's finding that production workloads sit between TPC-C")
	fmt.Println("(insensitive) and TPC-W (needs MPL 8-15). The p99 shows the")
	fmt.Println("residual head-of-line blocking cost of very low MPLs.")
}
