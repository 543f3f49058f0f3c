// Command tracegen synthesizes transaction traces shaped like the
// paper's production comparisons (top-10 retailer / auction site,
// C² ≈ 2) or with custom statistics, and writes them as CSV for replay
// by the simulator or analysis elsewhere.
//
// Examples:
//
//	tracegen -preset retailer -n 100000 -o retailer.csv
//	tracegen -n 50000 -mean 0.08 -c2 4 -lambda 30 -burst 2 -o custom.csv
//	tracegen -stats -i retailer.csv          # report a trace's statistics
//	tracegen -n 1000000 -o big.csv -cpuprofile cpu.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"extsched/internal/profile"
	"extsched/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		preset = flag.String("preset", "", "retailer or auction")
		n      = flag.Int("n", 100000, "number of records")
		mean   = flag.Float64("mean", 0.05, "mean service demand (seconds)")
		c2     = flag.Float64("c2", 2.0, "squared coefficient of variation")
		lambda = flag.Float64("lambda", 50, "mean arrival rate (records/second)")
		burst  = flag.Float64("burst", 1, "arrival burstiness (>= 1; 1 = Poisson)")
		seed   = flag.Uint64("seed", 1, "random seed")
		out    = flag.String("o", "", "output CSV path (default stdout)")
		in     = flag.String("i", "", "with -stats: input CSV to analyze")
		stats  = flag.Bool("stats", false, "report statistics of -i instead of generating")
		cpu    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		mem    = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()
	stopProfile, err := profile.Start(*cpu, *mem)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfile()) }()

	if *stats {
		if *in == "" {
			return errors.New("-stats requires -i")
		}
		tr, err := trace.LoadFile(*in)
		if err != nil {
			return err
		}
		ps := tr.Percentiles(50, 90, 99)
		fmt.Printf("source:      %s\n", tr.Source)
		fmt.Printf("records:     %d\n", tr.Len())
		fmt.Printf("mean demand: %.6fs\n", tr.MeanDemand())
		fmt.Printf("demand C²:   %.3f\n", tr.DemandC2())
		fmt.Printf("p50/p90/p99: %.6fs %.6fs %.6fs\n", ps[0], ps[1], ps[2])
		return nil
	}

	var tr *trace.Trace
	switch *preset {
	case "retailer":
		tr = trace.SyntheticRetailer(*n, *seed)
	case "auction":
		tr = trace.SyntheticAuction(*n, *seed)
	case "":
		tr, err = trace.Synthesize(trace.SynthConfig{
			N: *n, MeanDemand: *mean, DemandC2: *c2,
			Lambda: *lambda, Burstiness: *burst, Seed: *seed,
			Source: "tracegen",
		})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}
	if *out == "" {
		return tr.WriteCSV(os.Stdout)
	}
	if err := tr.SaveFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d records to %s (C²=%.2f)\n", tr.Len(), *out, tr.DemandC2())
	return nil
}
