// Command mpltool is the paper's MPL-recommendation tool: given a
// hardware shape, per-transaction demand estimates, and the DBA's
// acceptable throughput loss (plus, optionally, an open-system load
// description for the response-time criterion), it prints the lowest
// MPL the Section 4 queueing models consider safe.
//
// Examples:
//
//	mpltool -cpus 1 -disks 4 -cpu-demand 0.001 -io-demand 0.2 -max-loss 0.05
//	mpltool -cpus 2 -disks 1 -cpu-demand 0.02 -lambda 70 -mean-demand 0.01 -c2 15
//
// Use -setup to pull demands from one of the paper's Table 2 setups:
//
//	mpltool -setup 8 -max-loss 0.05
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"extsched"
	"extsched/internal/profile"
	"extsched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mpltool:", err)
		os.Exit(1)
	}
}

// run parses args and writes the recommendation to out; split from
// main so tests can drive the tool in-process.
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("mpltool", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		setupID   = fs.Int("setup", 0, "Table 2 setup id (1-17); overrides demands/hardware flags")
		cpus      = fs.Int("cpus", 1, "number of CPUs")
		disks     = fs.Int("disks", 1, "number of data disks")
		cpuDemand = fs.Float64("cpu-demand", 0, "per-transaction CPU demand (seconds)")
		ioDemand  = fs.Float64("io-demand", 0, "per-transaction disk demand (seconds)")
		maxLoss   = fs.Float64("max-loss", 0.05, "acceptable fractional throughput loss")
		lambda    = fs.Float64("lambda", 0, "open-system arrival rate for the RT criterion (0 = skip)")
		meanDem   = fs.Float64("mean-demand", 0, "mean total service demand for the RT criterion")
		c2        = fs.Float64("c2", 0, "squared coefficient of variation of demand")
		maxRTInc  = fs.Float64("max-rt-increase", 0.1, "acceptable fractional RT increase over PS")
		list      = fs.Bool("list", false, "list the Table 2 setups and exit")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil // usage already printed; -h is not a failure
		}
		return err
	}
	stopProfile, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfile()) }()

	if *list {
		for _, s := range extsched.Setups() {
			fmt.Fprintln(out, s)
		}
		return nil
	}
	if *setupID != 0 {
		s, err := workload.SetupByID(*setupID)
		if err != nil {
			return err
		}
		*cpus, *disks = s.CPUs, s.Disks
		*cpuDemand, *ioDemand = s.Demands()
		fmt.Fprintf(out, "%s\n", s)
		fmt.Fprintf(out, "demand estimates: cpu=%.4fs io=%.4fs per transaction\n", *cpuDemand, *ioDemand)
	}
	if *cpuDemand == 0 && *ioDemand == 0 {
		return fmt.Errorf("need -cpu-demand and/or -io-demand (or -setup)")
	}
	rec, err := extsched.RecommendMPL(*cpus, *disks, *cpuDemand, *ioDemand, *maxLoss,
		*lambda, *meanDem, *c2, *maxRTInc)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "throughput criterion (MVA, <=%.0f%% loss): MPL >= %d\n", *maxLoss*100, rec.ThroughputMPL)
	if rec.ResponseTimeMPL > 0 {
		fmt.Fprintf(out, "response-time criterion (QBD, C²=%.1f, rho=%.2f): MPL >= %d\n",
			*c2, *lambda**meanDem, rec.ResponseTimeMPL)
	}
	fmt.Fprintf(out, "recommended MPL: %d\n", rec.MPL)
	return nil
}
