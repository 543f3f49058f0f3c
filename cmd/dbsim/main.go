// Command dbsim runs a simulated-DBMS experiment and prints its
// metrics — the quickest way to poke at one configuration, or to run a
// scripted multi-phase scenario from a JSON file.
//
// Examples:
//
//	dbsim -setup 1 -mpl 5
//	dbsim -workload W_CPU-browsing -cpus 2 -mpl 8 -policy priority
//	dbsim -setup 8 -mpl 0 -measure 600          # no limit, long run
//	dbsim -setup 1 -mpl 5 -scenario surge.json  # scripted traffic
//	dbsim -setup 1 -scenario-example            # print a template file
//	dbsim -setup 1 -mpl 40 -shards 4 -shard-speeds 1,1,1,0.25 \
//	      -dispatch jsq -lambda 250             # sharded dispatch
//	dbsim -setup 1 -mpl 16 -lambda 100 \
//	      -slo 0.5 -deadline-low 2              # SLO partition + shedding
//	dbsim -setup 1 -mpl 40 -shards 4 -dispatch jsq -lambda 250 \
//	      -recovery resubmit -retry-budget 3 \
//	      -fail-shard 100:3 -recover-shard 200:3  # crash + recover
//	dbsim -setup 1 -mpl 24 -shards 8 -dispatch jsq-d:3 -lambda 200 \
//	      -autoscale 2:8                          # autoscaled fleet
//	dbsim -setup 1 -mpl 10 -cpuprofile cpu.out \
//	      -memprofile mem.out                     # pprof profiles of the run
//
// A scenario file is the JSON encoding of extsched.Scenario: a warmup,
// a sample interval, an optional tenants block, fairness controller and
// autoscaler, and an ordered list of phases (closed, open, ramp, burst,
// trace, diurnal, flash) with optional mid-phase events (set_mpl,
// set_weights, set_tenant_limits, set_tenant_deadlines,
// enable_fairness, disable_fairness, set_shard_speed, set_dispatch,
// enable_controller, disable_controller, set_slo, disable_slo,
// shard_fail, shard_recover, shard_add, shard_remove) and an optional
// per-phase churn generator (mtbf/mttr). Tenant-keyed events take
// "high"/"low" on two-class runs. With -scenario, dbsim prints a per-phase report table
// and, when the scenario sets sample_interval, the interval time
// series; sharded systems (-shards) append a per-shard table with
// lifecycle state and availability.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"extsched"
	"extsched/internal/profile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbsim:", err)
		os.Exit(1)
	}
}

// run parses args, executes one simulation, and writes the report to
// out; split from main so tests can drive the tool in-process.
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("dbsim", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		setupID  = fs.Int("setup", 0, "Table 2 setup id (1-17)")
		wl       = fs.String("workload", "", "Table 1 workload name (with -cpus/-disks/-iso)")
		cpus     = fs.Int("cpus", 1, "CPUs (with -workload)")
		disks    = fs.Int("disks", 1, "data disks (with -workload)")
		iso      = fs.String("iso", "RR", "isolation level: RR, UR or SI")
		mpl      = fs.Int("mpl", 0, "multiprogramming limit (0 = unlimited)")
		policy   = fs.String("policy", "fifo", "external queue policy: fifo, priority, sjf, wfq")
		clients  = fs.Int("clients", 100, "closed-system client population")
		lambda   = fs.Float64("lambda", 0, "open-system arrival rate (0 = closed system)")
		warmup   = fs.Float64("warmup", 50, "warmup simulated seconds")
		measure  = fs.Float64("measure", 300, "measured simulated seconds")
		seed     = fs.Uint64("seed", 1, "random seed")
		lockPrio = fs.Bool("internal-lock-prio", false, "internal lock prioritization (POW)")
		cpuPrio  = fs.Bool("internal-cpu-prio", false, "internal CPU prioritization (renice)")
		scenario = fs.String("scenario", "", "run the JSON scenario in this file instead of a single closed/open run")
		example  = fs.Bool("scenario-example", false, "print an example scenario JSON and exit")
		shards   = fs.Int("shards", 0, "shard the system across this many backends (0 = unsharded)")
		speeds   = fs.String("shard-speeds", "", "comma-separated per-shard speed multipliers (with -shards)")
		dispatch = fs.String("dispatch", "", "dispatch policy with -shards: rr, jsq, lwl, affinity, or sampled jsq-d / lwl-d (optionally with a width, e.g. jsq-d:3)")
		ascale   = fs.String("autoscale", "", "autoscale the fleet between min:max Up shards with -shards (e.g. -autoscale 2:8)")
		recovery = fs.String("recovery", "", "shard-failure recovery with -shards: resubmit or shed")
		budget   = fs.Int("retry-budget", 0, "resubmission attempts per txn with -recovery=resubmit (0 = default 3)")
		sloT     = fs.Float64("slo", 0, "run under the latency-SLO controller: hold this p95 target in seconds for -slo-class (needs -mpl >= 2)")
		sloClass = fs.String("slo-class", "high", "protected class for -slo: high, low, or a tenant name of the -scenario file")
		sloPct   = fs.Float64("slo-percentile", 0, "controlled percentile for -slo (0 = 95)")
		deadH    = fs.Float64("deadline-high", 0, "high-class admission deadline in seconds (0 = none)")
		deadL    = fs.Float64("deadline-low", 0, "low-class admission deadline in seconds (0 = none)")
		limits   = fs.String("class-limits", "", "static MPL partition as high,low (e.g. 4,12)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	var fails, recovers shardTimes
	fs.Var(&fails, "fail-shard", "crash a shard at t:idx sim-seconds into the run (repeatable, e.g. -fail-shard 100:3)")
	fs.Var(&recovers, "recover-shard", "recover a shard at t:idx (repeatable, pairs with -fail-shard)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil // usage already printed; -h is not a failure
		}
		return err
	}

	if *example {
		fmt.Fprint(out, extsched.ExampleScenarioJSON)
		return nil
	}
	stopProfile, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfile()) }()

	speedList, err := parseSpeeds(*speeds)
	if err != nil {
		return err
	}
	autoscale, err := parseAutoscale(*ascale)
	if err != nil {
		return err
	}
	var slo *extsched.SLOSpec
	if *sloT > 0 {
		slo = &extsched.SLOSpec{Class: *sloClass, Percentile: *sloPct, Target: *sloT}
	}
	var admit *extsched.AdmitDeadline
	if *deadH > 0 || *deadL > 0 {
		admit = &extsched.AdmitDeadline{High: *deadH, Low: *deadL}
	}
	classLimits, err := parseClassLimits(*limits)
	if err != nil {
		return err
	}
	var rec *extsched.RecoverySpec
	if *recovery != "" {
		rec = &extsched.RecoverySpec{Mode: *recovery, RetryBudget: *budget}
		if rec.Mode == extsched.RecoveryResubmit && rec.RetryBudget == 0 {
			rec.RetryBudget = 3
		}
	} else if *budget != 0 {
		return fmt.Errorf("-retry-budget needs -recovery=resubmit")
	}
	sys, err := extsched.NewSystem(extsched.Config{
		SetupID:              *setupID,
		Workload:             *wl,
		CPUs:                 *cpus,
		Disks:                *disks,
		Isolation:            *iso,
		MPL:                  *mpl,
		Policy:               *policy,
		InternalLockPriority: *lockPrio,
		InternalCPUPriority:  *cpuPrio,
		SLO:                  slo,
		ClassLimits:          classLimits,
		AdmitDeadline:        admit,
		Shards: extsched.ShardSpec{
			Count:    *shards,
			Speeds:   speedList,
			Dispatch: *dispatch,
		},
		Recovery: rec,
		Seed:     *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, sys.Setup())
	if *shards > 0 {
		fmt.Fprintf(out, "shards:           %d (dispatch %s)\n", *shards, dispatchName(*dispatch))
	}
	if *scenario != "" {
		if len(fails) > 0 || len(recovers) > 0 {
			return fmt.Errorf("-fail-shard/-recover-shard apply to single runs; put shard_fail/shard_recover events in the scenario file instead")
		}
		return runScenarioFile(sys, *scenario, autoscale, out)
	}
	// A single closed/open run is a one-phase scenario; running it
	// through Run keeps the per-shard slices for the report below.
	sc := extsched.Scenario{Warmup: *warmup, Autoscale: autoscale}
	ph := extsched.Phase{Kind: extsched.PhaseClosed, Clients: *clients, Duration: *measure}
	if *lambda > 0 {
		ph = extsched.Phase{Kind: extsched.PhaseOpen, Lambda: *lambda, Duration: *measure}
	}
	for _, st := range fails {
		idx := st.shard
		ph.Events = append(ph.Events, extsched.Event{At: st.at, ShardFail: &idx})
	}
	for _, st := range recovers {
		idx := st.shard
		ph.Events = append(ph.Events, extsched.Event{At: st.at, ShardRecover: &idx})
	}
	sc.Phases = []extsched.Phase{ph}
	res, err := sys.Run(context.Background(), sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mpl:              %d\n", sys.MPL())
	printReport(out, res.Total)
	printSLO(out, res.SLO)
	printClasses(out, res)
	printAutoscale(out, res.Autoscale)
	printShards(out, res.Shards, fleetUp(res))
	return nil
}

// fleetUp is the serving shard count when the run ended: the
// autoscaler's final fleet when one ran, otherwise the shards that
// finished in the up state.
func fleetUp(res extsched.Result) int {
	if res.Autoscale != nil {
		return res.Autoscale.FinalFleet
	}
	n := 0
	for _, sr := range res.Shards {
		if sr.State == "" || sr.State == "up" {
			n++
		}
	}
	return n
}

// printSLO renders the SLO controller's outcome (no-op without one).
func printSLO(out io.Writer, slo *extsched.SLOResult) {
	if slo == nil {
		return
	}
	fmt.Fprintf(out, "slo:              %s class holds %d of the MPL (other %d), %d reactions, last window p95 %.4f s\n",
		slo.Class, slo.SLOLimit, slo.OtherLimit, slo.Iterations, slo.LastMeasured)
}

// dispatchName renders the dispatch policy flag ("" = default rr).
func dispatchName(d string) string {
	if d == "" {
		return "rr"
	}
	return d
}

// parseClassLimits decodes the -class-limits "high,low" pair.
func parseClassLimits(s string) (*extsched.ClassLimits, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad -class-limits %q: want high,low", s)
	}
	h, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, fmt.Errorf("bad -class-limits %q: %w", s, err)
	}
	l, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return nil, fmt.Errorf("bad -class-limits %q: %w", s, err)
	}
	return &extsched.ClassLimits{High: h, Low: l}, nil
}

// shardTime is one -fail-shard/-recover-shard occurrence: a sim-time
// offset into the measured run and a shard index.
type shardTime struct {
	at    float64
	shard int
}

// shardTimes collects repeated t:idx flag values.
type shardTimes []shardTime

func (s *shardTimes) String() string {
	var parts []string
	for _, st := range *s {
		parts = append(parts, fmt.Sprintf("%g:%d", st.at, st.shard))
	}
	return strings.Join(parts, ",")
}

func (s *shardTimes) Set(v string) error {
	at, idxStr, ok := strings.Cut(v, ":")
	if !ok {
		return fmt.Errorf("bad value %q: want t:idx (e.g. 100:3)", v)
	}
	t, err := strconv.ParseFloat(strings.TrimSpace(at), 64)
	if err != nil || t < 0 {
		return fmt.Errorf("bad time in %q: want seconds >= 0", v)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(idxStr))
	if err != nil || idx < 0 {
		return fmt.Errorf("bad shard index in %q", v)
	}
	*s = append(*s, shardTime{at: t, shard: idx})
	return nil
}

// parseAutoscale decodes the -autoscale "min:max" fleet bounds; the
// rest of the spec (watermarks, windows, cooldown) keeps the package
// defaults. Bound sanity (min >= 1, min <= max) is checked by scenario
// validation so the error message is shared with JSON scenarios.
func parseAutoscale(s string) (*extsched.AutoscaleSpec, error) {
	if s == "" {
		return nil, nil
	}
	minStr, maxStr, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("bad -autoscale %q: want min:max (e.g. 2:8)", s)
	}
	lo, err := strconv.Atoi(strings.TrimSpace(minStr))
	if err != nil {
		return nil, fmt.Errorf("bad -autoscale min in %q: %w", s, err)
	}
	hi, err := strconv.Atoi(strings.TrimSpace(maxStr))
	if err != nil {
		return nil, fmt.Errorf("bad -autoscale max in %q: %w", s, err)
	}
	return &extsched.AutoscaleSpec{Min: lo, Max: hi}, nil
}

// parseSpeeds decodes the -shard-speeds CSV.
func parseSpeeds(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -shard-speeds entry %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// printClasses renders the per-class breakdown of the whole run and
// the fairness loop's outcome. Classes without a tenant name are the
// two-class workloads' high (1) and low (0) classes.
func printClasses(out io.Writer, res extsched.Result) {
	if len(res.Total.Classes) > 0 {
		fmt.Fprintf(out, "\n%-12s %6s %10s %8s %12s %12s\n",
			"name", "class", "txns", "shed", "meanRT (s)", "p95 (s)")
		for _, c := range res.Total.Classes {
			name := c.Name
			switch {
			case name != "":
			case c.Class == 1:
				name = "high"
			case c.Class == 0:
				name = "low"
			default:
				name = "-"
			}
			fmt.Fprintf(out, "%-12s %6d %10d %8d %12.4f %12.4f\n",
				name, c.Class, c.Completed, c.Shed, c.MeanRT, c.P95)
		}
	}
	if fr := res.Fairness; fr != nil {
		fmt.Fprintf(out, "fairness:         final limits %v, %d iterations, %d slot moves\n",
			fr.Limits, fr.Iterations, fr.Moves)
	}
}

// printAutoscale renders the fleet controller's outcome (no-op when
// the run had no autoscaler).
func printAutoscale(out io.Writer, a *extsched.AutoscaleResult) {
	if a == nil {
		return
	}
	fmt.Fprintf(out, "autoscale:        fleet ended at %d (peak %d, min %d), %d scale-ups, %d scale-downs, %.0f shard-seconds billed\n",
		a.FinalFleet, a.PeakFleet, a.MinFleet, a.ScaleUps, a.ScaleDowns, a.ShardSeconds)
}

// printShards renders the per-shard slice table (no-op unsharded). The
// fleet column shows how many shards were serving alongside this one
// at the end of the run — under an autoscaler, parked shards show the
// state that explains their zero-routed rows.
func printShards(out io.Writer, shards []extsched.ShardResult, fleetUp int) {
	if len(shards) == 0 {
		return
	}
	fmt.Fprintf(out, "\n%6s %6s %8s %6s %6s %10s %10s %12s %12s %10s %8s\n",
		"shard", "speed", "state", "avail", "fleet", "routed", "txns", "tput (tx/s)", "meanRT (s)", "p95RT (s)", "cpu")
	for _, sr := range shards {
		state := sr.State
		if state == "" {
			state = "up"
		}
		fmt.Fprintf(out, "%6d %6.2f %8s %6.3f %6d %10d %10d %12.2f %12.4f %10.4f %8.3f\n",
			sr.Shard, sr.Speed, state, sr.Availability, fleetUp, sr.Dispatched, sr.Completed,
			sr.Throughput, sr.MeanRT, sr.P95, sr.CPUUtil)
	}
}

func printReport(out io.Writer, rep extsched.Report) {
	fmt.Fprintf(out, "completed:        %d txns in %.0f sim-seconds\n", rep.Completed, rep.SimSeconds)
	fmt.Fprintf(out, "throughput:       %.2f txn/s\n", rep.Throughput)
	fmt.Fprintf(out, "mean RT:          %.4f s (inside %.4f s, external wait %.4f s)\n",
		rep.MeanRT, rep.MeanInside, rep.ExternalW)
	fmt.Fprintf(out, "cpu util:         %.3f\n", rep.CPUUtil)
	fmt.Fprintf(out, "disk util:        %.3f\n", rep.DiskUtil)
	fmt.Fprintf(out, "lock waits:       %d (deadlocks %d, preemptions %d, restarts %d)\n",
		rep.LockWaits, rep.Deadlocks, rep.Preemptions, rep.Restarts)
	if rep.Shed > 0 || rep.Dropped > 0 {
		fmt.Fprintf(out, "rejected:         %d shed past deadline, %d dropped\n", rep.Shed, rep.Dropped)
	}
	if rep.Failed > 0 || rep.Resubmitted > 0 || rep.Retries > 0 {
		fmt.Fprintf(out, "shard faults:     %d txns lost, %d resubmitted (%d retries)\n",
			rep.Failed, rep.Resubmitted, rep.Retries)
	}
}

// runScenarioFile loads, runs and reports a JSON scenario; a non-nil
// autoscale (the -autoscale flag) overrides the file's spec.
func runScenarioFile(sys *extsched.System, path string, autoscale *extsched.AutoscaleSpec, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sc, err := extsched.ParseScenario(data)
	if err != nil {
		return err
	}
	if autoscale != nil {
		sc.Autoscale = autoscale
	}
	res, err := sys.Run(context.Background(), sc)
	if err != nil {
		return err
	}
	if sc.Name != "" {
		fmt.Fprintf(out, "scenario: %s\n", sc.Name)
	}
	fmt.Fprintf(out, "%-12s %-8s %10s %10s %12s %12s %10s\n",
		"phase", "kind", "sim-secs", "txns", "tput (tx/s)", "meanRT (s)", "queuedRT")
	for _, ph := range res.Phases {
		fmt.Fprintf(out, "%-12s %-8s %10.1f %10d %12.2f %12.4f %10.4f\n",
			ph.Name, ph.Kind, ph.SimSeconds, ph.Completed, ph.Throughput, ph.MeanRT, ph.ExternalW)
	}
	fmt.Fprintf(out, "%-12s %-8s %10.1f %10d %12.2f %12.4f %10.4f\n",
		"TOTAL", "", res.Total.SimSeconds, res.Total.Completed,
		res.Total.Throughput, res.Total.MeanRT, res.Total.ExternalW)
	if res.Tune != nil {
		fmt.Fprintf(out, "controller:       start MPL %d -> final MPL %d, %d iterations, converged %v\n",
			res.Tune.StartMPL, res.Tune.FinalMPL, res.Tune.Iterations, res.Tune.Converged)
	}
	printSLO(out, res.SLO)
	printClasses(out, res)
	printAutoscale(out, res.Autoscale)
	if res.Total.Shed > 0 {
		fmt.Fprintf(out, "shed:             %d txns past their admission deadline\n", res.Total.Shed)
	}
	printShards(out, res.Shards, fleetUp(res))
	fmt.Fprintf(out, "final mpl:        %d\n", res.FinalMPL)
	if len(res.Snapshots) > 0 {
		// Sharded runs carry fleet gauges in every snapshot; the fleet
		// column makes an autoscaled run's shape readable at a glance.
		withFleet := res.Snapshots[0].FleetSize > 0
		if withFleet {
			fmt.Fprintf(out, "\n%10s %-12s %6s %6s %8s %8s %12s %12s\n",
				"time", "phase", "MPL", "fleet", "queued", "txns", "tput (tx/s)", "meanRT (s)")
		} else {
			fmt.Fprintf(out, "\n%10s %-12s %6s %8s %8s %12s %12s\n",
				"time", "phase", "MPL", "queued", "txns", "tput (tx/s)", "meanRT (s)")
		}
		for _, s := range res.Snapshots {
			if withFleet {
				fmt.Fprintf(out, "%10.1f %-12s %6d %6d %8d %8d %12.2f %12.4f\n",
					s.Time, s.Phase, s.Limit, s.FleetUp, s.Queued, s.Completed, s.Throughput, s.MeanResponse)
			} else {
				fmt.Fprintf(out, "%10.1f %-12s %6d %8d %8d %12.2f %12.4f\n",
					s.Time, s.Phase, s.Limit, s.Queued, s.Completed, s.Throughput, s.MeanResponse)
			}
		}
	}
	return nil
}
