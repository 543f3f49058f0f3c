package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"time"

	"extsched"
	"extsched/internal/cluster"
	"extsched/internal/workload"
)

// simWorkload is one scenario of the simulated DBMS behind the MPL
// gate. A run repeats the scenario in rounds on the same seed until the
// measured seconds are spent: the simulated outcome is the same every
// round (which the run checks), and the host cost is the median round.
type simWorkload struct {
	cfg            extsched.Config
	warmup         float64 // simulated seconds before the window opens
	measure        float64 // simulated seconds measured per round
	sampleInterval float64
	tenants        []extsched.TenantSpec
	fairness       *extsched.FairnessSpec
	phase          extsched.Phase // its Duration is set from measure
}

// scenario is the round's scenario with horizons multiplied by scale;
// scale 0 gives the set-up scenario, which simulates nothing.
func (sw *simWorkload) scenario(scale float64) extsched.Scenario {
	ph := sw.phase
	ph.Duration = sw.measure * scale
	return extsched.Scenario{
		Warmup:         sw.warmup * scale,
		SampleInterval: sw.sampleInterval * scale,
		Tenants:        sw.tenants,
		Fairness:       sw.fairness,
		Phases:         []extsched.Phase{ph},
	}
}

const (
	simSetups    = 7 // set-ups per run; setup_s is their median
	minSimRounds = 3 // untraced rounds per run at least
)

func (sw *simWorkload) run(name string, o options, r *report) error {
	cfg := sw.cfg
	cfg.Seed = o.seed
	sys, err := extsched.NewSystem(cfg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	sc, zero := sw.scenario(o.scale), sw.scenario(0)

	setups := make([]cost, simSetups)
	for i := range setups {
		setups[i], err = measure(func() error {
			return o.spans.timed("setup", func() error {
				_, err := sys.Run(ctx, zero)
				return err
			})
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	setup := medianCost(setups)

	// A traced run pairs each traced round with an untraced neighbour,
	// in the order untraced, traced, traced, untraced, and so on, so
	// that neither drift of the host nor a round's position in its pair
	// favours one side.
	var first extsched.Result
	var plain, traced []cost
	mem := startMemSampler()
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(plain) >= minSimRounds && (!o.trace || len(traced) >= 2)
		if enough && time.Since(start).Seconds() >= o.seconds {
			break
		}
		tracedRound := o.trace && (i%4 == 1 || i%4 == 2)
		r.calibrate()
		var res extsched.Result
		c, err := measure(func() error {
			run := func() error {
				var err error
				res, err = sys.Run(ctx, sc)
				return err
			}
			if tracedRound {
				return o.spans.timed("run", run)
			}
			return run()
		})
		if err != nil {
			return err
		}
		if i == 0 {
			first = res
		} else {
			r.check(reflect.DeepEqual(res, first), "round %d (traced: %v) differs from round 0 on the same seed", i, tracedRound)
		}
		if tracedRound {
			traced = append(traced, c)
		} else {
			plain = append(plain, c)
		}
	}

	memMB := mem.finish()
	tot := first.Total
	if tot.Completed == 0 {
		return fmt.Errorf("no transaction completed in the window")
	}
	perTxn := func(f func(cost) float64) float64 {
		v := make([]float64, len(plain))
		for i, c := range plain {
			v[i] = f(c.sub(setup)) / float64(tot.Completed)
		}
		return median(v)
	}
	hostUS := perTxn(func(c cost) float64 { return c.wall.Seconds() * 1e6 })
	r.hostTime("setup_s", setup.wall.Seconds(), "s")
	r.hostTime("host_us_per_txn", hostUS, "us")
	r.hostTime("cpu_us_per_txn", perTxn(func(c cost) float64 { return c.cpu.Seconds() * 1e6 }), "us")
	r.set("allocs_per_txn", perTxn(func(c cost) float64 { return float64(c.mallocs) }), "count")
	r.set("alloc_bytes_per_txn", perTxn(func(c cost) float64 { return float64(c.bytes) }), "B")
	r.set("mem_mb", memMB, "MB")
	r.set("tput_per_s", tot.Throughput, "1/s")
	r.set("rt_mean_s", tot.MeanRT, "s")
	r.set("rt_p50_s", tot.P50, "s")
	r.set("rt_p99_s", tot.P99, "s")
	attempts := tot.Completed + tot.Shed + tot.Dropped + tot.Failed
	r.set("goodput_frac", float64(tot.Completed)/float64(attempts), "frac")
	rounds := uint64(len(plain) + len(traced))
	r.attempted = rounds * attempts
	r.failed = rounds * (tot.Dropped + tot.Failed)
	r.note("rounds %d untraced, %d traced; %d completions per round; percentiles from a %d-sample reservoir",
		len(plain), len(traced), tot.Completed, min(uint64(cfg.PercentileSamples), tot.Completed))

	d := digest{Completed: tot.Completed, Shed: tot.Shed, Throughput: tot.Throughput, MeanRT: tot.MeanRT}
	dj, _ := json.Marshal(d)
	r.note("digest %s %s", name, dj)
	if o.seed == 1 {
		want, ok := o.digests[name]
		r.check(ok || o.scale != 1, "no seed-1 digest recorded for %s", name)
		r.check(!ok || want == d, "seed-1 outcome %s differs from the recorded digest %+v", dj, want)
	}
	sw.checkOutcome(sc, tot, r)

	if o.trace {
		ratios := make([]float64, min(len(plain), len(traced)))
		for i := range ratios {
			ratios[i] = traced[i].wall.Seconds() / plain[i].wall.Seconds()
		}
		r.set("trace.overhead_frac", median(ratios)-1, "frac")
		return drillAll(sw.model(o, first), o, hostUS, r)
	}
	return nil
}

// checkOutcome checks the simulated outcome against what the model
// guarantees for any seed.
func (sw *simWorkload) checkOutcome(sc extsched.Scenario, tot extsched.Report, r *report) {
	r.check(tot.Dropped == 0 && tot.Failed == 0, "%d dropped and %d failed transactions; no workload configures either", tot.Dropped, tot.Failed)
	if len(sw.phase.Events) == 0 {
		r.check(tot.Shed == 0, "%d transactions shed without an admission deadline", tot.Shed)
	}
	// Throughput cannot beat the busiest device: the asymptotic bound
	// of the setup's demands, per shard. The slack covers five standard
	// errors of the window's mean demand (the workloads' demand C² is
	// at most 2) plus 3% for the demand model, and work that entered
	// before the window may complete inside it, worth MPL completions.
	setup, err := workload.SetupByID(sw.cfg.SetupID)
	if err != nil {
		r.check(false, "%v", err)
		return
	}
	cpuD, ioD := setup.Demands()
	bound := math.Min(float64(setup.CPUs)/cpuD, 1/setup.Workload.LogService.Mean())
	if ioD > 0 {
		bound = math.Min(bound, float64(setup.Disks)/ioD)
	}
	bound *= float64(max(sw.cfg.Shards.Count, 1))
	h := sc.Phases[0].Duration
	slack := 1.03 + 5*math.Sqrt(2/float64(tot.Completed))
	r.check(tot.Throughput <= slack*bound+float64(sw.cfg.MPL)/h,
		"throughput %.3f/s exceeds the asymptotic bound %.3f/s", tot.Throughput, bound)

	// An open workload completes or sheds what arrives: no backlog
	// grows. The tolerance is 2% or five standard deviations of the
	// arrival count, whichever is larger; a burst phase's two-state
	// modulation inflates the variance by its index of dispersion.
	ph := sc.Phases[0]
	if ph.Kind == extsched.PhaseClosed {
		return
	}
	want := ph.Lambda * h
	dispersion := 1.0
	if ph.Kind == extsched.PhaseBurst {
		f2 := ph.BurstFactor * ph.BurstFactor
		period := ph.BurstPeriod
		if period == 0 {
			period = 100 / ph.Lambda
		}
		dispersion += ph.Lambda * period * math.Pow((f2-1)/(f2+1), 2)
	}
	tol := math.Max(0.02*want, 5*math.Sqrt(dispersion*want))
	got := float64(tot.Completed + tot.Shed)
	r.check(math.Abs(got-want) <= tol,
		"completed+shed %.0f is not within %.0f of the %.0f arrivals expected: the backlog grows", got, tol, want)
}

// model is the operating point the per-layer drills reproduce.
func (sw *simWorkload) model(o options, res extsched.Result) modelSpec {
	shards := max(sw.cfg.Shards.Count, 1)
	tot := res.Total
	m := modelSpec{
		setupID:     sw.cfg.SetupID,
		seed:        o.seed,
		mpl:         cluster.SplitMPL(sw.cfg.MPL, shards)[0],
		policy:      sw.cfg.Policy,
		shards:      sw.cfg.Shards.Count,
		dispatch:    sw.cfg.Shards.Dispatch,
		tenants:     sw.tenants,
		strict:      sw.fairness != nil && sw.fairness.Strict,
		samples:     sw.cfg.PercentileSamples,
		concurrency: tot.Throughput * tot.MeanInside / float64(shards),
		inside:      tot.MeanInside,
		clients:     sw.phase.Clients,
		lambda:      sw.phase.Lambda / float64(shards),
	}
	if sw.phase.Kind == extsched.PhaseClosed && m.clients == 0 {
		m.clients = 100
	}
	for _, ev := range sw.phase.Events {
		for tenant, d := range ev.SetTenantDeadlines {
			for i, t := range sw.tenants {
				if t.Name == tenant {
					if m.deadlines == nil {
						m.deadlines = map[int]float64{}
					}
					m.deadlines[i] = d
				}
			}
		}
	}
	// Per-layer counts that come from the workload's own result.
	if len(res.Shards) > 0 {
		var most, sum uint64
		for _, s := range res.Shards {
			most = max(most, s.Dispatched)
			sum += s.Dispatched
		}
		m.routeImbalance = float64(most)*float64(len(res.Shards))/float64(sum) - 1
	}
	if f := res.Fairness; f != nil {
		m.fairIterations, m.fairMoves = f.Iterations, f.Moves
	}
	if tot.MeanRT > 0 {
		m.extWaitFrac = tot.ExternalW / tot.MeanRT
	}
	m.shedFrac = float64(tot.Shed) / float64(tot.Completed+tot.Shed+tot.Dropped+tot.Failed)
	return m
}
