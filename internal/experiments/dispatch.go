package experiments

import (
	"fmt"

	"extsched/internal/cluster"
	"extsched/internal/runner"
	"extsched/internal/workload"
)

// shardedBuild describes a sharded harness stack: len(speeds) FIFO
// backends at the given relative CPU speeds behind the named dispatch
// policy, with mplTotal the cluster-wide MPL (split across shards).
// Sampled dispatch ("jsq-d") draws from the run seed, so it reruns
// bit-identically; the plain policies ignore the seed.
func (o RunOpts) shardedBuild(setup workload.Setup, speeds []float64, dispatch string, mplTotal int) runner.Build {
	b := o.build(setup, mplTotal, "", workload.DBOptions{})
	b.Shards, b.Speeds, b.Dispatch = len(speeds), speeds, dispatch
	return b
}

// DispatchPoint is one measured sharded run.
type DispatchPoint struct {
	Policy     string
	Rho        float64 // offered load / aggregate capacity
	Lambda     float64
	Throughput float64
	MeanRT     float64
	P95        float64
	Shards     []runner.ShardResult
}

// RunDispatch measures one dispatch policy on a heterogeneous shard
// fleet under open Poisson arrivals at the given rate.
func RunDispatch(setup workload.Setup, speeds []float64, dispatch string, mplTotal int, lambda float64, opts RunOpts) (DispatchPoint, error) {
	st, err := runner.NewStack(opts.shardedBuild(setup, speeds, dispatch, mplTotal))
	if err != nil {
		return DispatchPoint{}, err
	}
	out, err := runner.Run(opts.ctx(), st, runner.Scenario{
		Warmup: opts.Warmup,
		Phases: []runner.Phase{{Kind: runner.PhaseOpen, Lambda: lambda, Duration: opts.Measure}},
	})
	if err != nil {
		return DispatchPoint{}, err
	}
	return DispatchPoint{
		Policy:     dispatch,
		Lambda:     lambda,
		Throughput: out.Total.Throughput,
		MeanRT:     out.Total.MeanRT,
		P95:        out.Total.P95,
		Shards:     out.Shards,
	}, nil
}

// DispatchFigure compares dispatch policies on a heterogeneous fleet:
// 4 shards of a Table 2 setup, one slowed to slowFactor of nominal
// speed, under an open arrival sweep from light load to near the
// fleet's aggregate capacity. Two series per policy: aggregate
// throughput and p95 response time against offered utilization.
//
// The paper's single-gate result says the MPL protects ONE backend;
// this figure is the multi-backend sequel: blind round-robin keeps
// feeding the slow shard its full share, so its queue — and the
// aggregate p95 — explodes long before capacity is reached, while
// queue- and work-aware policies (JSQ, least-work) route around the
// degradation and hold both throughput and tail latency.
func DispatchFigure(setupID int, slowFactor float64, opts RunOpts) (*Figure, error) {
	if slowFactor <= 0 || slowFactor > 1 {
		return nil, fmt.Errorf("experiments: slow factor %v outside (0,1]", slowFactor)
	}
	setup, err := workload.SetupByID(setupID)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(setup)
	// Per-shard nominal capacity from a no-MPL closed probe.
	base, err := RunClosed(setup, 0, "", workload.DBOptions{}, opts)
	if err != nil {
		return nil, err
	}
	ref := base.Throughput
	if ref <= 0 {
		return nil, fmt.Errorf("experiments: degenerate baseline throughput")
	}
	speeds := []float64{1, 1, 1, slowFactor}
	capacity := 0.0
	for _, s := range speeds {
		capacity += s * ref
	}
	const perShardMPL = 10
	mplTotal := perShardMPL * len(speeds)
	policies := []string{cluster.PolicyRoundRobin, cluster.PolicyJSQ, cluster.PolicyLeastWork}
	rhos := []float64{0.3, 0.5, 0.7, 0.85}
	type key struct{ p, r int }
	points, err := SweepContext(opts.ctx(), len(policies)*len(rhos), func(i int) (DispatchPoint, error) {
		k := key{p: i / len(rhos), r: i % len(rhos)}
		pt, err := RunDispatch(setup, speeds, policies[k.p], mplTotal, rhos[k.r]*capacity, opts)
		if err != nil {
			return DispatchPoint{}, err
		}
		pt.Rho = rhos[k.r]
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "dispatch",
		Title: fmt.Sprintf("Sharded dispatch: 4 shards of setup %d, one at %gx speed, MPL %d/shard",
			setupID, slowFactor, perShardMPL),
	}
	for pi, pol := range policies {
		tput := Series{Name: "tput " + pol}
		p95 := Series{Name: "p95 " + pol}
		for ri, rho := range rhos {
			pt := points[pi*len(rhos)+ri]
			tput.X = append(tput.X, rho)
			tput.Y = append(tput.Y, pt.Throughput)
			p95.X = append(p95.X, rho)
			p95.Y = append(p95.Y, pt.P95)
		}
		f.Series = append(f.Series, tput)
		f.Series = append(f.Series, p95)
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("per-shard nominal capacity %.2f tx/s; fleet capacity %.2f tx/s", ref, capacity),
		"x is offered load / fleet capacity; arrivals are open Poisson",
		"expect: rr feeds the slow shard its full share, so its p95 diverges at high rho; jsq/lwl route around it")
	return f, nil
}
