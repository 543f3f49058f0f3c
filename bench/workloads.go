package main

import (
	"fmt"

	"extsched"
	"extsched/gate"
)

// benchWorkload is one benchmark workload: a simulated scenario run through
// extsched.System, or live traffic through gate.Middleware.
type benchWorkload struct {
	name string
	sim  *simWorkload
	live *liveWorkload
}

func (w benchWorkload) run(o options, r *report) error {
	if w.sim != nil {
		return w.sim.run(w.name, o, r)
	}
	return w.live.run(o, r)
}

// workloads lists every workload; BENCHMARK.json records why each was
// chosen, and the tests check that the two lists agree.
var workloads = []benchWorkload{
	// The paper's closed system: setup 1's 1 GB pool holds the whole
	// database, so the host work is the DBMS model's CPU, lock and
	// pool-hit paths behind a 10-slot FIFO gate.
	{name: "closed-cpu", sim: &simWorkload{
		cfg:     extsched.Config{SetupID: 1, MPL: 10, Policy: extsched.PolicyFIFO, PercentileSamples: 4000},
		warmup:  20,
		measure: 1000,
		phase:   extsched.Phase{Kind: extsched.PhaseClosed, Clients: 100},
	}},
	// Open Poisson arrivals at 0.7 of four shards' capacity (4 x the
	// 39.9 tx/s no-MPL closed probe of setup 11), whose database is
	// larger than its pool: disk I/O, pool eviction, jsq routing and
	// per-shard P2 percentiles all do real work.
	{name: "open-io-sharded", sim: &simWorkload{
		cfg: extsched.Config{SetupID: 11, MPL: 16, PercentileSamples: 4000,
			Shards: extsched.ShardSpec{Count: 4, Dispatch: "jsq"}},
		warmup:         20,
		measure:        800,
		sampleInterval: 60,
		phase:          extsched.Phase{Kind: extsched.PhaseOpen, Lambda: 112},
	}},
	// Setup 2 overloaded at 1.2 x its 189.8 tx/s probe with bursty
	// arrivals from one aggressor tenant and fifteen small ones: the
	// gate's slow path (WFQ heap, strict partitions, deadline shedding,
	// the fairness controller, per-class reservoirs, snapshots) does
	// the work the DBMS model does on closed-cpu. The aggressor's 2 s
	// admission deadline keeps the overload at a steady state. There is
	// no warmup: events start with the window, and a warmup without the
	// deadline would leave a backlog whose draining dominates the tail.
	{name: "tenants-16", sim: &simWorkload{
		cfg:            extsched.Config{SetupID: 2, MPL: 16, Policy: extsched.PolicyWFQ, PercentileSamples: 4000},
		measure:        800,
		sampleInterval: 10,
		tenants:        tenants16(),
		fairness:       &extsched.FairnessSpec{Strict: true},
		phase: extsched.Phase{Kind: extsched.PhaseBurst, Lambda: 228, BurstFactor: 2,
			Events: []extsched.Event{{SetTenantDeadlines: map[string]float64{"aggressor": 2}}}},
	}},
	// Every request contends for one slot: the gate's mutex slow path,
	// its queue and the waiter handoff.
	{name: "live-queued", live: &liveWorkload{limit: 1, clients: 2}},
	// Admission never queues, so every request takes the lock-free CAS
	// fast path; a slow-path change should not move this workload.
	{name: "live-fastpath", live: &liveWorkload{limit: 64, clients: 2}},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// tenants16 is one aggressor with 40% of arrivals at weight 1, and
// fifteen tenants with 4% each at weight 4.
func tenants16() []extsched.TenantSpec {
	ts := []extsched.TenantSpec{{Name: "aggressor", Share: 0.4, Weight: 1}}
	for i := 1; i <= 15; i++ {
		ts = append(ts, extsched.TenantSpec{Name: fmt.Sprintf("t%02d", i), Share: 0.04, Weight: 4})
	}
	return ts
}

// liveWorkload is a closed loop of client goroutines sending requests
// through gate.Middleware to a handler that writes 200.
type liveWorkload struct {
	limit   int
	clients int
}

func (lw *liveWorkload) gateConfig() gate.Config {
	return gate.Config{Limit: lw.limit, Policy: gate.FIFO}
}
