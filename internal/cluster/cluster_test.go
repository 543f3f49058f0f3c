package cluster

import (
	"math/rand"
	"strings"
	"testing"

	"extsched/internal/autoscale"
	"extsched/internal/core"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/sim"
)

// TestJSQPickIsMinimal is the pure property behind the routing
// invariant: over random load vectors, JSQ always returns a member
// whose backlog equals the minimum — it never routes to a strictly
// longer queue — and ties break to the lowest index.
func TestJSQPickIsMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var p JSQ
	for trial := 0; trial < 2000; trial++ {
		loads := make([]Load, 1+rng.Intn(8))
		minB := int(^uint(0) >> 1)
		for i := range loads {
			loads[i] = Load{Backlog: rng.Intn(10), Work: rng.Float64() * 10, Speed: 1}
			if loads[i].Backlog < minB {
				minB = loads[i].Backlog
			}
		}
		pick := p.Pick(loads, core.ClassLow, rng.Float64())
		if loads[pick].Backlog != minB {
			t.Fatalf("trial %d: JSQ picked backlog %d, min is %d (loads %+v)",
				trial, loads[pick].Backlog, minB, loads)
		}
		for i := 0; i < pick; i++ {
			if loads[i].Backlog == minB {
				t.Fatalf("trial %d: JSQ picked %d but %d ties at %d", trial, pick, i, minB)
			}
		}
	}
}

// TestLeastWorkPickIsMinimal: same property for LWL over
// speed-normalized work.
func TestLeastWorkPickIsMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var p LeastWork
	for trial := 0; trial < 2000; trial++ {
		loads := make([]Load, 1+rng.Intn(8))
		for i := range loads {
			loads[i] = Load{Backlog: rng.Intn(10), Work: rng.Float64() * 10, Speed: 0.25 + rng.Float64()}
		}
		pick := p.Pick(loads, core.ClassLow, rng.Float64())
		for i, l := range loads {
			if normWork(l) < normWork(loads[pick]) {
				t.Fatalf("trial %d: LWL picked %d (%.3f) over %d (%.3f)",
					trial, pick, normWork(loads[pick]), i, normWork(l))
			}
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	p := &RoundRobin{}
	loads := make([]Load, 3)
	for i := 0; i < 9; i++ {
		if got := p.Pick(loads, core.ClassLow, 0); got != i%3 {
			t.Fatalf("pick %d = %d, want %d", i, got, i%3)
		}
	}
}

func TestAffinityPinsAndHandlesNegatives(t *testing.T) {
	var p Affinity
	loads := make([]Load, 3)
	for class := -5; class <= 5; class++ {
		got := p.Pick(loads, core.Class(class), 0)
		if got < 0 || got >= 3 {
			t.Fatalf("class %d picked out-of-range member %d", class, got)
		}
		want := ((class % 3) + 3) % 3
		if got != want {
			t.Fatalf("class %d -> member %d, want %d", class, got, want)
		}
	}
}

func TestNewPolicyNames(t *testing.T) {
	for _, name := range []string{"", "rr", "jsq", "lwl", "affinity", "jsq-d", "lwl-d", "jsq-d:3", "lwl-d:8"} {
		if _, err := NewPolicy(name); err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
		}
	}
	for _, name := range []string{"bogus", "jsq-d:0", "lwl-d:nope", "rr:2"} {
		if _, err := NewPolicy(name); err == nil {
			t.Errorf("NewPolicy accepted %q", name)
		}
	}
}

func TestSplitMPL(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(8)
		total := rng.Intn(40)
		parts := SplitMPL(total, n)
		if len(parts) != n {
			t.Fatalf("len = %d, want %d", len(parts), n)
		}
		sum, minP, maxP := 0, parts[0], parts[0]
		for _, m := range parts {
			sum += m
			if m < minP {
				minP = m
			}
			if m > maxP {
				maxP = m
			}
		}
		if total <= 0 {
			if sum != 0 {
				t.Fatalf("total %d: parts %v not all zero", total, parts)
			}
			continue
		}
		if minP < 1 {
			t.Fatalf("total %d over %d shards: a shard got %d (accidentally unlimited)", total, n, minP)
		}
		want := total
		if want < n {
			want = n
		}
		if sum != want {
			t.Fatalf("total %d over %d shards: parts %v sum to %d, want %d", total, n, parts, sum, want)
		}
		if maxP-minP > 1 {
			t.Fatalf("total %d over %d shards: uneven split %v", total, n, parts)
		}
	}
}

// testCluster builds n real shards (tiny DBMS each) on one engine.
func testCluster(t *testing.T, n int, policy Policy) (*sim.Engine, *Dispatcher) {
	t.Helper()
	eng := sim.NewEngine()
	shards := make([]Shard, n)
	for i := range shards {
		db, err := dbms.New(eng, dbms.Config{CPUs: 1, Disks: 1, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = Shard{FE: dbfe.New(eng, db, 2, nil), DB: db}
	}
	d, err := NewDispatcher(policy, shards)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

// profile returns a minimal one-op transaction.
func profile(rng *rand.Rand, key uint64) dbms.TxnProfile {
	work := 0.001 + 0.01*rng.Float64()
	return dbms.TxnProfile{
		Ops:             []dbms.Op{{Key: key, CPUWork: work}},
		EstimatedDemand: work,
	}
}

// TestDispatcherRandomOpsInvariants drives a real 3-shard cluster with
// a randomized schedule of submissions, engine steps, MPL moves, speed
// changes and policy flips (seeded math/rand), checking after every
// step that:
//
//   - JSQ routes only to minimum-backlog shards (checked at each
//     submission while JSQ is active);
//   - arrivals are conserved: routed = completed + inside + queued,
//     per shard and in aggregate;
//   - the dispatcher's aggregate views equal the sum of shard views.
func TestDispatcherRandomOpsInvariants(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		runDispatcherProperty(t, seed)
	}
}

func runDispatcherProperty(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng, d := testCluster(t, 3, JSQ{})
	jsqActive := true
	completedPerShard := make([]uint64, 3)
	d.OnComplete = func(shard int, tx *dbfe.Txn) { completedPerShard[shard]++ }

	var key uint64
	check := func(op string) {
		shards := d.Shards()
		routed := d.Routed()
		var inside, queued int
		for i, sh := range shards {
			inside += sh.FE.Inside()
			queued += sh.FE.QueueLen()
			got := completedPerShard[i] + uint64(sh.FE.Inside()) + uint64(sh.FE.QueueLen())
			if got != routed[i] {
				t.Fatalf("seed %d after %s: shard %d conservation: completed %d + inside %d + queued %d != routed %d",
					seed, op, i, completedPerShard[i], sh.FE.Inside(), sh.FE.QueueLen(), routed[i])
			}
		}
		if d.Inside() != inside || d.QueueLen() != queued {
			t.Fatalf("seed %d after %s: aggregate views (%d,%d) != shard sums (%d,%d)",
				seed, op, d.Inside(), d.QueueLen(), inside, queued)
		}
	}

	for op := 0; op < 600; op++ {
		switch r := rng.Float64(); {
		case r < 0.55: // submit, verifying the routing invariant
			loads := d.Loads()
			before := d.Routed()
			key++
			d.Submit(profile(rng, key))
			after := d.Routed()
			picked := -1
			for i := range after {
				if after[i] != before[i] {
					picked = i
					break
				}
			}
			if picked < 0 {
				t.Fatalf("seed %d: submission routed nowhere", seed)
			}
			if jsqActive {
				minB := loads[0].Backlog
				for _, l := range loads {
					if l.Backlog < minB {
						minB = l.Backlog
					}
				}
				if loads[picked].Backlog != minB {
					t.Fatalf("seed %d: JSQ routed to shard %d with backlog %d, min %d",
						seed, picked, loads[picked].Backlog, minB)
				}
			}
			check("submit")
		case r < 0.85: // advance time
			eng.Run(eng.Now() + 0.02*rng.Float64())
			check("run")
		case r < 0.92:
			d.SetMPL(rng.Intn(9))
			check("setmpl")
		case r < 0.97:
			if err := d.SetSpeed(rng.Intn(3), 0.25+rng.Float64()); err != nil {
				t.Fatal(err)
			}
			check("setspeed")
		default:
			if rng.Intn(2) == 0 {
				d.SetPolicy(JSQ{})
				jsqActive = true
			} else {
				d.SetPolicy(&RoundRobin{})
				jsqActive = false
			}
			check("setpolicy")
		}
	}
	// Drain and verify total conservation.
	d.SetMPL(0)
	eng.Run(eng.Now() + 60)
	check("drain")
	if d.Inside() != 0 || d.QueueLen() != 0 {
		t.Fatalf("seed %d: cluster not drained: inside %d queued %d", seed, d.Inside(), d.QueueLen())
	}
	var total uint64
	for _, c := range completedPerShard {
		total += c
	}
	if total != key {
		t.Fatalf("seed %d: %d submitted, %d completed after drain", seed, key, total)
	}
	var windows uint64
	for _, sh := range d.Shards() {
		windows += sh.FE.Metrics().Completed
	}
	if windows != total {
		t.Fatalf("seed %d: shard metrics windows report %d completions, want %d", seed, windows, total)
	}
}

func TestDispatcherValidation(t *testing.T) {
	if _, err := NewDispatcher(nil, nil); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := NewDispatcher(nil, []Shard{{}}); err == nil {
		t.Error("shard without frontend accepted")
	}
	_, d := testCluster(t, 2, nil)
	if err := d.SetSpeed(5, 1); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := d.SetSpeed(0, 0); err == nil {
		t.Error("zero speed accepted")
	}
	if d.PolicyName() != PolicyRoundRobin {
		t.Errorf("nil policy defaulted to %q, want rr", d.PolicyName())
	}
}

// TestMPLReportsRequestedValue: MPL() echoes the requested cluster-
// wide limit even when SplitMPL's one-slot-per-shard floor clamps the
// effective total — a controller probing below the shard count must
// observe its own actuation or it livelocks re-issuing the decrease.
func TestMPLReportsRequestedValue(t *testing.T) {
	_, d := testCluster(t, 3, nil) // shards built with MPL 2 each
	if got := d.MPL(); got != 6 {
		t.Fatalf("initial MPL = %d, want 6 (derived from shard gates)", got)
	}
	d.SetMPL(2) // below the shard count: effective 3, requested 2
	if got := d.MPL(); got != 2 {
		t.Errorf("MPL after SetMPL(2) = %d, want the requested 2", got)
	}
	for i, sh := range d.Shards() {
		if sh.FE.MPL() != 1 {
			t.Errorf("shard %d MPL = %d, want 1 (floor)", i, sh.FE.MPL())
		}
	}
	d.SetMPL(0)
	if got := d.MPL(); got != 0 {
		t.Errorf("MPL after SetMPL(0) = %d, want 0", got)
	}
}

// TestWorkSettledBeforeResubmit pins the least-work refund ordering:
// a closed-loop client resubmitting from its own completion callback
// must see the completing shard's outstanding work already settled,
// so LWL routes back to the shard that just freed capacity.
func TestWorkSettledBeforeResubmit(t *testing.T) {
	eng, d := testCluster(t, 2, LeastWork{})
	rng := rand.New(rand.NewSource(9))
	// Charge shard 1 with a queued txn so it stays busier throughout.
	d.Submit(dbms.TxnProfile{Ops: []dbms.Op{{Key: 1, CPUWork: 5}}, EstimatedDemand: 5})  // -> shard 0 (tie)
	d.Submit(dbms.TxnProfile{Ops: []dbms.Op{{Key: 2, CPUWork: 10}}, EstimatedDemand: 9}) // -> shard 1
	var sawWork float64 = -1
	p := profile(rng, 3) // small txn, routed to shard 0 (work 5+d vs 9)
	d.SubmitCB(dbms.TxnProfile{Ops: p.Ops, EstimatedDemand: 1}, func(tx *dbfe.Txn) {
		// At this instant the completed txn's charge must be refunded.
		sawWork = d.Loads()[0].Work
	})
	eng.Run(eng.Now() + 2) // small txn (<= ~0.011s service) completes first
	if sawWork < 0 {
		t.Fatal("completion callback never ran")
	}
	// Shard 0's work inside the callback is the remaining big txn's 5,
	// not 5+1: the completed charge was settled before the callback.
	if sawWork != 5 {
		t.Errorf("work seen in completion callback = %v, want 5 (refund must precede callback)", sawWork)
	}
}

// TestDispatcherChurnInvariants drives a real fleet through a
// randomized schedule of submissions, engine steps, crashes,
// recoveries, drains and shard additions with resubmit recovery armed
// (seeded math/rand), checking after every step that:
//
//   - no transaction is dispatched to a non-Up shard while an Up shard
//     exists (and the draining fallback / terminal failure ordering
//     holds when none does);
//   - arrivals are conserved per shard: routed = completed + inside +
//     queued + withdrawn-by-crash;
//   - logical transactions are conserved in aggregate: submitted =
//     finished + lost + inside + queued + awaiting-retry;
//   - no transaction ever exceeds its retry budget.
func TestDispatcherChurnInvariants(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		runChurnProperty(t, seed, "jsq")
	}
}

// TestDispatcherChurnInvariantsSampled re-runs the full churn property
// battery under the sampled policies: the eligibility check inside
// (never route to a non-Up shard while an Up one exists) is exactly the
// "jsq-d never routes to a down/draining shard" guarantee, and the
// conservation balances must survive sampling just as they do full
// scans.
func TestDispatcherChurnInvariantsSampled(t *testing.T) {
	for _, policy := range []string{"jsq-d:2", "lwl-d:3"} {
		for seed := int64(1); seed <= 3; seed++ {
			runChurnProperty(t, seed, policy)
		}
	}
}

func runChurnProperty(t *testing.T, seed int64, policyName string) {
	t.Helper()
	const budget = 2
	rng := rand.New(rand.NewSource(seed))
	pol, err := NewPolicySeeded(policyName, uint64(seed))
	if err != nil {
		t.Fatal(err)
	}
	eng, d := testCluster(t, 3, pol)
	// An autoscale controller drives some of the lifecycle ops below,
	// exactly as the runner's tick does: recover-or-add on ScaleUp,
	// drain-highest on ScaleDown.
	asc, err := autoscale.New(autoscale.Config{
		Min: 1, Max: 6, Interval: 0.05,
		HighWater: 4, LowWater: 1,
		BreachWindows: 1, CalmWindows: 2, Cooldown: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetRecovery(eng, RecoveryPolicy{Resubmit: true, RetryBudget: budget, Seed: uint64(seed)}); err != nil {
		t.Fatal(err)
	}
	completed := make([]uint64, 3)
	d.OnComplete = func(shard int, tx *dbfe.Txn) {
		for shard >= len(completed) {
			completed = append(completed, 0)
		}
		completed[shard]++
	}
	var submitted, done, lost uint64
	cb := func(tx *dbfe.Txn) {
		if tx.Attempts > budget {
			t.Fatalf("seed %d: txn finished after %d attempts, budget %d", seed, tx.Attempts, budget)
		}
		if tx.Item.WasFailed() {
			lost++
		} else {
			done++
		}
	}
	check := func(op string) {
		routed := d.Routed()
		shards := d.Shards()
		var inside, queued uint64
		for i, sh := range shards {
			in, q := uint64(sh.FE.Inside()), uint64(sh.FE.QueueLen())
			inside += in
			queued += q
			var comp uint64
			if i < len(completed) {
				comp = completed[i]
			}
			if got := comp + in + q + sh.FE.Failed(); got != routed[i] {
				t.Fatalf("seed %d after %s: shard %d conservation: completed %d + inside %d + queued %d + withdrawn %d != routed %d",
					seed, op, i, comp, in, q, sh.FE.Failed(), routed[i])
			}
		}
		if got := done + lost + inside + queued + uint64(d.PendingRetries()); got != submitted {
			t.Fatalf("seed %d after %s: logical conservation: done %d + lost %d + inside %d + queued %d + pending %d != submitted %d",
				seed, op, done, lost, inside, queued, d.PendingRetries(), submitted)
		}
		if d.Failed() != lost {
			t.Fatalf("seed %d after %s: Failed() = %d, callbacks saw %d terminal losses",
				seed, op, d.Failed(), lost)
		}
	}

	var key uint64
	addSeq := 0
	for op := 0; op < 800; op++ {
		n := d.NumShards()
		switch r := rng.Float64(); {
		case r < 0.5: // submit, verifying the eligibility invariant
			states := d.States()
			before := d.Routed()
			key++
			submitted++
			tx := d.SubmitCB(profile(rng, key), cb)
			after := d.Routed()
			picked := -1
			for i := range after {
				if after[i] != before[i] {
					picked = i
					break
				}
			}
			upExists := false
			for _, s := range states {
				if s == ShardUp {
					upExists = true
				}
			}
			switch {
			case picked < 0:
				if !tx.Item.WasFailed() {
					t.Fatalf("seed %d: submission routed nowhere but not failed", seed)
				}
			case upExists && states[picked] != ShardUp:
				t.Fatalf("seed %d: routed to shard %d in state %s while an Up shard exists",
					seed, picked, states[picked])
			case !upExists && states[picked] != ShardDraining:
				t.Fatalf("seed %d: no Up shard, yet routed to shard %d in state %s",
					seed, picked, states[picked])
			}
			check("submit")
		case r < 0.8: // advance time (backoff timers fire here)
			eng.Run(eng.Now() + 0.05*rng.Float64())
			check("run")
		case r < 0.86:
			if err := d.FailShard(rng.Intn(n)); err != nil {
				t.Fatal(err)
			}
			check("fail")
		case r < 0.92:
			if err := d.RecoverShard(rng.Intn(n)); err != nil {
				t.Fatal(err)
			}
			check("recover")
		case r < 0.95:
			// Removing a down shard is a (deliberate) error; any other
			// failure is a bug.
			if err := d.RemoveShard(rng.Intn(n)); err != nil && !strings.Contains(err.Error(), "down") {
				t.Fatal(err)
			}
			check("remove")
		case r < 0.965:
			if n >= 6 {
				continue
			}
			addSeq++
			db, err := dbms.New(eng, dbms.Config{CPUs: 1, Disks: 1, Seed: uint64(1000*seed) + uint64(addSeq)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.AddShard(Shard{FE: dbfe.New(eng, db, 2, nil), DB: db}); err != nil {
				t.Fatal(err)
			}
			check("add")
		case r < 0.985: // one autoscaler evaluation, acted on like the runner does
			up := d.UpCount()
			sig := 0.0
			if up > 0 {
				sig = float64(d.Inside()+d.QueueLen()) / float64(up)
			}
			switch asc.Observe(eng.Now(), up, sig) {
			case autoscale.ScaleUp:
				recovered := false
				for i := 0; i < d.NumShards(); i++ {
					if d.State(i) == ShardDown {
						if err := d.RecoverShard(i); err != nil {
							t.Fatal(err)
						}
						recovered = true
						break
					}
				}
				if !recovered && d.NumShards() < 6 {
					addSeq++
					db, err := dbms.New(eng, dbms.Config{CPUs: 1, Disks: 1, Seed: uint64(2000*seed) + uint64(addSeq)})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := d.AddShard(Shard{FE: dbfe.New(eng, db, 2, nil), DB: db}); err != nil {
						t.Fatal(err)
					}
				}
			case autoscale.ScaleDown:
				for i := d.NumShards() - 1; i >= 0; i-- {
					if d.State(i) == ShardUp {
						if err := d.RemoveShard(i); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			}
			check("autoscale")
		default:
			d.SetMPL(rng.Intn(9))
			check("setmpl")
		}
	}

	// Drain: bring every shard back, lift the limit, and run past the
	// longest possible backoff chain. Every logical txn must finish or
	// be accounted a terminal loss.
	for i := 0; i < d.NumShards(); i++ {
		if d.State(i) == ShardDown {
			if err := d.RecoverShard(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.SetMPL(0)
	eng.Run(eng.Now() + 120)
	check("drain")
	if d.Inside() != 0 || d.QueueLen() != 0 || d.PendingRetries() != 0 {
		t.Fatalf("seed %d: not drained: inside %d queued %d pending %d",
			seed, d.Inside(), d.QueueLen(), d.PendingRetries())
	}
	if done+lost != submitted {
		t.Fatalf("seed %d: %d submitted, %d finished + %d lost", seed, submitted, done, lost)
	}
}
