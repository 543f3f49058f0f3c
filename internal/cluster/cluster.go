package cluster

import (
	"fmt"

	"extsched/internal/core"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/sim"
)

// ShardState is a shard's lifecycle state. New work routes only to Up
// shards; a Draining shard finishes what it holds and then goes Down;
// a Down shard holds nothing (its outstanding work was failed over or
// lost when it went down) and receives nothing until recovered.
type ShardState uint8

const (
	// ShardUp is the normal serving state.
	ShardUp ShardState = iota
	// ShardDraining takes no new work but keeps serving its queue and
	// in-flight transactions; it transitions to ShardDown on its own
	// once empty (graceful removal).
	ShardDraining
	// ShardDown is a crashed or removed shard: unavailable, empty, and
	// skipped by every dispatch decision.
	ShardDown
)

// String names the state for reports ("up", "draining", "down").
func (s ShardState) String() string {
	switch s {
	case ShardUp:
		return "up"
	case ShardDraining:
		return "draining"
	case ShardDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// RecoveryPolicy configures what happens to the in-flight and queued
// work a shard holds when it fails. The zero value sheds: the work is
// lost, counted in Failed, and each txn's submitter callback fires with
// Item.WasFailed reporting true (so closed-loop clients cycle).
type RecoveryPolicy struct {
	// Resubmit, when true, re-routes failed work to surviving shards
	// through the normal dispatch path after a capped exponential
	// backoff, instead of shedding it.
	Resubmit bool
	// RetryBudget is the maximum number of recovery attempts per
	// logical transaction (must be >= 1 when Resubmit is set); a txn
	// whose budget is exhausted is shed terminally.
	RetryBudget int
	// BackoffBase and BackoffCap bound the backoff schedule: attempt k
	// waits min(BackoffCap, BackoffBase·2^(k−1)) seconds, scaled by a
	// deterministic jitter factor in [0.5, 1). Defaults 0.05 s / 2 s.
	BackoffBase, BackoffCap float64
	// Seed drives the jitter stream (deterministic given the seed and
	// the failure event order, so churn runs rerun bit-identically).
	Seed uint64
}

func (rp RecoveryPolicy) withDefaults() RecoveryPolicy {
	if rp.BackoffBase <= 0 {
		rp.BackoffBase = 0.05
	}
	if rp.BackoffCap <= 0 {
		rp.BackoffCap = 2
	}
	return rp
}

// ShardSeed derives shard i's backend seed from the run seed: distinct
// per shard (replicas must not execute in RNG lockstep) and stable
// across runs. It is THE seed derivation — extsched stack assembly and
// the experiment drivers both use it, so figure runs and API runs with
// the same seed build identical fleets.
func ShardSeed(seed uint64, i int) uint64 {
	return seed ^ (0x9e3779b97f4a7c15 * uint64(i+1))
}

// Shard is one dispatch target: an MPL-gated frontend over its own
// simulated backend. Speed is the shard's relative CPU speed (1 =
// nominal); the dispatcher keeps it in sync with the DB's CPUSpeed so
// work-aware policies can normalize.
type Shard struct {
	FE    *dbfe.Frontend
	DB    *dbms.DB
	Speed float64
}

// Dispatcher fans one admitted transaction stream out across shards.
// It satisfies workload.Sink (drivers submit to it exactly as they
// would to a single frontend) and controller.Gate (the feedback
// controller tunes the cluster-wide MPL through it), which is what
// lets every existing scenario construct — phases, events, AutoTune —
// run unchanged against a fleet.
//
// Like the rest of the simulator it is single-goroutine: all entry
// points run inside the engine's event loop, and every routing
// decision is a pure function of simulation state plus the policy's
// own deterministic state, so multi-shard runs rerun bit-identically.
//
// # Lifecycle and faults
//
// Each shard carries a ShardState. Dispatch policies only ever see the
// Up shards (the load view handed to Pick is filtered, and the picked
// index mapped back), so no transaction is ever routed to a draining
// or down shard. FailShard crashes a shard: its queued and in-flight
// work is withdrawn (counted in the gate's Failed counters) and handed
// to the RecoveryPolicy — resubmitted to survivors with deterministic
// capped exponential backoff and a per-txn retry budget, or shed
// terminally (the submitter's callback fires either way, so
// closed-loop clients never stall). RemoveShard drains gracefully;
// AddShard grows the fleet mid-run; RecoverShard returns a down shard
// to service. Every lifecycle change re-splits the requested
// cluster-wide MPL across the Up shards (SplitMPL), so survivors
// absorb a dead shard's capacity and return it on recovery.
type Dispatcher struct {
	shards []Shard
	policy Policy
	// state tracks each shard's lifecycle (index-parallel to shards;
	// slots are never deleted, so shard indices are stable for the
	// lifetime of the dispatcher — a removed shard's index goes Down
	// and stays).
	state []ShardState
	// eng schedules recovery backoff timers and provides the clock for
	// availability accounting; set by SetRecovery, nil until then
	// (lifecycle operations require it).
	eng *sim.Engine
	rec RecoveryPolicy
	rng *sim.RNG
	// upSince / upAccum track per-shard availability: upAccum is the
	// accumulated up-seconds through the last transition, upSince the
	// instant the shard last became (or stayed) non-Down. Draining
	// counts as up — the shard is still serving.
	upSince, upAccum []float64
	// doneFn caches one completion wrapper per shard (the wrapper only
	// needs the shard index, so submissions allocate no closure).
	doneFn []func(*dbfe.Txn)
	// upIdx caches the Up shards' indices in ascending order; upDirty
	// marks it stale. Lifecycle transitions are rare and dispatch is
	// per-transaction, so the cache turns the eligibility filter from
	// O(N) per pick into O(N) per transition — the prerequisite for
	// sampled policies' O(d) routing at N>=1000.
	upIdx   []int
	upDirty bool
	// loadAtFn is the cached method value handed to IndexedPolicy picks
	// (bound once so the per-transaction path allocates nothing).
	loadAtFn func(int) Load
	// pendingRetry counts txns sitting in a recovery backoff — failed
	// off a dead shard, not yet resubmitted. They are part of the
	// fleet's conservation balance: accepted == completed + inside +
	// queued + pendingRetry + canceled + shed + failed.
	pendingRetry int
	// failedTxns counts terminal losses (shed-mode crash losses, retry
	// budgets exhausted, submissions that found no live shard);
	// resubmitted counts logical txns resubmitted at least once;
	// retries counts resubmission events.
	failedTxns, resubmitted, retries uint64
	// mpl is the cluster-wide limit last requested via SetMPL (or
	// derived from the shard gates at construction). MPL() reports it
	// as-is so a feedback controller always observes its own
	// actuations; the EFFECTIVE fleet cap is max(mpl, len(shards))
	// when mpl > 0, because every shard keeps at least one slot (see
	// SplitMPL).
	mpl int
	// work tracks outstanding size-hint seconds per shard (routed and
	// not yet completed, at unit speed) for the least-work policy.
	work []float64
	// scratch is the reusable per-pick load view (the dispatcher is
	// single-goroutine, like the engine it runs under), keeping the
	// per-transaction routing path allocation-free.
	scratch []Load
	// routed counts arrivals routed to each shard (drops excluded).
	routed []uint64
	// OnComplete, if set, observes every completion with the index of
	// the shard that executed it. Set before traffic flows.
	OnComplete func(shard int, t *dbfe.Txn)
	// OnDrop, if set, observes admission-control rejections (shard
	// queue limits) with the shard that rejected.
	OnDrop func(shard int, t *dbfe.Txn)
}

// NewDispatcher builds a dispatcher over shards (at least one) with
// the given policy (nil = round-robin). The dispatcher takes ownership
// of each shard frontend's OnComplete/OnDrop hooks; zero or negative
// shard speeds default to 1.
func NewDispatcher(policy Policy, shards []Shard) (*Dispatcher, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: dispatcher needs at least one shard")
	}
	if policy == nil {
		policy = &RoundRobin{}
	}
	d := &Dispatcher{
		shards:  append([]Shard(nil), shards...),
		policy:  policy,
		state:   make([]ShardState, len(shards)),
		work:    make([]float64, len(shards)),
		scratch: make([]Load, len(shards)),
		routed:  make([]uint64, len(shards)),
		upSince: make([]float64, len(shards)),
		upAccum: make([]float64, len(shards)),
		doneFn:  make([]func(*dbfe.Txn), len(shards)),
		upIdx:   make([]int, 0, len(shards)),
		upDirty: true,
	}
	d.loadAtFn = d.loadAtUp
	for i := range d.shards {
		if d.shards[i].FE == nil {
			return nil, fmt.Errorf("cluster: shard %d has no frontend", i)
		}
		if d.shards[i].Speed <= 0 {
			d.shards[i].Speed = 1
		}
		d.installHooks(i)
	}
	// Derive the initial cluster-wide limit from the shard gates.
	for i := range d.shards {
		m := d.shards[i].FE.MPL()
		if m == 0 {
			d.mpl = 0
			break
		}
		d.mpl += m
	}
	return d, nil
}

// installHooks takes ownership of shard i's frontend hooks and builds
// its per-shard completion wrapper.
func (d *Dispatcher) installHooks(i int) {
	fe := d.shards[i].FE
	d.doneFn[i] = func(t *dbfe.Txn) {
		// The work refund must land here, BEFORE the submitter's own
		// callback: a closed-loop client resubmitting from its callback
		// must see the just-freed shard's work already settled, or
		// least-work routing would be steered away from exactly the
		// shard that freed capacity.
		d.settle(i, t.Item.SizeHint)
		if t.UserCB != nil {
			t.UserCB(t)
		}
	}
	fe.OnComplete = func(t *dbfe.Txn) {
		if d.OnComplete != nil {
			d.OnComplete(i, t)
		}
		d.maybeFinishDrain(i)
	}
	fe.OnDrop = func(t *dbfe.Txn) {
		// The drop fires synchronously inside SubmitCB, after the
		// routing charge there: refund it. (The per-txn completion
		// wrapper never runs for a dropped txn.)
		d.settle(i, t.Item.SizeHint)
		d.routed[i]--
		if d.OnDrop != nil {
			d.OnDrop(i, t)
		}
	}
	fe.OnShed = func(t *dbfe.Txn) {
		// A shed can be what empties a draining shard.
		d.maybeFinishDrain(i)
	}
}

// settle refunds a shard's outstanding-work charge.
func (d *Dispatcher) settle(i int, size float64) {
	d.work[i] -= size
	if d.work[i] < 0 {
		d.work[i] = 0
	}
}

// NumShards returns the shard count.
func (d *Dispatcher) NumShards() int { return len(d.shards) }

// Shards returns a copy of the shard descriptors.
func (d *Dispatcher) Shards() []Shard { return append([]Shard(nil), d.shards...) }

// PolicyName returns the active dispatch policy's name.
func (d *Dispatcher) PolicyName() string { return d.policy.Name() }

// SetPolicy switches the dispatch policy mid-run (scenario SetDispatch
// events). nil resets to round-robin.
func (d *Dispatcher) SetPolicy(p Policy) {
	if p == nil {
		p = &RoundRobin{}
	}
	d.policy = p
}

// SetSpeed changes shard i's relative CPU speed: the shard's DB slows
// or recovers for CPU bursts starting after the call, and work-aware
// policies renormalize immediately. Speed models degradation (a shard
// limping at 0.25x), not failure — an outright crash is FailShard,
// which withdraws the shard's work and hands it to the recovery
// policy. Speed must stay positive; a zero-speed shard would strand
// admitted work forever.
func (d *Dispatcher) SetSpeed(i int, speed float64) error {
	if i < 0 || i >= len(d.shards) {
		return fmt.Errorf("cluster: shard %d out of range [0,%d)", i, len(d.shards))
	}
	if speed <= 0 {
		return fmt.Errorf("cluster: shard speed %v must be positive", speed)
	}
	d.shards[i].Speed = speed
	if d.shards[i].DB != nil {
		d.shards[i].DB.SetCPUSpeed(speed)
	}
	return nil
}

// loadsInto fills the reusable scratch view for one pick.
func (d *Dispatcher) loadsInto() []Load {
	loads := d.scratch[:len(d.shards)]
	for i := range d.shards {
		fe := d.shards[i].FE
		loads[i] = Load{
			Backlog: fe.QueueLen() + fe.Inside(),
			Work:    d.work[i],
			Speed:   d.shards[i].Speed,
		}
	}
	return loads
}

// Loads snapshots the per-shard load views a dispatch decision sees.
func (d *Dispatcher) Loads() []Load {
	return append([]Load(nil), d.loadsInto()...)
}

// Routed returns the cumulative arrivals routed to each shard.
func (d *Dispatcher) Routed() []uint64 { return append([]uint64(nil), d.routed...) }

// Submit routes a transaction to a shard chosen by the policy.
func (d *Dispatcher) Submit(p dbms.TxnProfile) *dbfe.Txn {
	return d.SubmitCB(p, nil)
}

// SubmitCB is Submit with a per-transaction completion callback. The
// routing decision is made at submission time from the Up shards'
// current loads (draining and down shards are skipped); under a shard
// queue limit the transaction may still be dropped by the chosen shard
// (counted there, reported to OnDrop — admission control is per shard,
// only crashes re-route). When no shard is Up the txn falls back to
// the lowest-index draining shard; when the whole fleet is down it
// fails terminally: the callback fires with Item.WasFailed true and
// the loss is counted in Failed.
func (d *Dispatcher) SubmitCB(p dbms.TxnProfile, cb func(*dbfe.Txn)) *dbfe.Txn {
	i := d.pickShard(core.Class(p.Class), p.EstimatedDemand)
	if i < 0 {
		t := &dbfe.Txn{Profile: p, UserCB: cb}
		d.failTerminally(t)
		return t
	}
	return d.submitTo(i, p, cb)
}

// submitTo routes one txn to shard i, charging the routing accounting.
func (d *Dispatcher) submitTo(i int, p dbms.TxnProfile, cb func(*dbfe.Txn)) *dbfe.Txn {
	d.work[i] += p.EstimatedDemand
	d.routed[i]++
	t := d.shards[i].FE.SubmitCB(p, d.doneFn[i])
	// Safe after SubmitCB: the txn's own callbacks cannot have fired
	// yet (completions are asynchronous engine events, and a fresh
	// submission can never be past its own admission deadline).
	t.UserCB = cb
	return t
}

// upShards returns the cached ascending list of Up shard indices,
// rebuilding it after a lifecycle transition marked it stale.
func (d *Dispatcher) upShards() []int {
	if d.upDirty {
		d.upIdx = d.upIdx[:0]
		for i := range d.shards {
			if d.state[i] == ShardUp {
				d.upIdx = append(d.upIdx, i)
			}
		}
		d.upDirty = false
	}
	return d.upIdx
}

// UpCount returns the number of Up shards — the fleet size an
// autoscaler reasons about (draining and down shards are capacity
// already leaving or gone).
func (d *Dispatcher) UpCount() int { return len(d.upShards()) }

// loadAtUp reads eligible member j's load (j indexes upIdx, the
// filtered view an IndexedPolicy picks over).
func (d *Dispatcher) loadAtUp(j int) Load {
	i := d.upIdx[j]
	fe := d.shards[i].FE
	return Load{
		Backlog: fe.QueueLen() + fe.Inside(),
		Work:    d.work[i],
		Speed:   d.shards[i].Speed,
	}
}

// pickShard asks the policy for a shard, showing it only the eligible
// (Up) shards and mapping the pick back to a real index. With no Up
// shard it falls back to the lowest-index Draining shard (still
// serving); -1 means the whole fleet is down.
//
// Policies implementing IndexedPolicy (the sampled jsq-d/lwl-d) take
// the O(d) path: no load view is materialized, only the d sampled
// members are read. Full-scan policies get the identical filtered
// []Load they always did, so existing runs stay bit-identical.
func (d *Dispatcher) pickShard(class core.Class, size float64) int {
	up := d.upShards()
	if len(up) == 0 {
		for i := range d.shards {
			if d.state[i] == ShardDraining {
				return i
			}
		}
		return -1
	}
	if ip, ok := d.policy.(IndexedPolicy); ok {
		j := ip.PickIndexed(len(up), d.loadAtFn, class, size)
		if j < 0 || j >= len(up) {
			panic(fmt.Sprintf("cluster: policy %s picked member %d of %d", d.policy.Name(), j, len(up)))
		}
		return up[j]
	}
	loads := d.scratch[:0]
	for _, i := range up {
		fe := d.shards[i].FE
		loads = append(loads, Load{
			Backlog: fe.QueueLen() + fe.Inside(),
			Work:    d.work[i],
			Speed:   d.shards[i].Speed,
		})
	}
	j := d.policy.Pick(loads, class, size)
	if j < 0 || j >= len(up) {
		panic(fmt.Sprintf("cluster: policy %s picked member %d of %d", d.policy.Name(), j, len(up)))
	}
	return up[j]
}

// Pick returns the shard the active policy would route a transaction
// of the given class and size hint to right now, WITHOUT submitting
// anything (-1 = whole fleet down). It is the dry-run entry the
// dispatch benchmarks use to measure routing cost in isolation; note
// that stateful policies (round-robin's cursor, sampled policies' RNG
// stream) still advance.
func (d *Dispatcher) Pick(class core.Class, size float64) int {
	return d.pickShard(class, size)
}

// failTerminally accounts and delivers a terminal loss: work the
// recovery policy gave up on (or that had no live shard to go to).
func (d *Dispatcher) failTerminally(t *dbfe.Txn) {
	t.Item.MarkFailed()
	d.failedTxns++
	if t.UserCB != nil {
		t.UserCB(t)
	}
}

// SplitMPL distributes a cluster-wide MPL across n shards: an even
// share each, the remainder to the lowest indices, and at least 1 per
// shard when total > 0 (an MPL of 0 means unlimited, which a nonzero
// total must never silently grant — so the effective total is
// max(total, n)). total <= 0 returns all zeros (every shard
// unlimited).
func SplitMPL(total, n int) []int {
	out := make([]int, n)
	if total <= 0 {
		return out
	}
	base, rem := total/n, total%n
	for i := range out {
		m := base
		if i < rem {
			m++
		}
		if m < 1 {
			m = 1
		}
		out[i] = m
	}
	return out
}

// MPL returns the cluster-wide limit as last requested (0 =
// unlimited). It deliberately reports the REQUESTED value, not the
// sum of shard limits: SplitMPL floors every shard at one slot, so a
// request below the shard count is physically clamped to it — but a
// feedback controller probing downward must still observe its own
// actuation, or it would livelock re-issuing the same decrease
// forever.
func (d *Dispatcher) MPL() int { return d.mpl }

// SetMPL distributes a cluster-wide limit across the Up shards per
// SplitMPL (each shard keeps at least one slot, so the effective
// fleet cap is max(total, up-shards) when total > 0). This is the
// feedback controller's actuator: the loop tunes one number and the
// dispatcher keeps the fleet balanced. Draining shards keep the limit
// they had (they need slots to finish draining); down shards hold no
// work, so their gate value is irrelevant until recovery re-splits.
func (d *Dispatcher) SetMPL(total int) {
	if total < 0 {
		total = 0
	}
	d.mpl = total
	d.resplit()
}

// resplit redistributes the requested cluster-wide MPL across the Up
// shards — called on SetMPL and on every lifecycle transition, which
// is how survivors absorb a dead shard's share and hand it back on
// recovery.
func (d *Dispatcher) resplit() {
	idx := d.upShards()
	if len(idx) == 0 {
		return
	}
	for k, m := range SplitMPL(d.mpl, len(idx)) {
		d.shards[idx[k]].FE.SetMPL(m)
	}
}

// QueueLen returns the total external queue length across shards.
func (d *Dispatcher) QueueLen() int {
	n := 0
	for i := range d.shards {
		n += d.shards[i].FE.QueueLen()
	}
	return n
}

// Inside returns the total number of admitted, uncompleted items.
func (d *Dispatcher) Inside() int {
	n := 0
	for i := range d.shards {
		n += d.shards[i].FE.Inside()
	}
	return n
}

// Dropped returns the total admission-control rejections across shards.
func (d *Dispatcher) Dropped() uint64 {
	var n uint64
	for i := range d.shards {
		n += d.shards[i].FE.Dropped()
	}
	return n
}

// Canceled returns the total withdrawn submissions across shards.
func (d *Dispatcher) Canceled() uint64 {
	var n uint64
	for i := range d.shards {
		n += d.shards[i].FE.Canceled()
	}
	return n
}

// SetAdmitDeadline sets class c's admission deadline on every shard
// (0 clears it). Deadlines are measured per shard from the routed
// transaction's arrival there.
func (d *Dispatcher) SetAdmitDeadline(c core.Class, seconds float64) {
	for i := range d.shards {
		d.shards[i].FE.SetAdmitDeadline(c, seconds)
	}
}

// Shed returns the total deadline-shed count across shards.
func (d *Dispatcher) Shed() uint64 {
	var n uint64
	for i := range d.shards {
		n += d.shards[i].FE.Shed()
	}
	return n
}

// ShedClasses sums the shards' per-class shed counts, indexed by class
// like core.Frontend.ShedClasses.
func (d *Dispatcher) ShedClasses() []uint64 {
	var out []uint64
	for i := range d.shards {
		for c, n := range d.shards[i].FE.ShedClasses() {
			if c == len(out) {
				out = append(out, 0)
			}
			out[c] += n
		}
	}
	return out
}

// SetWFQWeights reconfigures every shard's WFQ policy weights; false
// when the shards' queue policy is not WFQ.
func (d *Dispatcher) SetWFQWeights(weights map[core.Class]float64) bool {
	ok := true
	for i := range d.shards {
		ok = d.shards[i].FE.SetWFQWeights(weights) && ok
	}
	return ok
}

// SetRecovery arms the fault model: eng schedules recovery backoff
// timers and provides the availability clock; rp decides what happens
// to a dead shard's work. It must be called (once, before traffic
// flows) for the lifecycle operations — FailShard, RecoverShard,
// AddShard, RemoveShard — to be usable.
func (d *Dispatcher) SetRecovery(eng *sim.Engine, rp RecoveryPolicy) error {
	if eng == nil {
		return fmt.Errorf("cluster: SetRecovery needs an engine")
	}
	if rp.Resubmit && rp.RetryBudget < 1 {
		return fmt.Errorf("cluster: resubmit recovery needs a retry budget >= 1 (got %d)", rp.RetryBudget)
	}
	rp = rp.withDefaults()
	if rp.BackoffBase > rp.BackoffCap {
		return fmt.Errorf("cluster: backoff base %v exceeds cap %v", rp.BackoffBase, rp.BackoffCap)
	}
	d.eng = eng
	d.rec = rp
	d.rng = sim.NewRNG(rp.Seed, 101)
	now := eng.Now()
	for i := range d.upSince {
		d.upSince[i] = now
	}
	return nil
}

// RecoveryEnabled reports whether SetRecovery has armed the fault
// model.
func (d *Dispatcher) RecoveryEnabled() bool { return d.eng != nil }

// State returns shard i's lifecycle state (ShardDown for out-of-range
// indices, which only ever name removed history in callers).
func (d *Dispatcher) State(i int) ShardState {
	if i < 0 || i >= len(d.state) {
		return ShardDown
	}
	return d.state[i]
}

// States returns a copy of every shard's lifecycle state.
func (d *Dispatcher) States() []ShardState { return append([]ShardState(nil), d.state...) }

// UpSeconds returns shard i's cumulative up time (serving or draining)
// since SetRecovery, in clock seconds. Windowed availability is a
// delta of this over the window length.
func (d *Dispatcher) UpSeconds(i int) float64 {
	if d.eng == nil || i < 0 || i >= len(d.shards) {
		return 0
	}
	up := d.upAccum[i]
	if d.state[i] != ShardDown {
		up += d.eng.Now() - d.upSince[i]
	}
	return up
}

// Failed returns the terminal losses: txns shed by the recovery policy
// (crash with shed mode, retry budget exhausted) or submitted while
// the whole fleet was down.
func (d *Dispatcher) Failed() uint64 { return d.failedTxns }

// Resubmitted returns the number of logical txns resubmitted at least
// once after a shard failure.
func (d *Dispatcher) Resubmitted() uint64 { return d.resubmitted }

// Retries returns the total resubmission events (a txn bounced through
// two failures counts twice).
func (d *Dispatcher) Retries() uint64 { return d.retries }

// PendingRetries returns the txns currently waiting out a recovery
// backoff — failed off a dead shard and not yet resubmitted.
func (d *Dispatcher) PendingRetries() int { return d.pendingRetry }

// lifecycleReady guards the lifecycle entry points.
func (d *Dispatcher) lifecycleReady(i int) error {
	if d.eng == nil {
		return fmt.Errorf("cluster: lifecycle operations need SetRecovery first")
	}
	if i < 0 || i >= len(d.shards) {
		return fmt.Errorf("cluster: shard %d out of range [0,%d)", i, len(d.shards))
	}
	return nil
}

// markDown transitions shard i to Down, closing its availability
// accrual.
func (d *Dispatcher) markDown(i int) {
	if d.state[i] == ShardDown {
		return
	}
	d.upAccum[i] += d.eng.Now() - d.upSince[i]
	d.state[i] = ShardDown
	d.upDirty = true
}

// FailShard crashes shard i: it goes Down immediately, the remaining
// Up shards absorb its MPL share, and every transaction it held —
// queued or in flight — is withdrawn and handed to the recovery
// policy. Failing an already-down shard is a no-op.
func (d *Dispatcher) FailShard(i int) error {
	if err := d.lifecycleReady(i); err != nil {
		return err
	}
	if d.state[i] == ShardDown {
		return nil
	}
	d.markDown(i)
	d.resplit()
	failed := d.shards[i].FE.Fail()
	for _, t := range failed {
		// The routing charge for withdrawn work must be refunded here:
		// the completion wrapper that normally settles it will never
		// run for a failed txn.
		d.settle(i, t.Item.SizeHint)
	}
	for _, t := range failed {
		d.disposeFailed(t)
	}
	return nil
}

// disposeFailed routes one withdrawn txn per the recovery policy:
// resubmit with backoff while budget remains, terminal loss otherwise.
func (d *Dispatcher) disposeFailed(t *dbfe.Txn) {
	if !d.rec.Resubmit || t.Attempts >= d.rec.RetryBudget {
		d.failTerminally(t)
		return
	}
	d.scheduleResubmit(t)
}

// scheduleResubmit arms t's next recovery attempt after a capped
// exponential backoff with deterministic jitter. The attempt is
// consumed when the timer fires.
func (d *Dispatcher) scheduleResubmit(t *dbfe.Txn) {
	k := t.Attempts + 1 // 1-indexed attempt about to be made
	delay := d.rec.BackoffBase
	for j := 1; j < k; j++ {
		delay *= 2
		if delay >= d.rec.BackoffCap {
			delay = d.rec.BackoffCap
			break
		}
	}
	if delay > d.rec.BackoffCap {
		delay = d.rec.BackoffCap
	}
	delay *= 0.5 + 0.5*d.rng.Float64()
	d.pendingRetry++
	d.eng.After(delay, func() { d.fireResubmit(t) })
}

// fireResubmit performs one recovery attempt: resubmit through the
// normal dispatch path (original arrival preserved, so the reported
// response time spans the outage). If no shard can take the work right
// now, the attempt is still consumed and the next backoff armed —
// until the budget runs out.
func (d *Dispatcher) fireResubmit(old *dbfe.Txn) {
	d.pendingRetry--
	i := d.pickShard(core.Class(old.Profile.Class), old.Profile.EstimatedDemand)
	if i < 0 {
		old.Attempts++
		if old.Attempts >= d.rec.RetryBudget {
			d.failTerminally(old)
			return
		}
		d.scheduleResubmit(old)
		return
	}
	if old.Attempts == 0 {
		d.resubmitted++
	}
	d.retries++
	t := d.submitTo(i, old.Profile, old.UserCB)
	t.Attempts = old.Attempts + 1
	// Preserve the original arrival so the txn's reported latency spans
	// the outage (safe post-submit: completions are asynchronous).
	t.Item.Arrival = old.Item.Arrival
}

// RecoverShard returns a down shard to service (it rejoins the
// dispatch set and takes back its MPL share) or cancels a drain in
// progress. Recovering an Up shard is a no-op.
func (d *Dispatcher) RecoverShard(i int) error {
	if err := d.lifecycleReady(i); err != nil {
		return err
	}
	switch d.state[i] {
	case ShardUp:
		return nil
	case ShardDown:
		d.upSince[i] = d.eng.Now()
	}
	d.state[i] = ShardUp
	d.upDirty = true
	d.resplit()
	return nil
}

// RemoveShard drains shard i out of the fleet: no new work routes to
// it, its MPL share moves to the remaining Up shards now, and once its
// queue and in-flight work finish it goes Down on its own. Removing a
// draining shard is a no-op; removing a down shard is an error (it
// holds nothing to drain).
func (d *Dispatcher) RemoveShard(i int) error {
	if err := d.lifecycleReady(i); err != nil {
		return err
	}
	switch d.state[i] {
	case ShardDraining:
		return nil
	case ShardDown:
		return fmt.Errorf("cluster: shard %d is down, nothing to drain", i)
	}
	d.state[i] = ShardDraining
	d.upDirty = true
	d.resplit()
	d.maybeFinishDrain(i)
	return nil
}

// maybeFinishDrain completes a graceful removal once the draining
// shard is empty.
func (d *Dispatcher) maybeFinishDrain(i int) {
	if d.state[i] != ShardDraining {
		return
	}
	fe := d.shards[i].FE
	if fe.Inside() == 0 && fe.QueueLen() == 0 {
		d.markDown(i)
	}
}

// AddShard grows the fleet mid-run: the shard joins Up, the requested
// cluster-wide MPL re-splits to include it, and dispatch sees it from
// the next pick on. Returns the new shard's index. Requires
// SetRecovery (the availability clock must be armed).
func (d *Dispatcher) AddShard(s Shard) (int, error) {
	if d.eng == nil {
		return 0, fmt.Errorf("cluster: lifecycle operations need SetRecovery first")
	}
	if s.FE == nil {
		return 0, fmt.Errorf("cluster: new shard has no frontend")
	}
	if s.Speed <= 0 {
		s.Speed = 1
	}
	i := len(d.shards)
	d.shards = append(d.shards, s)
	d.state = append(d.state, ShardUp)
	d.work = append(d.work, 0)
	d.scratch = append(d.scratch, Load{})
	d.routed = append(d.routed, 0)
	d.upSince = append(d.upSince, d.eng.Now())
	d.upAccum = append(d.upAccum, 0)
	d.doneFn = append(d.doneFn, nil)
	d.upDirty = true
	d.installHooks(i)
	d.resplit()
	return i, nil
}
