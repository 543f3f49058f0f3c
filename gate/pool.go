package gate

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"extsched/internal/autoscale"
	"extsched/internal/cluster"
	"extsched/internal/core"
	"extsched/internal/sim"
	"extsched/internal/stats"
	"extsched/metrics"
)

// ErrMemberDown is returned by a Pool Acquire when the circuit breaker
// has tripped every member: there is no healthy backend to route to
// and no probe due yet.
var ErrMemberDown = errors.New("gate: all pool members down")

// BreakerConfig arms per-member health tracking on a Pool: a
// consecutive-failure circuit breaker with half-open probing. A member
// whose released work fails (Result.Err != nil) Threshold times in a
// row trips open — routing skips it and the surviving members absorb
// its share of the fleet limit. After ProbeInterval seconds, exactly
// one request is let through as a probe (half-open): if it succeeds
// the breaker closes and the member takes its capacity back; if it
// fails the member stays down for another interval.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips a member
	// (0 = 5).
	Threshold int
	// ProbeInterval is how long a tripped member stays unrouted before
	// a probe is allowed, in seconds (0 = 1).
	ProbeInterval float64
}

func (b BreakerConfig) withDefaults() BreakerConfig {
	if b.Threshold <= 0 {
		b.Threshold = 5
	}
	if b.ProbeInterval <= 0 {
		b.ProbeInterval = 1
	}
	return b
}

// memberHealth is one member's breaker state.
type memberHealth uint8

const (
	memberUp memberHealth = iota
	// memberOpen is a tripped breaker: no traffic until a probe is due.
	memberOpen
	// memberProbing has one half-open probe request in flight.
	memberProbing
)

// PoolConfig assembles a Pool: a fleet of member gates behind one
// dispatch decision.
type PoolConfig struct {
	// Members is the number of member gates (>= 1).
	Members int
	// Dispatch names the routing policy: "rr" (default), "jsq", "lwl",
	// "affinity", or the sampled variants "jsq-d" / "lwl-d" (optionally
	// with a sample width, e.g. "jsq-d:3") — the same policies the
	// simulator's cluster dispatcher uses, so simulated dispatch
	// findings carry over. Sampled policies draw their candidate picks
	// from a dedicated RNG stream seeded by Member.Seed, so two pools
	// built alike route alike.
	Dispatch string
	// Speeds are per-member relative speed hints for the "lwl" policy
	// (1 = nominal); empty means all 1, otherwise len must equal
	// Members. Update mid-run with SetMemberSpeed when a member
	// degrades.
	Speeds []float64
	// Breaker, when non-nil, arms the per-member circuit breaker: a
	// member that keeps failing is tripped out of the dispatch set, its
	// limit share moves to the survivors, and half-open probes bring it
	// back when it recovers.
	Breaker *BreakerConfig
	// Autoscale, when non-nil, arms the fleet autoscaler: the active
	// member set grows and shrinks with observed backlog inside
	// [Min, Max]. See AutoscaleConfig.
	Autoscale *AutoscaleConfig
	// Member configures each member gate. Limit is PER MEMBER; so is
	// QueueLimit.
	Member Config
}

// Pool is the live-traffic twin of the simulator's sharded dispatcher:
// Acquire routes each request to one member gate by the configured
// policy, so a fleet of replicas (connection pools, downstream
// backends) is gated and balanced by the same mechanism the paper's
// experiments validate per backend. All methods are safe for
// concurrent use.
type Pool struct {
	members []*Gate
	clock   sim.Clock

	// mu serializes routing decisions and the outstanding-work
	// accounting behind them, so concurrent Acquires see consistent
	// loads and stateful policies (round-robin) stay correct. The
	// breaker state lives under the same lock: health transitions are
	// routing decisions.
	mu     sync.Mutex
	policy cluster.Policy
	// seed feeds sampled dispatch policies ("jsq-d") their RNG stream,
	// at build time and on every SetDispatch swap.
	seed   uint64
	work   []float64
	speeds []float64
	routed []uint64
	// idx maps filtered (healthy-only) policy picks back to member
	// indices when the breaker is armed; loads is the matching
	// per-route scratch (both under mu), so routing allocates nothing.
	idx   []int
	loads []cluster.Load

	// asc is nil when autoscaling is off. active is the size of the
	// routable lowest-index prefix of members (len(members) when asc is
	// nil); ascNext the clock instant of the next controller
	// evaluation. memberLimit remembers the per-member limit the pool
	// was built with so scale actions can retarget the breaker's fleet
	// limit.
	asc         *autoscale.Controller
	active      int
	ascNext     float64
	memberLimit int

	// breaker is nil when health tracking is disabled. fleetLimit is
	// the requested fleet-wide limit the breaker re-splits across
	// healthy members on every trip and recovery (0 = unlimited).
	breaker     *BreakerConfig
	fleetLimit  int
	health      []memberHealth
	consecFails []int
	downSince   []float64 // trip instant (clock seconds), per member
	downAccum   []float64 // accumulated down seconds through last recovery
	epoch       float64   // clock instant the pool was built
}

// NewPool builds a pool of cfg.Members identical gates.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Members < 1 {
		return nil, fmt.Errorf("gate: pool needs at least 1 member, got %d", cfg.Members)
	}
	if n := len(cfg.Speeds); n > 0 && n != cfg.Members {
		return nil, fmt.Errorf("gate: pool has %d speeds for %d members", n, cfg.Members)
	}
	seed := cfg.Member.Seed
	if seed == 0 {
		seed = 1
	}
	policy, err := cluster.NewPolicySeeded(cfg.Dispatch, seed)
	if err != nil {
		return nil, fmt.Errorf("gate: %w", err)
	}
	clock := cfg.Member.clock
	if clock == nil {
		clock = sim.NewWallClock()
	}
	p := &Pool{
		policy:      policy,
		seed:        seed,
		clock:       clock,
		work:        make([]float64, cfg.Members),
		speeds:      make([]float64, cfg.Members),
		routed:      make([]uint64, cfg.Members),
		idx:         make([]int, 0, cfg.Members),
		loads:       make([]cluster.Load, 0, cfg.Members),
		active:      cfg.Members,
		memberLimit: cfg.Member.Limit,
	}
	if cfg.Breaker != nil {
		b := cfg.Breaker.withDefaults()
		p.breaker = &b
		p.health = make([]memberHealth, cfg.Members)
		p.consecFails = make([]int, cfg.Members)
		p.downSince = make([]float64, cfg.Members)
		p.downAccum = make([]float64, cfg.Members)
		p.epoch = clock.Now()
		if cfg.Member.Limit > 0 {
			p.fleetLimit = cfg.Member.Limit * cfg.Members
		}
	}
	for i := 0; i < cfg.Members; i++ {
		p.speeds[i] = 1
		if len(cfg.Speeds) > 0 {
			if cfg.Speeds[i] <= 0 {
				return nil, fmt.Errorf("gate: member %d speed %v must be positive", i, cfg.Speeds[i])
			}
			p.speeds[i] = cfg.Speeds[i]
		}
		g, err := New(cfg.Member)
		if err != nil {
			return nil, err
		}
		p.members = append(p.members, g)
	}
	if cfg.Autoscale != nil {
		if err := p.armAutoscale(*cfg.Autoscale); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Members returns the member count.
func (p *Pool) Members() int { return len(p.members) }

// Member returns member i's gate — for per-member tuning
// (EnableAutoTune, SetLimit, Watch) and inspection. Routing state
// stays with the pool; acquiring directly on a member bypasses the
// dispatch policy's work accounting.
func (p *Pool) Member(i int) *Gate { return p.members[i] }

// SetDispatch switches the routing policy at runtime. Sampled policies
// ("jsq-d") resume from the pool's dispatch seed.
func (p *Pool) SetDispatch(name string) error {
	policy, err := cluster.NewPolicySeeded(name, p.seed)
	if err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	p.mu.Lock()
	p.policy = policy
	p.mu.Unlock()
	return nil
}

// SetMemberSpeed updates member i's relative speed hint (the "lwl"
// policy normalizes outstanding work by it).
func (p *Pool) SetMemberSpeed(i int, speed float64) error {
	if i < 0 || i >= len(p.members) {
		return fmt.Errorf("gate: member %d out of range [0,%d)", i, len(p.members))
	}
	if speed <= 0 {
		return fmt.Errorf("gate: member speed %v must be positive", speed)
	}
	p.mu.Lock()
	p.speeds[i] = speed
	p.mu.Unlock()
	return nil
}

// route picks a member for req and charges its work accounting. With
// the breaker armed it reports whether the pick is a half-open probe;
// ErrMemberDown when every member is tripped and no probe is due.
func (p *Pool) route(req Request) (member int, probe bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.asc != nil {
		p.autoscaleLocked(p.clock.Now())
	}
	if p.breaker != nil {
		// A due probe takes the request: half-open means exactly one
		// real request tests the tripped member. Parked members are not
		// probed — they rejoin (tripped state and all) when the
		// autoscaler reactivates them.
		now := p.clock.Now()
		for i, h := range p.health {
			if i >= p.active {
				break
			}
			if h == memberOpen && now-p.downSince[i] >= p.breaker.ProbeInterval {
				p.health[i] = memberProbing
				p.work[i] += req.SizeHint
				p.routed[i]++
				return i, true, nil
			}
		}
	}
	loads := p.loads[:0]
	idx := p.idx[:0]
	for i, g := range p.members {
		if i >= p.active {
			break
		}
		if p.breaker != nil && p.health[i] != memberUp {
			continue
		}
		loads = append(loads, cluster.Load{
			Backlog: g.Queued() + g.Inflight(),
			Work:    p.work[i],
			Speed:   p.speeds[i],
		})
		idx = append(idx, i)
	}
	if len(loads) == 0 {
		return 0, false, ErrMemberDown
	}
	j := p.policy.Pick(loads, req.Class, req.SizeHint)
	if j < 0 || j >= len(idx) {
		panic(fmt.Sprintf("gate: dispatch policy %s picked member %d of %d", p.policy.Name(), j, len(idx)))
	}
	i := idx[j]
	p.work[i] += req.SizeHint
	p.routed[i]++
	return i, false, nil
}

// unroute refunds a routing charge (the member rejected or the caller
// gave up before admission).
func (p *Pool) unroute(i int, size float64) {
	p.mu.Lock()
	p.work[i] -= size
	if p.work[i] < 0 {
		p.work[i] = 0
	}
	p.routed[i]--
	p.mu.Unlock()
}

// Acquire waits for admission somewhere in the pool with default
// request attributes.
func (p *Pool) Acquire(ctx context.Context) (PoolTicket, error) {
	return p.AcquireRequest(ctx, Request{})
}

// AcquireRequest routes the request to a member chosen by the dispatch
// policy, then waits for that member's admission. The routing decision
// is made once, at submission — the pool does not re-route a request
// that then waits behind the chosen member's queue (exactly the
// semantics of the simulated dispatcher, and of a connection handed to
// one replica). ErrQueueFull surfaces from the chosen member in
// admission-control mode.
func (p *Pool) AcquireRequest(ctx context.Context, req Request) (PoolTicket, error) {
	i, probe, err := p.route(req)
	if err != nil {
		return PoolTicket{}, err
	}
	tk, err := p.members[i].AcquireRequest(ctx, req)
	if err != nil {
		p.unroute(i, req.SizeHint)
		if probe {
			// The probe never reached the backend — re-open the breaker
			// and let the next interval try again.
			p.mu.Lock()
			if p.health[i] == memberProbing {
				p.reopenLocked(i)
			}
			p.mu.Unlock()
		}
		return PoolTicket{}, err
	}
	return PoolTicket{t: tk, p: p, member: i, size: req.SizeHint}, nil
}

// PoolTicket is one admitted unit of work plus the routing it arrived
// by. It is a small value (copy freely); Release it exactly once — a
// second Release on any copy is a no-op, claimed by the underlying
// member ticket's generation counter. The zero PoolTicket is inert.
type PoolTicket struct {
	t      Ticket
	p      *Pool
	member int
	size   float64
}

// Member returns the index of the member gate that admitted the work.
func (t PoolTicket) Member() int { return t.member }

// Release frees the slot on the admitting member and settles the
// pool's work accounting. With the breaker armed, res.Err feeds the
// member's health: consecutive failures trip it, a successful probe
// closes it again.
func (t PoolTicket) Release(res Result) {
	if t.p == nil || !t.t.release(res) {
		return
	}
	t.p.finish(t.member, t.size, res.Err != nil)
}

// finish settles a released request in one critical section: it
// refunds the request's work charge on member i and, with the breaker
// armed, applies its outcome to the member's health.
func (p *Pool) finish(i int, size float64, failed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.work[i] -= size
	if p.work[i] < 0 {
		p.work[i] = 0
	}
	if p.breaker == nil {
		return
	}
	if failed {
		p.consecFails[i]++
		switch p.health[i] {
		case memberProbing:
			// Failed probe: stay open for another interval.
			p.reopenLocked(i)
		case memberUp:
			if p.consecFails[i] >= p.breaker.Threshold {
				p.health[i] = memberOpen
				p.downSince[i] = p.clock.Now()
				p.resplitLocked()
			}
		}
		return
	}
	p.consecFails[i] = 0
	if p.health[i] == memberProbing {
		// Successful probe: close the breaker and take capacity back.
		p.downAccum[i] += p.clock.Now() - p.downSince[i]
		p.health[i] = memberUp
		p.resplitLocked()
	}
}

// reopenLocked re-trips member i after a failed probe, banking the
// down time so far so availability accounting stays continuous across
// the downSince reset. Callers hold p.mu.
func (p *Pool) reopenLocked(i int) {
	now := p.clock.Now()
	p.downAccum[i] += now - p.downSince[i]
	p.health[i] = memberOpen
	p.downSince[i] = now
}

// resplitLocked redistributes the fleet limit across the currently
// healthy ACTIVE members: a tripped member keeps a single slot (enough
// to admit the half-open probe) while the survivors absorb the rest,
// and the split reverts when it recovers. Parked members keep whatever
// limit they have — they receive no traffic, and an outstanding queue
// on a freshly parked member drains under its existing limit. Callers
// hold p.mu. A fleetLimit of 0 means unlimited members; nothing to
// move.
func (p *Pool) resplitLocked() {
	if p.fleetLimit == 0 {
		return
	}
	healthy := 0
	for i, h := range p.health {
		if i >= p.active {
			break
		}
		if h == memberUp {
			healthy++
		}
	}
	if healthy == 0 {
		// Leave the last split in place: a fleet with no healthy
		// members routes nothing anyway, and probes must still be
		// admitted when they come due.
		return
	}
	shares := cluster.SplitMPL(p.fleetLimit, healthy)
	j := 0
	for i, h := range p.health {
		if i >= p.active {
			break
		}
		if h == memberUp {
			p.members[i].SetLimit(shares[j])
			j++
		} else {
			p.members[i].SetLimit(1)
		}
	}
}

// availabilityLocked is the fraction of the pool's lifetime member i
// spent closed (routable). Callers hold p.mu and the breaker is armed.
func (p *Pool) availabilityLocked(i int, now float64) float64 {
	elapsed := now - p.epoch
	if elapsed <= 0 {
		return 1
	}
	down := p.downAccum[i]
	if p.health[i] != memberUp {
		down += now - p.downSince[i]
	}
	if down < 0 {
		down = 0
	}
	if down > elapsed {
		down = elapsed
	}
	return (elapsed - down) / elapsed
}

// MemberState reports member i's routing state: "up" when routable,
// "down" when the breaker tripped it (including while a half-open
// probe is in flight), "parked" when the autoscaler has it outside the
// active set. Without a breaker or autoscaler every member is always
// "up".
func (p *Pool) MemberState(i int) string {
	if i < 0 || i >= len(p.members) {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.asc != nil && i >= p.active {
		return "parked"
	}
	if p.breaker == nil || p.health[i] == memberUp {
		return "up"
	}
	return "down"
}

// Routed returns the cumulative requests routed to each member
// (rejected acquisitions excluded).
func (p *Pool) Routed() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint64(nil), p.routed...)
}

// MemberStats snapshots every member gate, in member order.
func (p *Pool) MemberStats() []Stats {
	out := make([]Stats, len(p.members))
	for i, g := range p.members {
		out[i] = g.Stats()
	}
	return out
}

// Stats aggregates the pool: counters and queue lengths sum across
// members, and Limit is the fleet-wide limit (0 if any member is
// unlimited). Mean times and P50/P95/P99 are the fleet's: the members'
// metrics windows are merged, sketches bucket by bucket, so the
// percentiles are those of every member's completions together, within
// stats.SketchAlpha (1%). Per-class stats are per-member quantities —
// read them from MemberStats. Shards carries each member's
// instantaneous state; this is a CUMULATIVE snapshot, so
// Shards[i].Dispatched is the lifetime routed count (like
// Dropped/Canceled, it survives ResetStats) while Shards[i].Completed
// covers the member's current metrics window.
func (p *Pool) Stats() Stats {
	var fleet core.Metrics
	var scratch stats.Sketch
	members := make([]Stats, len(p.members))
	for i, g := range p.members {
		w := g.fe.Metrics()
		members[i] = g.stats(&w, &scratch)
		fleet.Merge(&w)
	}
	routed := p.Routed()
	p.mu.Lock()
	speeds := append([]float64(nil), p.speeds...)
	var states []string
	var avail []float64
	if p.breaker != nil || p.asc != nil {
		now := p.clock.Now()
		states = make([]string, len(p.members))
		avail = make([]float64, len(p.members))
		for i := range p.members {
			states[i], avail[i] = "up", 1
			if p.breaker != nil {
				if p.health[i] != memberUp {
					states[i] = "down"
				}
				avail[i] = p.availabilityLocked(i, now)
			}
			if p.asc != nil && i >= p.active {
				states[i] = "parked"
			}
		}
	}
	p.mu.Unlock()
	all := fleet.Sketch(&scratch)
	out := Stats{
		Completed:    fleet.Completed,
		MeanResponse: fleet.All.Mean(),
		MeanWait:     fleet.ExtWait.Mean(),
		MeanInside:   fleet.Inside.Mean(),
		P50:          all.Quantile(0.50),
		P95:          all.Quantile(0.95),
		P99:          all.Quantile(0.99),
	}
	unlimited := false
	for i, m := range members {
		if i == 0 || m.Time > out.Time {
			out.Time = m.Time
		}
		if m.Window > out.Window {
			out.Window = m.Window
		}
		if m.Limit == 0 {
			unlimited = true
		}
		out.Limit += m.Limit
		out.Inflight += m.Inflight
		out.Queued += m.Queued
		out.Throughput += m.Throughput
		out.Dropped += m.Dropped
		out.Canceled += m.Canceled
		out.Errors += m.Errors
		ss := metrics.ShardStat{
			Shard:        i,
			Speed:        speeds[i],
			Limit:        m.Limit,
			Inflight:     m.Inflight,
			Queued:       m.Queued,
			Dispatched:   routed[i],
			Completed:    m.Completed,
			Availability: 1,
		}
		if states != nil {
			ss.State = states[i]
			ss.Availability = avail[i]
		}
		out.Shards = append(out.Shards, ss)
	}
	if unlimited {
		out.Limit = 0
	}
	return out
}

// Limit returns the fleet-wide limit: the sum of member limits, 0 if
// any member is unlimited.
func (p *Pool) Limit() int {
	total := 0
	for _, g := range p.members {
		m := g.Limit()
		if m == 0 {
			return 0
		}
		total += m
	}
	return total
}

// SetLimit distributes a fleet-wide limit across the members (an even
// share each, remainder to the lowest indices, at least 1 per member
// when n > 0; 0 = all unlimited — see cluster.SplitMPL). With the
// breaker armed the split covers only the healthy members, and the
// pool remembers n so capacity keeps following trips and recoveries.
func (p *Pool) SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.breaker != nil {
		p.fleetLimit = n
		if n == 0 {
			for _, g := range p.members {
				g.SetLimit(0)
			}
			return
		}
		p.resplitLocked()
		return
	}
	for i, m := range cluster.SplitMPL(n, len(p.members)) {
		p.members[i].SetLimit(m)
	}
}

// ResetStats opens a fresh metrics window on every member.
func (p *Pool) ResetStats() {
	for _, g := range p.members {
		g.ResetStats()
	}
}
