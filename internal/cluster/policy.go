// Package cluster adds the multi-backend layer on top of the paper's
// single-gate external scheduler: a Dispatcher fans one admitted
// transaction stream out across N shard frontends (each its own MPL
// gate over its own backend), and pluggable dispatch policies decide
// which shard receives the next item. Schroeder et al. tune ONE gate;
// real deployments front replica or shard fleets, where the dispatch
// decision dominates tail latency as much as the MPL itself — a slow
// shard behind a blind round-robin drags the aggregate p95 long before
// it costs throughput.
//
// The policy vocabulary is deliberately tiny and side-effect free
// (Pick reads per-member Load views and returns an index), so the same
// four policies serve the deterministic simulator (Dispatcher, below)
// and live wall-clock traffic (gate.Pool). Ties always break toward
// the lowest index, which is what keeps multi-shard simulation runs
// bit-identical across reruns.
package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"extsched/internal/core"
	"extsched/internal/sim"
)

// Load is one member's state as seen by a dispatch decision.
type Load struct {
	// Backlog is the number of items at the member: external queue plus
	// admitted-and-executing.
	Backlog int
	// Work is the outstanding size-hint seconds routed to the member
	// and not yet completed (at unit speed).
	Work float64
	// Speed is the member's relative service speed (1 = nominal);
	// work-aware policies normalize Work by it.
	Speed float64
}

// Policy picks the member that receives the next item. Implementations
// may keep state (round-robin's cursor) but must be deterministic:
// equal inputs and history yield equal picks. A Policy instance
// belongs to one dispatcher; do not share.
type Policy interface {
	// Name identifies the policy in reports and scenario files.
	Name() string
	// Pick returns the index of the member to dispatch to. loads is
	// never empty; class and size describe the item (size 0 = unknown).
	Pick(loads []Load, class core.Class, size float64) int
}

// Policy names accepted by NewPolicy (and scenario SetDispatch events).
const (
	// PolicyRoundRobin cycles through members in order, blind to load —
	// the baseline every smarter policy is measured against.
	PolicyRoundRobin = "rr"
	// PolicyJSQ joins the shortest queue: the member with the smallest
	// backlog (queued + executing), ties to the lowest index.
	PolicyJSQ = "jsq"
	// PolicyLeastWork routes to the member with the least outstanding
	// size-hint work, normalized by member speed — JSQ's size-aware
	// sibling, sharper when service demands are highly variable or the
	// fleet is heterogeneous.
	PolicyLeastWork = "lwl"
	// PolicyAffinity pins each priority class to one member
	// (index = class mod members): cache and isolation affinity at the
	// cost of balance.
	PolicyAffinity = "affinity"
	// PolicyJSQSampled is power-of-d-choices JSQ ("jsq-d", optionally
	// "jsq-d:<d>", default d=2): sample d distinct members from a
	// seeded deterministic stream and join the shortest queue among
	// them, ties to the lowest member index. O(d) per pick instead of
	// O(N) — the only dispatch shape that stays affordable at N>=1000.
	PolicyJSQSampled = "jsq-d"
	// PolicyLeastWorkSampled is the size-aware sibling ("lwl-d",
	// "lwl-d:<d>"): least speed-normalized work among d sampled members.
	PolicyLeastWorkSampled = "lwl-d"
)

// sampleStream is the dedicated RNG stream id for sampled dispatch
// (kept distinct from recovery backoff 101 and churn 211+i, so arming
// one feature never perturbs another's draws).
const sampleStream = 509

// defaultSampleD is the classic power-of-two-choices default.
const defaultSampleD = 2

// ParsePolicyName splits a dispatch policy name into its base name and
// sample width d. Plain policies return d=0; "jsq-d"/"lwl-d" return
// the default d=2; "jsq-d:<d>"/"lwl-d:<d>" parse d and reject d < 1
// loudly. It validates the name without instantiating anything.
func ParsePolicyName(name string) (base string, d int, err error) {
	base = name
	if i := strings.IndexByte(name, ':'); i >= 0 {
		base = name[:i]
		if base != PolicyJSQSampled && base != PolicyLeastWorkSampled {
			return "", 0, fmt.Errorf("cluster: policy %q does not take a parameter", name)
		}
		d, err = strconv.Atoi(name[i+1:])
		if err != nil {
			return "", 0, fmt.Errorf("cluster: bad sample width in policy %q: %v", name, err)
		}
		if d < 1 {
			return "", 0, fmt.Errorf("cluster: policy %q needs a sample width >= 1 (got %d)", name, d)
		}
		return base, d, nil
	}
	switch base {
	case PolicyJSQSampled, PolicyLeastWorkSampled:
		return base, defaultSampleD, nil
	case "", PolicyRoundRobin, PolicyJSQ, PolicyLeastWork, PolicyAffinity:
		return base, 0, nil
	default:
		return "", 0, fmt.Errorf("cluster: unknown dispatch policy %q (want %s, %s, %s, %s, %s[:d] or %s[:d])",
			name, PolicyRoundRobin, PolicyJSQ, PolicyLeastWork, PolicyAffinity,
			PolicyJSQSampled, PolicyLeastWorkSampled)
	}
}

// NewPolicy builds a built-in dispatch policy by name ("" = round-
// robin). Each call returns a fresh instance. Sampled policies get
// seed 0 — validation-only call sites may use this, but anything that
// actually routes traffic should call NewPolicySeeded so the sampling
// stream follows the run seed.
func NewPolicy(name string) (Policy, error) {
	return NewPolicySeeded(name, 0)
}

// NewPolicySeeded is NewPolicy with the experiment seed: sampled
// policies ("jsq-d", "lwl-d") draw their member samples from
// sim.NewRNG(seed, sampleStream), so equal seeds replay the identical
// sampling sequence and multi-shard runs stay bit-identical. The seed
// is ignored by the deterministic full-scan policies.
func NewPolicySeeded(name string, seed uint64) (Policy, error) {
	base, d, err := ParsePolicyName(name)
	if err != nil {
		return nil, err
	}
	switch base {
	case "", PolicyRoundRobin:
		return &RoundRobin{}, nil
	case PolicyJSQ:
		return JSQ{}, nil
	case PolicyLeastWork:
		return LeastWork{}, nil
	case PolicyAffinity:
		return Affinity{}, nil
	case PolicyJSQSampled:
		return newSampled(PolicyJSQSampled, d, seed), nil
	case PolicyLeastWorkSampled:
		return newSampled(PolicyLeastWorkSampled, d, seed), nil
	default:
		return nil, fmt.Errorf("cluster: unknown dispatch policy %q", name)
	}
}

// RoundRobin cycles through members in index order.
type RoundRobin struct {
	next int
}

func (p *RoundRobin) Name() string { return PolicyRoundRobin }

func (p *RoundRobin) Pick(loads []Load, _ core.Class, _ float64) int {
	i := p.next % len(loads)
	p.next = (i + 1) % len(loads)
	return i
}

// JSQ joins the shortest queue.
type JSQ struct{}

func (JSQ) Name() string { return PolicyJSQ }

func (JSQ) Pick(loads []Load, _ core.Class, _ float64) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		if loads[i].Backlog < loads[best].Backlog {
			best = i
		}
	}
	return best
}

// LeastWork routes to the member whose outstanding work, in member-
// local service seconds (Work/Speed), is smallest.
type LeastWork struct{}

func (LeastWork) Name() string { return PolicyLeastWork }

func (LeastWork) Pick(loads []Load, _ core.Class, _ float64) int {
	best, bestW := 0, normWork(loads[0])
	for i := 1; i < len(loads); i++ {
		if w := normWork(loads[i]); w < bestW {
			best, bestW = i, w
		}
	}
	return best
}

// normWork is a member's outstanding work scaled to its speed.
func normWork(l Load) float64 {
	s := l.Speed
	if s <= 0 {
		s = 1
	}
	return l.Work / s
}

// Affinity pins class c to member c mod N.
type Affinity struct{}

func (Affinity) Name() string { return PolicyAffinity }

func (Affinity) Pick(loads []Load, class core.Class, _ float64) int {
	i := int(class) % len(loads)
	if i < 0 {
		i += len(loads)
	}
	return i
}

// IndexedPolicy is the O(d) pick entry: instead of a fully
// materialized []Load (O(N) to build per transaction), the policy is
// handed the member count and a random-access load reader and touches
// only the members it actually samples. The Dispatcher prefers this
// path when the policy provides it; Pick remains for callers that
// already hold a load slice (gate.Pool's filtered view).
type IndexedPolicy interface {
	Policy
	// PickIndexed returns a member index in [0,n). at(i) returns member
	// i's current load; implementations must call it O(d) times.
	PickIndexed(n int, at func(int) Load, class core.Class, size float64) int
}

// Sampled is power-of-d-choices dispatch: sample D distinct members
// from a seeded deterministic stream, then route to the best of the
// sample — smallest backlog (jsq-d) or least speed-normalized work
// (lwl-d), ties to the lowest member index. When the member count is
// within 2·D a full scan is both cheaper than rejection sampling and
// strictly better, so small fleets degrade to exact JSQ/LWL (and
// consume no random draws, keeping the stream aligned across fleets
// that never exceed the threshold).
type Sampled struct {
	name string
	d    int
	work bool // compare normWork instead of Backlog
	rng  *sim.RNG
	// samp holds the last pick's sampled member indices (scratch; also
	// what the whitebox property tests inspect to verify best-of-sample).
	samp []int
}

// newSampled builds a sampled policy (name is jsq-d or lwl-d, d >= 1).
func newSampled(name string, d int, seed uint64) *Sampled {
	return &Sampled{
		name: name,
		d:    d,
		work: name == PolicyLeastWorkSampled,
		rng:  sim.NewRNG(seed, sampleStream),
		samp: make([]int, 0, d),
	}
}

// Name reports the parameterized form ("jsq-d:3") so reports and
// round-tripped scenarios keep the width.
func (p *Sampled) Name() string { return fmt.Sprintf("%s:%d", p.name, p.d) }

// D returns the sample width.
func (p *Sampled) D() int { return p.d }

// sample fills p.samp with min(d, n) distinct member indices. For
// n <= 2d it lists every member (exact scan, no draws); otherwise it
// rejection-samples, which terminates fast because at least half the
// population is always unsampled.
func (p *Sampled) sample(n int) {
	p.samp = p.samp[:0]
	if n <= 2*p.d {
		for i := 0; i < n; i++ {
			p.samp = append(p.samp, i)
		}
		return
	}
	for len(p.samp) < p.d {
		c := p.rng.IntN(n)
		dup := false
		for _, s := range p.samp {
			if s == c {
				dup = true
				break
			}
		}
		if !dup {
			p.samp = append(p.samp, c)
		}
	}
}

// better reports whether load a beats load b under the policy's
// criterion; strict, so ties resolve to the earlier (lower) index.
func (p *Sampled) better(a, b Load) bool {
	if p.work {
		return normWork(a) < normWork(b)
	}
	return a.Backlog < b.Backlog
}

// PickIndexed samples d members and returns the best, reading only the
// sampled loads. Ties break to the lowest member index (the explicit
// i < best clause), so the winner is independent of the random order
// the sample was drawn in and reruns stay bit-identical.
func (p *Sampled) PickIndexed(n int, at func(int) Load, _ core.Class, _ float64) int {
	p.sample(n)
	best := -1
	var bestLoad Load
	for _, i := range p.samp {
		l := at(i)
		if best < 0 || p.better(l, bestLoad) || (!p.better(bestLoad, l) && i < best) {
			best, bestLoad = i, l
		}
	}
	return best
}

// Pick is the slice form of PickIndexed for callers that already built
// a load view (gate.Pool). Same sampling stream, same tie rule.
func (p *Sampled) Pick(loads []Load, _ core.Class, _ float64) int {
	p.sample(len(loads))
	best := -1
	var bestLoad Load
	for _, i := range p.samp {
		l := loads[i]
		if best < 0 || p.better(l, bestLoad) || (!p.better(bestLoad, l) && i < best) {
			best, bestLoad = i, l
		}
	}
	return best
}
