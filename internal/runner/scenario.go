package runner

import (
	"fmt"
	"math"
	"sort"

	"extsched/internal/autoscale"
	"extsched/internal/cluster"
	"extsched/internal/core"
	"extsched/internal/trace"
)

// PhaseKind names a phase's traffic source.
type PhaseKind string

// Phase kinds accepted by Phase.Kind.
const (
	// PhaseClosed is a fixed client population: each client submits,
	// waits, thinks, repeats (the paper's Section 3.1 closed system).
	PhaseClosed PhaseKind = "closed"
	// PhaseOpen is a stationary Poisson arrival process at rate Lambda
	// (the paper's Section 3.2 open system).
	PhaseOpen PhaseKind = "open"
	// PhaseRamp ramps the arrival rate linearly from Lambda to Lambda2
	// over the phase's duration — a load transition.
	PhaseRamp PhaseKind = "ramp"
	// PhaseBurst is a two-state Markov-modulated Poisson process with
	// long-run mean rate Lambda — flash-crowd traffic.
	PhaseBurst PhaseKind = "burst"
	// PhaseTrace replays a trace (Phase.Trace or Phase.TraceSynth).
	PhaseTrace PhaseKind = "trace"
	// PhaseDiurnal is a non-homogeneous Poisson process whose rate
	// follows a sine around Lambda (DiurnalAmp / DiurnalPeriod) — the
	// day/night cycle of multi-tenant traffic. An optional flash-crowd
	// window (FlashFactor / FlashAt / FlashDuration) may overlay it.
	PhaseDiurnal PhaseKind = "diurnal"
	// PhaseFlash is a stationary Poisson process at Lambda with one
	// flash-crowd window during which the rate multiplies by
	// FlashFactor; an optional diurnal sine may overlay it.
	PhaseFlash PhaseKind = "flash"
)

// TenantSpec declares one tenant of a multi-tenant scenario. Listing
// tenants generalizes the two-class (high/low) workload to N named
// classes: tenant i is assigned class ID i in list order, arrivals are
// drawn from the tenants' Shares instead of the generator's high-class
// fraction, and per-class results appear in Report.Classes under the
// tenants' names. Events and the fairness controller address tenants
// by Name.
type TenantSpec struct {
	// Name labels the tenant in reports, snapshots and events.
	// Required, distinct across the block.
	Name string `json:"name"`
	// Weight is the tenant's relative share weight — the WFQ weight
	// under the "wfq" queue policy, and the fairness controller's
	// entitlement. 0 means 1.
	Weight float64 `json:"weight,omitempty"`
	// Share is the tenant's fraction of arrivals. Shares must each be
	// > 0 and sum to 1 across the block.
	Share float64 `json:"share"`
	// SLOTarget is the tenant's declared p95 response-time target in
	// seconds (0 = none). Advisory metadata: recorded in the tenant
	// registry for operators and future controllers.
	SLOTarget float64 `json:"slo_target,omitempty"`
	// SizeMean, when > 0, scales the tenant's transactions by a
	// lognormal multiplier with this mean and squared coefficient of
	// variation SizeC2 (SizeC2 0 = deterministic scaling). A
	// heavy-tailed multiplier (SizeC2 >> 1) gives the tenant the
	// occasional huge transaction of real multi-tenant traffic.
	SizeMean float64 `json:"size_mean,omitempty"`
	SizeC2   float64 `json:"size_c2,omitempty"`
}

// weight is the tenant's effective weight (0 means 1).
func (t TenantSpec) weight() float64 {
	if t.Weight == 0 {
		return 1
	}
	return t.Weight
}

// FairnessSpec configures the N-tenant weighted max-min fairness
// controller (internal/fairness): it partitions the MPL across the
// tenant classes (work-conserving — idle slots are still lent across
// the partition) and steers the split so each tenant's
// weight-normalized attained service equalizes. Two invariants hold
// after every reaction: the per-tenant limits sum to the MPL, and every
// tenant keeps at least one slot — an aggressor can never capture the
// whole gate. Unsharded systems only. It runs alongside the feedback
// controller (which sets the MPL it partitions) but not with the SLO
// controller: both write the class partition.
type FairnessSpec struct {
	// Weights overrides the tenants' declared weights, keyed by tenant
	// name (every listed name must resolve; weights > 0). Nil means
	// "use the tenants block's weights". Without a tenants block the
	// weights name the governed classes outright.
	Weights map[string]float64 `json:"weights,omitempty"`
	// MinObservations gates fairness-window close (0 = 50
	// completions).
	MinObservations int `json:"min_observations,omitempty"`
	// Hysteresis is the imbalance ratio a busy donor must exceed
	// before a slot moves (0 = 1.2; otherwise >= 1).
	Hysteresis float64 `json:"hysteresis,omitempty"`
	// Strict makes the partition a hard cap: a tenant at its limit
	// never borrows idle capacity. Trades utilization for latency
	// isolation — under strict an overloaded tenant cannot keep the
	// backend saturated, so the others' in-DBMS times hold near their
	// uncontended levels. Default false (work-conserving borrowing).
	Strict bool `json:"strict,omitempty"`
}

// ControllerSpec configures the paper's Section 4.3 feedback
// controller when an Event enables it mid-scenario.
type ControllerSpec struct {
	// MaxThroughputLoss is the acceptable fractional throughput loss
	// versus the reference (e.g. 0.05 keeps 95%). Required.
	MaxThroughputLoss float64 `json:"max_throughput_loss"`
	// ReferenceThroughput is the no-MPL optimum in transactions per
	// second (measure it with an unlimited run, or model it with the
	// queueing models). Required.
	ReferenceThroughput float64 `json:"reference_throughput"`
	// MaxRTIncrease / ReferenceRT enable the optional response-time
	// criterion; zero values disable it.
	MaxRTIncrease float64 `json:"max_rt_increase,omitempty"`
	ReferenceRT   float64 `json:"reference_rt,omitempty"`
	// MinObservations gates observation-window close (0 = the paper's
	// 100 completions); HoldWindows is the convergence hold count
	// (0 = 2).
	MinObservations int `json:"min_observations,omitempty"`
	HoldWindows     int `json:"hold_windows,omitempty"`
	// StopOnConverge ends the scenario as soon as the controller
	// converges (the AutoTune workflow): the remaining phase time and
	// any later phases are skipped.
	StopOnConverge bool `json:"stop_on_converge,omitempty"`
}

// ShardSpeedEvent retargets one shard's relative CPU speed mid-run:
// model a replica slowing down (speed < 1), failing in slow motion
// (speed ≪ 1), or recovering (speed back to 1).
type ShardSpeedEvent struct {
	Shard int     `json:"shard"`
	Speed float64 `json:"speed"`
}

// SLOSpec configures the per-class latency-SLO controller: it
// partitions the MPL between the protected class and one other class
// (work-conserving — unused slots are lent across the partition) and
// steers the split so the protected class's response-time percentile
// stays at or below Target, leaving every remaining slot to the other
// class's throughput. The other class is "low" (class 0), or "high"
// (class 1) when class 0 is the protected one. Pair it with admission
// deadlines to shed un-startable work under overload; the partition
// shapes contention, the deadline bounds the backlog.
type SLOSpec struct {
	// Class names the protected class like every tenant-keyed field:
	// a tenants-block name, a registered name, or "high" (the default)
	// or "low".
	Class string `json:"class,omitempty"`
	// Percentile is the controlled response-time percentile (0 = 95).
	Percentile float64 `json:"percentile,omitempty"`
	// Target is the latency bound in seconds. Required, > 0.
	Target float64 `json:"target"`
	// MinObservations gates the SLO observation window (0 = 50
	// completions, at least a tenth of them from the protected class).
	MinObservations int `json:"min_observations,omitempty"`
	// Margin is the give-back hysteresis: a slot returns to the other
	// class only while the measured percentile is below Margin×Target
	// (0 = 0.5).
	Margin float64 `json:"margin,omitempty"`
}

// builtinClasses is the two-class pair every stack knows without a
// tenants block: the paper's high- and low-priority classes.
var builtinClasses = map[string]core.Class{"high": core.ClassHigh, "low": core.ClassLow}

// Validate checks an SLOSpec's standalone fields.
func (s SLOSpec) Validate() error {
	if !finite(s.Target, s.Percentile, s.Margin) {
		return fmt.Errorf("runner: SLO parameters must be finite")
	}
	if s.Target <= 0 {
		return fmt.Errorf("runner: SLO target %v must be positive seconds", s.Target)
	}
	if s.Percentile < 0 || s.Percentile >= 100 {
		return fmt.Errorf("runner: SLO percentile %v outside [0,100) (0 = 95)", s.Percentile)
	}
	if s.Margin < 0 || s.Margin >= 1 {
		return fmt.Errorf("runner: SLO margin %v outside [0,1) (0 = 0.5)", s.Margin)
	}
	if s.MinObservations < 0 {
		return fmt.Errorf("runner: SLO MinObservations %d must be >= 0", s.MinObservations)
	}
	return nil
}

// TenantLimits is a static per-tenant MPL partition, keyed by tenant
// name (see Event.SetTenantLimits). An empty map clears the partition.
type TenantLimits map[string]int

// Event is a mid-phase control action, applied At seconds after the
// phase's measured start (for the first phase: after warmup ends).
// Zero-valued action fields are skipped, so one Event can carry
// several actions at one instant. Tenant names resolve in one order:
// the tenants block, then the stack's registered names, then the
// built-in "high"/"low" pair.
type Event struct {
	At float64 `json:"at"`
	// SetMPL changes the multiprogramming limit (0 = unlimited). On a
	// sharded system it is the cluster-wide limit, split across shards
	// by cluster.SplitMPL.
	SetMPL *int `json:"set_mpl,omitempty"`
	// SetWeights reweights the WFQ policy per tenant, by name. The map
	// replaces the policy's weights: tenants absent from it fall back
	// to weight 1. Ignored when the policy is not WFQ.
	SetWeights map[string]float64 `json:"set_weights,omitempty"`
	// SetTenantLimits installs a static per-tenant MPL partition, by
	// tenant name: each listed tenant dispatches at most that many
	// transactions at once (each >= 1), work-conserving. Limits are not
	// checked against the MPL: the MPL still caps the total, so limits
	// summing past it leave the tenants contending for the shared
	// slots. An empty (but non-nil) map clears the partition — a
	// pointer so the clear form {} survives a marshal round trip.
	// Unsharded systems only.
	SetTenantLimits *TenantLimits `json:"set_tenant_limits,omitempty"`
	// SetTenantDeadlines changes per-tenant admission deadlines in
	// seconds, by tenant name (zero clears a tenant's deadline; tenants
	// absent from the map keep theirs). Works on sharded systems too —
	// each shard sheds against its own queue.
	SetTenantDeadlines map[string]float64 `json:"set_tenant_deadlines,omitempty"`
	// EnableFairness attaches (or replaces) the weighted max-min
	// fairness controller; DisableFairness detaches it, freezing the
	// tenant partition where the loop left it. Unsharded systems only.
	EnableFairness  *FairnessSpec `json:"enable_fairness,omitempty"`
	DisableFairness bool          `json:"disable_fairness,omitempty"`
	// SetShardSpeed changes one shard's relative CPU speed. Running it
	// against an unsharded system is an error.
	SetShardSpeed *ShardSpeedEvent `json:"set_shard_speed,omitempty"`
	// SetDispatch switches the cluster's dispatch policy ("rr", "jsq",
	// "lwl", "affinity", or the sampled "jsq-d"/"lwl-d" with an
	// optional width like "jsq-d:3") mid-run. Running it against an
	// unsharded system is an error.
	SetDispatch string `json:"set_dispatch,omitempty"`
	// EnableController attaches the feedback controller to the
	// completion stream; DisableController detaches it, freezing the
	// MPL where the loop left it.
	EnableController  *ControllerSpec `json:"enable_controller,omitempty"`
	DisableController bool            `json:"disable_controller,omitempty"`
	// SetSLO attaches (or replaces) the latency-SLO controller;
	// DisableSLO detaches it, freezing the class partition where the
	// loop left it. Running either against a sharded system is an
	// error.
	SetSLO     *SLOSpec `json:"set_slo,omitempty"`
	DisableSLO bool     `json:"disable_slo,omitempty"`
	// ShardFail crashes that shard: it goes down, survivors absorb its
	// MPL share, and the work it held goes to the stack's recovery
	// policy (resubmit with backoff, or shed). Error on unsharded
	// systems.
	ShardFail *int `json:"shard_fail,omitempty"`
	// ShardRecover returns a down shard to service (or cancels a
	// drain). Error on unsharded systems.
	ShardRecover *int `json:"shard_recover,omitempty"`
	// ShardRemove drains that shard gracefully: no new work routes to
	// it and it leaves the fleet once empty. Error on unsharded
	// systems.
	ShardRemove *int `json:"shard_remove,omitempty"`
	// ShardAdd joins a fresh shard (same workload and queue policy as
	// the rest of the fleet, nominal speed, seeded by its index). Error
	// on unsharded systems.
	ShardAdd bool `json:"shard_add,omitempty"`
	// churn marks a generator-synthesized fail event, which is skipped
	// if it would take the last Up shard down.
	churn bool
}

// AutoscaleSpec arms the fleet autoscaler for the whole scenario: a
// hysteresis controller (internal/autoscale) ticking every Interval
// simulated seconds from the first arrival, reading the mean
// per-up-shard backlog ((queued+inflight)/up shards) and growing or
// draining the shard fleet within [Min, Max]. Scale-ups reuse a parked
// (down or draining) shard first and only build a fresh one when every
// slot is serving; scale-downs drain the highest-index up shard.
// Sharded systems only.
type AutoscaleSpec struct {
	// Min / Max bound the serving fleet size (1 <= Min <= Max).
	Min int `json:"min"`
	Max int `json:"max"`
	// Interval is the controller tick period in simulated seconds
	// (0 = 1).
	Interval float64 `json:"interval,omitempty"`
	// HighWater / LowWater are the per-up-shard backlog watermarks:
	// at or above HighWater for BreachWindows consecutive ticks scales
	// up, at or below LowWater for CalmWindows ticks scales down, and
	// the band between them holds. Zeros default to HighWater 8 and
	// LowWater HighWater/4.
	HighWater float64 `json:"high_water,omitempty"`
	LowWater  float64 `json:"low_water,omitempty"`
	// BreachWindows / CalmWindows are the consecutive-tick thresholds
	// (0s = defaults: 2, and 3x BreachWindows — scaling down is
	// deliberately slower than scaling up).
	BreachWindows int `json:"breach_windows,omitempty"`
	CalmWindows   int `json:"calm_windows,omitempty"`
	// Cooldown is the minimum time between actions in simulated
	// seconds (0 = 2x Interval).
	Cooldown float64 `json:"cooldown,omitempty"`
	// MPLPerShard, when > 0, retargets the cluster-wide MPL to this
	// many slots per up shard after every fleet change, so admitted
	// concurrency scales with capacity.
	MPLPerShard int `json:"mpl_per_shard,omitempty"`
}

// config translates the spec to the controller's vocabulary.
func (a AutoscaleSpec) config() autoscale.Config {
	return autoscale.Config{
		Min:           a.Min,
		Max:           a.Max,
		Interval:      a.Interval,
		HighWater:     a.HighWater,
		LowWater:      a.LowWater,
		BreachWindows: a.BreachWindows,
		CalmWindows:   a.CalmWindows,
		Cooldown:      a.Cooldown,
	}
}

// Validate checks an autoscale spec without touching a stack.
func (a AutoscaleSpec) Validate() error {
	if a.MPLPerShard < 0 {
		return fmt.Errorf("runner: autoscale MPL per shard %d must be >= 0", a.MPLPerShard)
	}
	return a.config().Validate()
}

// ChurnSpec runs a deterministic MTBF/MTTR fault generator for one
// phase: each shard independently alternates exponential up times
// (mean MTBF) and down times (mean MTTR), drawn from a seeded
// per-shard stream, so the same spec and seed produce the same failure
// schedule on every run. A generated failure that would take the last
// up shard down is skipped. Sharded systems only.
type ChurnSpec struct {
	// MTBF is the per-shard mean time between failures in simulated
	// seconds (> 0).
	MTBF float64 `json:"mtbf"`
	// MTTR is the per-shard mean time to recovery in simulated seconds
	// (> 0).
	MTTR float64 `json:"mttr"`
	// Seed drives the failure schedule (0 = the stack seed).
	Seed uint64 `json:"seed,omitempty"`
}

// Validate checks a churn generator's parameters.
func (c ChurnSpec) Validate() error {
	if !finite(c.MTBF, c.MTTR) {
		return fmt.Errorf("runner: churn MTBF/MTTR must be finite")
	}
	if c.MTBF <= 0 {
		return fmt.Errorf("runner: churn MTBF %v must be positive", c.MTBF)
	}
	if c.MTTR <= 0 {
		return fmt.Errorf("runner: churn MTTR %v must be positive", c.MTTR)
	}
	return nil
}

// Phase is one segment of a Scenario: a traffic source run for
// Duration simulated seconds, with optional mid-phase control events.
// Which parameter fields apply depends on Kind; the rest are ignored.
type Phase struct {
	// Name labels the phase in reports and snapshots (default: Kind).
	Name string `json:"name,omitempty"`
	// Kind is one of the Phase* kinds.
	Kind PhaseKind `json:"kind"`
	// Duration is the phase length in simulated seconds (>= 0). A
	// zero-duration phase starts and stops its traffic source at a
	// single instant — useful to inject a one-shot burst of closed
	// clients whose transactions drain into the next phase.
	Duration float64 `json:"duration"`
	// Clients is the closed population (0 = 100, the paper's choice);
	// ThinkTime the mean exponential think time in seconds (0 = none).
	Clients   int     `json:"clients,omitempty"`
	ThinkTime float64 `json:"think_time,omitempty"`
	// Lambda is the arrival rate in transactions/second for open and
	// burst phases, and the starting rate of a ramp; Lambda2 is the
	// ramp's ending rate.
	Lambda  float64 `json:"lambda,omitempty"`
	Lambda2 float64 `json:"lambda2,omitempty"`
	// BurstFactor / BurstPeriod shape a burst phase: the on/off state
	// rates differ by Factor², normalized so the long-run mean stays at
	// Lambda; state sojourns are exponential with mean Period seconds
	// (0s = defaults: factor 2, period 100 mean interarrivals).
	BurstFactor float64 `json:"burst_factor,omitempty"`
	BurstPeriod float64 `json:"burst_period,omitempty"`
	// DiurnalAmp / DiurnalPeriod shape a diurnal phase: the rate
	// follows Lambda·(1 + Amp·sin(2πt/Period)), amplitude in (0,1],
	// period in seconds. Required for PhaseDiurnal; optional overlay on
	// PhaseFlash.
	DiurnalAmp    float64 `json:"diurnal_amp,omitempty"`
	DiurnalPeriod float64 `json:"diurnal_period,omitempty"`
	// FlashFactor / FlashAt / FlashDuration shape a flash crowd: for
	// FlashDuration seconds starting FlashAt seconds into the phase,
	// the rate multiplies by FlashFactor (>= 1). Required for
	// PhaseFlash; optional overlay on PhaseDiurnal.
	FlashFactor   float64 `json:"flash_factor,omitempty"`
	FlashAt       float64 `json:"flash_at,omitempty"`
	FlashDuration float64 `json:"flash_duration,omitempty"`
	// Trace embeds a trace to replay; TraceSynth synthesizes one
	// instead, once per run when the phase starts (exactly one of the
	// two for a trace phase). TraceSpeedup divides the trace's
	// inter-arrival gaps (0 = 1).
	Trace        *trace.Trace       `json:"trace,omitempty"`
	TraceSynth   *trace.SynthConfig `json:"trace_synth,omitempty"`
	TraceSpeedup float64            `json:"trace_speedup,omitempty"`
	// Churn, when non-nil, runs the MTBF/MTTR fault generator for this
	// phase (sharded systems only); its fail/recover events merge with
	// Events.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Events are mid-phase control actions.
	Events []Event `json:"events,omitempty"`
}

// label returns the phase's display name.
func (p Phase) label() string {
	if p.Name != "" {
		return p.Name
	}
	return string(p.Kind)
}

// Scenario is a declarative description of one experiment: a warmup,
// then an ordered list of traffic phases with mid-phase control
// events. Running it on pristine simulation state with the same seed
// is bit-identical.
type Scenario struct {
	// Name labels the scenario in output files (unused by the engine).
	Name string `json:"name,omitempty"`
	// Warmup is discarded simulated seconds driven by the first
	// phase's traffic source before the measurement window opens.
	Warmup float64 `json:"warmup,omitempty"`
	// SampleInterval, when > 0, streams one windowed metrics.Snapshot
	// to every observer each interval (counters cover the interval) and
	// records the series in Result.Snapshots.
	SampleInterval float64 `json:"sample_interval,omitempty"`
	// Tenants declares an N-tenant workload: tenant i gets class ID i,
	// arrivals are split by the tenants' Shares (replacing the
	// generator's high-class fraction), and per-tenant results appear
	// under the tenants' names in Report.Classes. At least two tenants
	// when present.
	Tenants []TenantSpec `json:"tenants,omitempty"`
	// Fairness, when non-nil, runs the whole scenario under the
	// weighted max-min fairness controller from the moment the
	// measurement window opens (an event-free way to arm it;
	// enable_fairness events can still replace it). Needs a tenants
	// block or explicit weights, and an unsharded system.
	Fairness *FairnessSpec `json:"fairness,omitempty"`
	// Autoscale, when non-nil, arms the fleet autoscaler for the whole
	// run (sharded systems only).
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
	Phases    []Phase        `json:"phases"`
	// ParallelShards is not decoded from JSON, so ParseScenario
	// rejects a parallel_shards key as an unknown field.
	//
	// Deprecated: has no effect; every run uses the sequential engine.
	// Its only remaining user is the benchmark's parallel drill
	// (bench/drills.go), which now runs the sequential engine both ways.
	ParallelShards bool `json:"-"`
}

// finite reports whether every value is a finite float — the
// executor schedules events at these offsets, and the engine (rightly)
// panics on NaN/Inf times, so Validate must reject them first. JSON
// cannot encode non-finite numbers, but scenarios built in code can.
func finite(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// maxTenants bounds a tenants block: tenant i is class i, and the
// frontend accepts classes in [0, core.MaxClass].
const maxTenants = core.MaxClass + 1

// classOf maps a tenant name to its class ID: the tenants block first
// (tenant i is class i), then the stack's registered names
// (registered, e.g. Stack.ClassNames; nil skips the step), then the
// built-in "high"/"low" pair.
func (sc *Scenario) classOf(registered map[core.Class]string, name string) (core.Class, error) {
	for i, t := range sc.Tenants {
		if t.Name == name {
			return core.Class(i), nil
		}
	}
	found := false
	var best core.Class
	for c, n := range registered {
		// The lowest ID wins if a name is registered twice, so the
		// lookup does not depend on map order.
		if n == name && (!found || c < best) {
			best, found = c, true
		}
	}
	if found {
		return best, nil
	}
	if c, ok := builtinClasses[name]; ok {
		return c, nil
	}
	return 0, fmt.Errorf("runner: unknown tenant %q (not in the tenants block, not registered, not high or low)", name)
}

// sloClass resolves an SLO's protected class through classOf ("" means
// "high") and returns it with the name it resolved.
func (sc *Scenario) sloClass(registered map[core.Class]string, s SLOSpec) (core.Class, string, error) {
	name := s.Class
	if name == "" {
		name = "high"
	}
	c, err := sc.classOf(registered, name)
	return c, name, err
}

// fairnessWeights resolves a fairness spec to per-class weights: every
// tenant of the block at its declared weight, then the spec's Weights
// by name on top.
func (sc *Scenario) fairnessWeights(registered map[core.Class]string, fs FairnessSpec) (map[core.Class]float64, error) {
	w := make(map[core.Class]float64, len(sc.Tenants)+len(fs.Weights))
	for i, t := range sc.Tenants {
		w[core.Class(i)] = t.weight()
	}
	for name, v := range fs.Weights {
		c, err := sc.classOf(registered, name)
		if err != nil {
			return nil, err
		}
		w[c] = v
	}
	if len(w) < 2 {
		return nil, fmt.Errorf("runner: fairness needs >= 2 weighted classes (a tenants block or explicit weights), got %d", len(w))
	}
	for c, v := range w {
		if v <= 0 || !finite(v) {
			return nil, fmt.Errorf("runner: fairness class %d weight %v must be positive", c, v)
		}
	}
	if !finite(fs.Hysteresis) || (fs.Hysteresis != 0 && fs.Hysteresis < 1) {
		return nil, fmt.Errorf("runner: fairness hysteresis %v must be >= 1 (0 = default)", fs.Hysteresis)
	}
	if fs.MinObservations < 0 {
		return nil, fmt.Errorf("runner: fairness MinObservations %d must be >= 0", fs.MinObservations)
	}
	return w, nil
}

// Validate checks the scenario without touching a stack: phase kinds
// and parameters, events, tenant names, and TraceSynth configurations
// (without synthesizing any traces). Run repeats the checks against
// its stack, which adds the stack's registered tenant names and the
// shard-count checks only a built system can answer.
func (sc Scenario) Validate() error {
	return sc.validate(nil)
}

// validateTenants checks the tenants block's standalone fields.
func (sc *Scenario) validateTenants() error {
	if len(sc.Tenants) == 0 {
		return nil
	}
	if len(sc.Tenants) < 2 {
		return fmt.Errorf("runner: a tenants block needs >= 2 tenants, have %d", len(sc.Tenants))
	}
	if len(sc.Tenants) > maxTenants {
		return fmt.Errorf("runner: %d tenants exceeds the %d limit", len(sc.Tenants), maxTenants)
	}
	seen := make(map[string]bool, len(sc.Tenants))
	total := 0.0
	for i, t := range sc.Tenants {
		if t.Name == "" {
			return fmt.Errorf("runner: tenant %d: name is required", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("runner: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		if t.Weight < 0 || !finite(t.Weight) {
			return fmt.Errorf("runner: tenant %q weight %v must be >= 0 (0 = 1)", t.Name, t.Weight)
		}
		if t.Share <= 0 || !finite(t.Share) {
			return fmt.Errorf("runner: tenant %q share %v must be > 0", t.Name, t.Share)
		}
		if t.SLOTarget < 0 {
			return fmt.Errorf("runner: tenant %q slo_target %v must be >= 0", t.Name, t.SLOTarget)
		}
		if t.SizeMean < 0 || t.SizeC2 < 0 {
			return fmt.Errorf("runner: tenant %q size dist (mean %v, c2 %v) must be >= 0", t.Name, t.SizeMean, t.SizeC2)
		}
		total += t.Share
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("runner: tenant shares sum to %v, want 1", total)
	}
	return nil
}

// validate is Validate against an optional stack: with st, tenant
// names also resolve through st.ClassNames, and shard-targeted actions
// are checked against the stack's fleet.
func (sc *Scenario) validate(st *Stack) error {
	var registered map[core.Class]string
	if st != nil {
		registered = st.ClassNames
	}
	if len(sc.Phases) == 0 {
		return fmt.Errorf("runner: scenario has no phases")
	}
	if sc.Warmup < 0 || !finite(sc.Warmup) {
		return fmt.Errorf("runner: warmup %v must be finite and >= 0", sc.Warmup)
	}
	if sc.SampleInterval < 0 || !finite(sc.SampleInterval) {
		return fmt.Errorf("runner: sample interval %v must be finite and >= 0", sc.SampleInterval)
	}
	if err := sc.validateTenants(); err != nil {
		return err
	}
	if st != nil && st.SLO != nil {
		if _, _, err := sc.sloClass(registered, *st.SLO); err != nil {
			return fmt.Errorf("runner: slo class: %w", err)
		}
	}
	if fs := sc.Fairness; fs != nil {
		if len(sc.Tenants) == 0 && len(fs.Weights) == 0 {
			return fmt.Errorf("runner: scenario-level fairness needs a tenants block or explicit weights")
		}
		if _, err := sc.fairnessWeights(registered, *fs); err != nil {
			return err
		}
	}
	if sc.Autoscale != nil {
		if err := sc.Autoscale.Validate(); err != nil {
			return err
		}
	}
	sharded := st != nil && st.Cluster != nil
	if st != nil && !sharded && sc.Autoscale != nil {
		return fmt.Errorf("runner: autoscale on an unsharded system")
	}
	for i := range sc.Phases {
		ph := &sc.Phases[i]
		prefix := fmt.Sprintf("runner: phase %d (%s)", i, ph.label())
		if err := ph.validate(); err != nil {
			return fmt.Errorf("%s: %w", prefix, err)
		}
		if st != nil && !sharded && ph.Churn != nil {
			return fmt.Errorf("%s: churn on an unsharded system", prefix)
		}
		for j := range ph.Events {
			ev := &ph.Events[j]
			if err := sc.validateEvent(registered, ev); err != nil {
				return fmt.Errorf("%s event %d: %w", prefix, j, err)
			}
		}
		if st != nil {
			if err := checkShardTargets(st, ph); err != nil {
				return fmt.Errorf("%s: %w", prefix, err)
			}
		}
	}
	return nil
}

// validate checks one phase's traffic parameters.
func (ph *Phase) validate() error {
	if !finite(ph.Duration, ph.ThinkTime, ph.Lambda, ph.Lambda2, ph.BurstFactor, ph.BurstPeriod, ph.TraceSpeedup,
		ph.DiurnalAmp, ph.DiurnalPeriod, ph.FlashFactor, ph.FlashAt, ph.FlashDuration) {
		return fmt.Errorf("parameters must be finite")
	}
	if ph.Duration < 0 {
		return fmt.Errorf("duration %v must be >= 0", ph.Duration)
	}
	switch ph.Kind {
	case PhaseClosed:
		if ph.Clients < 0 {
			return fmt.Errorf("clients %d must be >= 0", ph.Clients)
		}
		if ph.ThinkTime < 0 {
			return fmt.Errorf("think time %v must be >= 0", ph.ThinkTime)
		}
	case PhaseOpen:
		if ph.Lambda <= 0 {
			return fmt.Errorf("lambda %v must be positive", ph.Lambda)
		}
	case PhaseRamp:
		if ph.Lambda < 0 || ph.Lambda2 < 0 || (ph.Lambda == 0 && ph.Lambda2 == 0) {
			return fmt.Errorf("ramp rates %v -> %v must be >= 0 with a positive peak", ph.Lambda, ph.Lambda2)
		}
		if ph.Duration <= 0 {
			return fmt.Errorf("a ramp needs a positive duration")
		}
	case PhaseBurst:
		if ph.Lambda <= 0 {
			return fmt.Errorf("lambda %v must be positive", ph.Lambda)
		}
		if ph.BurstFactor < 0 || (ph.BurstFactor > 0 && ph.BurstFactor < 1) {
			return fmt.Errorf("burst factor %v must be >= 1 (0 = default)", ph.BurstFactor)
		}
		if ph.BurstPeriod < 0 {
			return fmt.Errorf("burst period %v must be >= 0 (0 = default)", ph.BurstPeriod)
		}
	case PhaseTrace:
		switch {
		case ph.Trace != nil && ph.TraceSynth != nil:
			return fmt.Errorf("set either Trace or TraceSynth, not both")
		case ph.TraceSynth != nil:
			if err := ph.TraceSynth.Validate(); err != nil {
				return err
			}
		case ph.Trace == nil || ph.Trace.Len() == 0:
			return fmt.Errorf("a trace phase needs a non-empty trace")
		default:
			if err := ph.Trace.Validate(); err != nil {
				return err
			}
		}
		if ph.TraceSpeedup < 0 {
			return fmt.Errorf("trace speedup %v must be >= 0 (0 = 1)", ph.TraceSpeedup)
		}
	case PhaseDiurnal:
		if ph.Lambda <= 0 {
			return fmt.Errorf("lambda %v must be positive", ph.Lambda)
		}
		if ph.DiurnalAmp <= 0 || ph.DiurnalAmp > 1 {
			return fmt.Errorf("diurnal amplitude %v must be in (0,1]", ph.DiurnalAmp)
		}
		if ph.DiurnalPeriod <= 0 {
			return fmt.Errorf("diurnal period %v must be positive", ph.DiurnalPeriod)
		}
		if ph.FlashFactor != 0 && ph.FlashFactor < 1 {
			return fmt.Errorf("flash factor %v must be >= 1 (0 = none)", ph.FlashFactor)
		}
		if ph.FlashAt < 0 || ph.FlashDuration < 0 {
			return fmt.Errorf("flash window [%v, +%v) must be >= 0", ph.FlashAt, ph.FlashDuration)
		}
	case PhaseFlash:
		if ph.Lambda <= 0 {
			return fmt.Errorf("lambda %v must be positive", ph.Lambda)
		}
		if ph.FlashFactor < 1 {
			return fmt.Errorf("flash factor %v must be >= 1", ph.FlashFactor)
		}
		if ph.FlashAt < 0 || ph.FlashDuration <= 0 {
			return fmt.Errorf("flash window [%v, +%v) needs a positive duration and offset >= 0", ph.FlashAt, ph.FlashDuration)
		}
		if ph.DiurnalAmp != 0 {
			if ph.DiurnalAmp < 0 || ph.DiurnalAmp > 1 {
				return fmt.Errorf("diurnal amplitude %v must be in (0,1] (0 = none)", ph.DiurnalAmp)
			}
			if ph.DiurnalPeriod <= 0 {
				return fmt.Errorf("diurnal period %v must be positive", ph.DiurnalPeriod)
			}
		}
	default:
		return fmt.Errorf("unknown kind %q (want %s, %s, %s, %s, %s, %s or %s)",
			ph.Kind, PhaseClosed, PhaseOpen, PhaseRamp, PhaseBurst, PhaseTrace, PhaseDiurnal, PhaseFlash)
	}
	if ph.Churn != nil {
		if err := ph.Churn.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// validateEvent checks one event's actions; tenant names must resolve.
func (sc *Scenario) validateEvent(registered map[core.Class]string, ev *Event) error {
	if ev.At < 0 || !finite(ev.At) {
		return fmt.Errorf("offset %v must be finite and >= 0", ev.At)
	}
	if ev.SetMPL != nil && *ev.SetMPL < 0 {
		return fmt.Errorf("MPL %d must be >= 0", *ev.SetMPL)
	}
	for name, w := range ev.SetWeights {
		if _, err := sc.classOf(registered, name); err != nil {
			return fmt.Errorf("set_weights: %w", err)
		}
		if w <= 0 || !finite(w) {
			return fmt.Errorf("tenant %q WFQ weight %v must be positive", name, w)
		}
	}
	if ev.SetTenantLimits != nil {
		for name, l := range *ev.SetTenantLimits {
			if _, err := sc.classOf(registered, name); err != nil {
				return fmt.Errorf("set_tenant_limits: %w", err)
			}
			if l < 1 {
				return fmt.Errorf("tenant %q limit %d must be >= 1", name, l)
			}
		}
	}
	for name, d := range ev.SetTenantDeadlines {
		if _, err := sc.classOf(registered, name); err != nil {
			return fmt.Errorf("set_tenant_deadlines: %w", err)
		}
		if d < 0 || !finite(d) {
			return fmt.Errorf("tenant %q admit deadline %v must be finite and >= 0", name, d)
		}
	}
	if fs := ev.EnableFairness; fs != nil {
		if _, err := sc.fairnessWeights(registered, *fs); err != nil {
			return fmt.Errorf("enable_fairness: %w", err)
		}
	}
	if ss := ev.SetShardSpeed; ss != nil {
		if ss.Shard < 0 {
			return fmt.Errorf("shard %d must be >= 0", ss.Shard)
		}
		if ss.Speed <= 0 || !finite(ss.Speed) {
			return fmt.Errorf("shard speed %v must be positive", ss.Speed)
		}
	}
	if ev.SetDispatch != "" {
		if _, err := cluster.NewPolicy(ev.SetDispatch); err != nil {
			return err
		}
	}
	if cs := ev.EnableController; cs != nil {
		if cs.MaxThroughputLoss < 0 || cs.MaxThroughputLoss >= 1 {
			return fmt.Errorf("MaxThroughputLoss %v outside [0,1)", cs.MaxThroughputLoss)
		}
		if cs.ReferenceThroughput <= 0 {
			return fmt.Errorf("ReferenceThroughput required")
		}
	}
	if ev.SetSLO != nil {
		if err := ev.SetSLO.Validate(); err != nil {
			return err
		}
		if _, _, err := sc.sloClass(registered, *ev.SetSLO); err != nil {
			return fmt.Errorf("set_slo class: %w", err)
		}
	}
	for _, sh := range shardTargets(ev) {
		if sh.idx != nil && *sh.idx < 0 {
			return fmt.Errorf("%s shard %d must be >= 0", sh.name, *sh.idx)
		}
	}
	return nil
}

// shardTarget names one shard-indexed lifecycle action of an event.
type shardTarget struct {
	name string
	idx  *int
}

func shardTargets(ev *Event) [3]shardTarget {
	return [3]shardTarget{
		{"shard_fail", ev.ShardFail},
		{"shard_recover", ev.ShardRecover},
		{"shard_remove", ev.ShardRemove},
	}
}

// checkShardTargets vets one phase's lifecycle actions against the
// stack's fleet: lifecycle events need a sharded stack, and
// fail/recover/remove targets must name a shard that exists by the
// time the event fires (the starting fleet plus any earlier shard_add
// events).
func checkShardTargets(st *Stack, ph *Phase) error {
	if st.Cluster == nil {
		for j := range ph.Events {
			ev := &ph.Events[j]
			if ev.ShardFail != nil || ev.ShardRecover != nil || ev.ShardRemove != nil || ev.ShardAdd {
				return fmt.Errorf("event %d: shard lifecycle event on an unsharded system", j)
			}
		}
		return nil
	}
	n := st.Cluster.NumShards()
	// Walk the events in firing order, growing the known fleet at each
	// shard_add.
	evs := append([]Event(nil), ph.Events...)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
	for j := range evs {
		if evs[j].ShardAdd {
			n++
		}
		for _, tgt := range shardTargets(&evs[j]) {
			if tgt.idx != nil && *tgt.idx >= n {
				return fmt.Errorf("event %d: %s targets unknown shard %d (fleet has %d)", j, tgt.name, *tgt.idx, n)
			}
		}
	}
	return nil
}
