// Package extsched is a reproduction of Schroeder, Harchol-Balter,
// Iyengar, Nahum and Wierman, "How to determine a good
// multi-programming level for external scheduling" (ICDE 2006).
//
// It provides:
//
//   - a discrete-event-simulated transactional DBMS (multi-core PS
//     CPU, striped disks + group-commit log device, LRU buffer pool
//     with optional checkpointer, strict-2PL lock manager with
//     deadlock detection, wait timeouts and Preempt-on-Wait, plus a
//     PostgreSQL-style snapshot-isolation mode);
//   - the paper's external scheduling front-end: an MPL gate with a
//     reorderable external queue (FIFO / Priority / SJF / WFQ) and an
//     optional admission-control drop mode;
//   - the queueing models of Sections 4.1–4.2 (closed-network MVA and
//     the matrix-geometric solution of the FIFO→PS-with-MPL chain);
//   - the Section 4.3 feedback controller that auto-tunes the MPL to
//     DBA-specified throughput/response-time tolerances; and
//   - drivers that regenerate every figure and table of the paper's
//     evaluation (see the experiments subcommands of cmd/benchrunner
//     and the benchmarks at the repository root).
//
// The System type in this package is the high-level entry point: it
// binds a simulated DBMS configuration — one of the paper's Table 2
// setups, or a custom one — to the external scheduler, and runs
// declarative Scenarios against it: ordered phases of traffic (closed
// populations, open Poisson, bursty MMPP, rate ramps, trace replays)
// with mid-phase control events (MPL changes, queue reweighting, the
// feedback controller). Each Run rebuilds pristine simulation state
// from the Config's seed, so a System is reusable and repeated runs
// are bit-identical. RunClosed, RunOpen and AutoTune are thin wrappers
// over one-phase scenarios; streaming time-series metrics flow to
// metrics.Observer implementations registered with Observe. Lower-
// level building blocks live in the internal packages.
package extsched

import (
	"context"
	"fmt"

	"extsched/internal/cluster"
	"extsched/internal/controller"
	"extsched/internal/core"
	"extsched/internal/dbms"
	"extsched/internal/lockmgr"
	"extsched/internal/runner"
	"extsched/internal/workload"
	"extsched/metrics"
)

// Policy names accepted by Config.Policy.
const (
	PolicyFIFO     = "fifo"
	PolicyPriority = "priority"
	PolicySJF      = "sjf"
	PolicyWFQ      = "wfq"
)

// Config assembles a simulated system.
type Config struct {
	// SetupID selects one of the paper's Table 2 setups (1-17).
	// Zero means use the explicit fields below instead.
	SetupID int
	// Workload names a Table 1 workload (e.g. "W_CPU-inventory") when
	// SetupID is zero.
	Workload string
	// CPUs / Disks / Isolation configure the hardware when SetupID is
	// zero. Isolation is "RR" (default) or "UR".
	CPUs, Disks int
	Isolation   string
	// MPL is the multiprogramming limit; 0 = unlimited.
	MPL int
	// Policy orders the external queue: "fifo" (default), "priority",
	// "sjf", or "wfq".
	Policy string
	// InternalLockPriority enables priority lock queues with
	// Preempt-on-Wait (the Shore experiment of Section 5.2).
	InternalLockPriority bool
	// InternalCPUPriority enables renice-style CPU priorities (the DB2
	// experiment of Section 5.2).
	InternalCPUPriority bool
	// HighPriorityFraction tags this fraction of transactions High
	// (default 0.1, the paper's choice).
	HighPriorityFraction float64
	// WFQHighWeight sets the High class's weight for the "wfq" policy
	// (Low gets 1). Default 4.
	WFQHighWeight float64
	// QueueLimit, when > 0, switches the frontend to admission-control
	// mode: arrivals beyond the limit are dropped (the related-work
	// comparison; pure external scheduling never drops).
	QueueLimit int
	// PercentileSamples is kept so existing configs still compile;
	// Validate still rejects a negative value.
	//
	// Deprecated: has no effect. Every Report carries P50/P95/P99 and
	// a P95 per entry of Report.Classes, from a response-time sketch
	// accurate to stats.SketchAlpha (1%).
	PercentileSamples int
	// SLO, when non-nil, runs every scenario under the latency-SLO
	// controller from the start of its measurement window: the MPL is
	// partitioned across the classes and the split steered to hold the
	// protected class's percentile target. Requires MPL >= 2 and an
	// unsharded system. Scenario SetSLO events can replace it mid-run.
	SLO *SLOSpec
	// ClassLimits, when non-nil, installs a static per-class MPL
	// partition from the start (unsharded systems only).
	ClassLimits *ClassLimits
	// AdmitDeadline, when non-nil, sets per-class admission deadlines:
	// transactions that cannot start in time are shed (counted in
	// Report.Shed) instead of queueing unboundedly.
	AdmitDeadline *AdmitDeadline
	// Recovery configures what happens to the work a failed shard held
	// when a scenario injects faults (shard_fail events or a churn
	// phase). Nil sheds: the work is lost and counted in Report.Failed.
	// Sharded systems only.
	Recovery *RecoverySpec
	// Shards, when Count > 0, fronts a fleet of identical backends
	// instead of one: every run builds Count DBMS+frontend pairs and a
	// dispatch layer that routes each arriving transaction to one of
	// them. MPL then reads as the cluster-wide limit (split across
	// shards), and QueueLimit applies per shard.
	Shards ShardSpec
	// Seed fixes all randomness (default 1).
	Seed uint64
}

// ClassLimits is a static MPL partition installed before warmup: at
// most High high-class and Low low-class transactions dispatched
// concurrently (each >= 1), with work-conserving borrowing when one
// class has no waiting work. Scenario events repartition mid-run with
// set_tenant_limits keyed "high"/"low".
type ClassLimits struct {
	High int `json:"high"`
	Low  int `json:"low"`
}

// AdmitDeadline sets per-class admission deadlines in seconds, from
// before warmup: a transaction that cannot START within its class's
// deadline of arriving is shed — rejected without executing, counted
// in Report.Shed — instead of queueing unboundedly. Zero disables a
// class's deadline. Scenario events change them mid-run with
// set_tenant_deadlines keyed "high"/"low".
type AdmitDeadline struct {
	High float64 `json:"high,omitempty"`
	Low  float64 `json:"low,omitempty"`
}

// Recovery modes accepted by RecoverySpec.Mode.
const (
	// RecoveryShed loses a dead shard's work: each txn's callback fires
	// with failure marked, and the loss is counted in Report.Failed.
	RecoveryShed = "shed"
	// RecoveryResubmit re-routes a dead shard's work to surviving
	// shards after a deterministic capped exponential backoff, up to
	// RetryBudget attempts per transaction.
	RecoveryResubmit = "resubmit"
)

// RecoverySpec configures the sharded fault model's recovery policy.
type RecoverySpec struct {
	// Mode is RecoveryShed (default) or RecoveryResubmit.
	Mode string `json:"mode,omitempty"`
	// RetryBudget is the maximum recovery attempts per logical
	// transaction; required >= 1 for resubmit mode.
	RetryBudget int `json:"retry_budget,omitempty"`
	// BackoffBase and BackoffCap bound the backoff schedule in seconds:
	// attempt k waits min(cap, base·2^(k−1)) scaled by deterministic
	// jitter in [0.5, 1). Zero values default to 0.05 s / 2 s.
	BackoffBase float64 `json:"backoff_base,omitempty"`
	BackoffCap  float64 `json:"backoff_cap,omitempty"`
}

// ShardSpec configures multi-backend sharded dispatch.
type ShardSpec struct {
	// Count is the number of shards (0 = unsharded single backend).
	Count int
	// Speeds are per-shard relative CPU speed multipliers (1 =
	// nominal); empty means all 1, otherwise len must equal Count.
	// Scenario SetShardSpeed events change them mid-run.
	Speeds []float64
	// Dispatch names the routing policy: "rr" (default), "jsq", "lwl",
	// "affinity", or the sampled power-of-d variants "jsq-d"/"lwl-d"
	// with an optional width suffix like "jsq-d:3" (see
	// internal/cluster). Sampled policies draw from a dedicated seeded
	// stream, so runs stay bit-identical. Scenario SetDispatch events
	// switch the policy mid-run.
	Dispatch string
}

// Validate checks the config's standalone fields up front, before any
// simulation state is built: limits must be non-negative, names must
// be known. NewSystem calls it; call it directly to vet user-supplied
// configs (CLI flags, API payloads) cheaply.
func (c Config) Validate() error {
	if c.SetupID == 0 && c.Workload == "" {
		return fmt.Errorf("extsched: either SetupID or Workload is required")
	}
	if c.MPL < 0 {
		return fmt.Errorf("extsched: MPL %d must be >= 0", c.MPL)
	}
	if c.CPUs < 0 || c.Disks < 0 {
		return fmt.Errorf("extsched: CPUs %d and Disks %d must be >= 0", c.CPUs, c.Disks)
	}
	switch c.Policy {
	case "", PolicyFIFO, PolicyPriority, PolicySJF, PolicyWFQ:
	default:
		return fmt.Errorf("extsched: unknown policy %q (want %s, %s, %s or %s)",
			c.Policy, PolicyFIFO, PolicyPriority, PolicySJF, PolicyWFQ)
	}
	if _, err := parseIsolation(c.Isolation); err != nil {
		return err
	}
	if c.HighPriorityFraction < 0 || c.HighPriorityFraction > 1 {
		return fmt.Errorf("extsched: HighPriorityFraction %v outside [0,1]", c.HighPriorityFraction)
	}
	if c.WFQHighWeight < 0 {
		return fmt.Errorf("extsched: WFQHighWeight %v must be >= 0 (0 = default)", c.WFQHighWeight)
	}
	if c.QueueLimit < 0 {
		return fmt.Errorf("extsched: QueueLimit %d must be >= 0", c.QueueLimit)
	}
	if c.PercentileSamples < 0 {
		return fmt.Errorf("extsched: PercentileSamples %d must be >= 0", c.PercentileSamples)
	}
	if s := c.SLO; s != nil {
		if err := s.Validate(); err != nil {
			return err
		}
		if c.MPL < 2 {
			return fmt.Errorf("extsched: SLO control needs MPL >= 2 to partition, have %d", c.MPL)
		}
		if c.Shards.Count > 0 {
			return fmt.Errorf("extsched: SLO control on a sharded system is not supported")
		}
	}
	if cl := c.ClassLimits; cl != nil {
		if cl.High < 1 || cl.Low < 1 {
			return fmt.Errorf("extsched: class limits high=%d low=%d must both be >= 1", cl.High, cl.Low)
		}
		if c.Shards.Count > 0 {
			return fmt.Errorf("extsched: ClassLimits on a sharded system is not supported")
		}
	}
	if ad := c.AdmitDeadline; ad != nil {
		if ad.High < 0 || ad.Low < 0 {
			return fmt.Errorf("extsched: admit deadlines high=%v low=%v must be >= 0", ad.High, ad.Low)
		}
	}
	if c.Shards.Count < 0 {
		return fmt.Errorf("extsched: Shards.Count %d must be >= 0", c.Shards.Count)
	}
	if n := len(c.Shards.Speeds); n > 0 && n != c.Shards.Count {
		return fmt.Errorf("extsched: Shards.Speeds has %d entries for %d shards", n, c.Shards.Count)
	}
	for i, s := range c.Shards.Speeds {
		if s <= 0 {
			return fmt.Errorf("extsched: shard %d speed %v must be positive", i, s)
		}
	}
	if c.Shards.Count == 0 && (len(c.Shards.Speeds) > 0 || c.Shards.Dispatch != "") {
		return fmt.Errorf("extsched: Shards.Speeds/Dispatch set without Shards.Count")
	}
	if r := c.Recovery; r != nil {
		if c.Shards.Count == 0 {
			return fmt.Errorf("extsched: Recovery set without Shards.Count")
		}
		switch r.Mode {
		case "", RecoveryShed:
			// The budget and backoff are resubmit-mode knobs.
		case RecoveryResubmit:
			if r.RetryBudget < 1 {
				return fmt.Errorf("extsched: resubmit recovery needs RetryBudget >= 1, have %d", r.RetryBudget)
			}
		default:
			return fmt.Errorf("extsched: unknown recovery mode %q (want %s or %s)", r.Mode, RecoveryShed, RecoveryResubmit)
		}
		if r.RetryBudget < 0 {
			return fmt.Errorf("extsched: RetryBudget %d must be >= 0", r.RetryBudget)
		}
		if r.BackoffBase < 0 || r.BackoffCap < 0 {
			return fmt.Errorf("extsched: backoff base %v and cap %v must be >= 0", r.BackoffBase, r.BackoffCap)
		}
		if r.BackoffBase > 0 && r.BackoffCap > 0 && r.BackoffBase > r.BackoffCap {
			return fmt.Errorf("extsched: backoff base %v exceeds cap %v", r.BackoffBase, r.BackoffCap)
		}
	}
	if _, err := cluster.NewPolicy(c.Shards.Dispatch); err != nil {
		return err
	}
	return nil
}

// System binds a resolved configuration to the scenario engine. It
// holds no simulation state between runs: Run (and the RunClosed /
// RunOpen / AutoTune wrappers) each assemble a pristine engine, DBMS,
// frontend and generator from the Config's seed through
// runner.NewStack, the builder behind every experiment too. That is
// what makes a System reusable and its runs reproducible. A System is
// not safe for concurrent use; build one per goroutine (they are cheap
// — assembly happens per run).
type System struct {
	cfg       Config
	setup     workload.Setup
	observers []metrics.Observer
	// cur points at the executing run's stack while Run is on the
	// call stack, so MPL/SetMPL work from observer callbacks.
	cur *runner.Stack
}

// parseIsolation is the single source of truth for isolation-level
// names ("" defaults to RR). Config.Validate and resolveSetup both use
// it, so the accepted set cannot drift between validation and
// assembly.
func parseIsolation(name string) (dbms.Isolation, error) {
	switch name {
	case "", "RR":
		return dbms.RR, nil
	case "UR":
		return dbms.UR, nil
	case "SI":
		return dbms.SI, nil
	default:
		return 0, fmt.Errorf("extsched: unknown isolation %q (want RR, UR or SI)", name)
	}
}

// resolveSetup maps a Config to a workload.Setup.
func resolveSetup(cfg Config) (workload.Setup, error) {
	if cfg.SetupID != 0 {
		return workload.SetupByID(cfg.SetupID)
	}
	if cfg.Workload == "" {
		return workload.Setup{}, fmt.Errorf("extsched: either SetupID or Workload is required")
	}
	spec, err := workload.ByName(cfg.Workload)
	if err != nil {
		return workload.Setup{}, err
	}
	cpus, disks := cfg.CPUs, cfg.Disks
	if cpus == 0 {
		cpus = 1
	}
	if disks == 0 {
		disks = 1
	}
	iso, err := parseIsolation(cfg.Isolation)
	if err != nil {
		return workload.Setup{}, err
	}
	return workload.Setup{ID: 0, Workload: spec, CPUs: cpus, Disks: disks, Isolation: iso}, nil
}

// NewSystem validates cfg and resolves its setup. No simulation state
// is built here — that happens per Run.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	setup, err := resolveSetup(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// Vet the policy name and workload spec now, so configuration
	// errors surface at construction rather than on the first Run.
	if _, err := core.NewPolicy(cfg.Policy, nil); err != nil {
		return nil, err
	}
	if err := setup.Workload.Validate(); err != nil {
		return nil, err
	}
	return &System{cfg: cfg, setup: setup}, nil
}

// Observe registers observers that every subsequent Run streams
// interval snapshots to (when the scenario sets SampleInterval).
// Observers are called synchronously on the simulation goroutine, so
// they may inspect the System — or steer it via SetMPL — mid-run.
func (s *System) Observe(obs ...metrics.Observer) {
	s.observers = append(s.observers, obs...)
}

// buildStack translates the Config into the runner's stack
// description and assembles pristine per-run simulation state.
func (s *System) buildStack(mpl int) (runner.Stack, error) {
	cfg := s.cfg
	w := cfg.WFQHighWeight
	if w <= 0 {
		w = 4
	}
	b := runner.Build{
		Setup: s.setup,
		DB: workload.DBOptions{
			LockPolicy:  map[bool]lockmgr.Policy{true: lockmgr.PriorityFIFO, false: lockmgr.FIFO}[cfg.InternalLockPriority],
			POW:         cfg.InternalLockPriority,
			CPUPriority: cfg.InternalCPUPriority,
		},
		MPL:        mpl,
		Policy:     cfg.Policy,
		WFQWeights: map[core.Class]float64{core.ClassHigh: w, core.ClassLow: 1},
		QueueLimit: cfg.QueueLimit,
		Shards:     cfg.Shards.Count,
		Speeds:     cfg.Shards.Speeds,
		Dispatch:   cfg.Shards.Dispatch,
		Seed:       cfg.Seed,
	}
	if ad := cfg.AdmitDeadline; ad != nil {
		b.AdmitDeadlines = map[core.Class]float64{core.ClassHigh: ad.High, core.ClassLow: ad.Low}
	}
	if cfg.Shards.Count > 0 {
		rp := cluster.RecoveryPolicy{Seed: cfg.Seed}
		if r := cfg.Recovery; r != nil {
			rp.Resubmit = r.Mode == RecoveryResubmit
			rp.RetryBudget = r.RetryBudget
			rp.BackoffBase = r.BackoffBase
			rp.BackoffCap = r.BackoffCap
		}
		b.Recovery = &rp
	}
	st, err := runner.NewStack(b)
	if err != nil {
		return runner.Stack{}, err
	}
	if cfg.HighPriorityFraction > 0 {
		st.Gen.HighFrac = cfg.HighPriorityFraction
	}
	if cl := cfg.ClassLimits; cl != nil {
		st.FE.SetClassLimits(map[core.Class]int{core.ClassHigh: cl.High, core.ClassLow: cl.Low})
	}
	st.SLO = cfg.SLO
	return st, nil
}

// RunClosed drives the system with a fixed client population (the
// paper's closed system; clients <= 0 means its 100) for measure
// simulated seconds after warmup seconds of warm-up. It is a one-phase
// Scenario; the System is reusable afterwards.
func (s *System) RunClosed(clients int, warmup, measure float64) (Report, error) {
	if clients < 0 {
		clients = 0
	}
	res, err := s.Run(context.Background(), Scenario{
		Warmup: warmup,
		Phases: []Phase{{Kind: PhaseClosed, Clients: clients, Duration: measure}},
	})
	return res.Total, err
}

// RunOpen drives the system with Poisson arrivals at rate lambda. Like
// every run, it reports exactly the measure-second window: work still
// queued or executing when the window closes is not counted.
func (s *System) RunOpen(lambda, warmup, measure float64) (Report, error) {
	res, err := s.Run(context.Background(), Scenario{
		Warmup: warmup,
		Phases: []Phase{{Kind: PhaseOpen, Lambda: lambda, Duration: measure}},
	})
	return res.Total, err
}

// SetMPL changes the MPL: of the executing run when called from an
// observer callback mid-run, otherwise of the configuration the next
// run starts from. On a sharded system the value is the cluster-wide
// limit.
func (s *System) SetMPL(mpl int) {
	if st := s.cur; st != nil {
		st.Gate().SetMPL(mpl)
		return
	}
	s.cfg.MPL = mpl
}

// MPL returns the current limit: the executing run's live value
// mid-run, the configured starting value otherwise.
func (s *System) MPL() int {
	if st := s.cur; st != nil {
		return st.Gate().MPL()
	}
	return s.cfg.MPL
}

// Setup describes the resolved Table 2 setup.
func (s *System) Setup() string { return s.setup.String() }

// AutoTune runs the Section 4.3 controller against this system under a
// closed workload until convergence (or until horizon simulated
// seconds elapse). maxLoss is the DBA's acceptable throughput loss
// (e.g. 0.05); referenceTput the no-MPL optimum (measure it with an
// unlimited run, or use RecommendMPL's model). It is a one-phase
// scenario: the queueing models pick the starting MPL, an event at the
// window's start hands control to the feedback loop, and the run stops
// at convergence.
func (s *System) AutoTune(clients int, maxLoss, referenceTput, horizon float64) (TuneResult, error) {
	cpuD, ioD := s.setup.Demands()
	rec, err := controller.Recommend(controller.Model{
		CPUs: s.setup.CPUs, Disks: s.setup.Disks,
		CPUDemand: cpuD, IODemand: ioD, Loss: maxLoss,
	})
	if err != nil {
		return TuneResult{}, err
	}
	if clients < 0 {
		clients = 0
	}
	warm := horizon / 20
	res, err := s.runScenario(context.Background(), Scenario{
		Warmup:         warm,
		SampleInterval: horizon / 40, // convergence-check granularity
		Phases: []Phase{{
			Kind: PhaseClosed, Clients: clients, Duration: horizon - warm,
			Events: []Event{{EnableController: &ControllerSpec{
				MaxThroughputLoss:   maxLoss,
				ReferenceThroughput: referenceTput,
				StopOnConverge:      true,
			}}},
		}},
	}, &rec.MPL)
	if err != nil {
		return TuneResult{}, err
	}
	if res.Tune == nil {
		return TuneResult{}, fmt.Errorf("extsched: controller never engaged")
	}
	return *res.Tune, nil
}

// Recommendation is the output of the pure-model MPL tool.
type Recommendation = controller.Recommendation

// RecommendMPL runs the paper's analytic tool without any simulation:
// given hardware shape, per-transaction demands, and tolerances, it
// returns the lowest MPL the queueing models consider safe, searching
// MPLs up to 500 (see controller.Recommend for the cap and error rule).
// lambda/meanDemand/demandC2 describe the open-system load for the
// response-time bound; pass zeros to skip it.
func RecommendMPL(cpus, disks int, cpuDemand, ioDemand, maxTputLoss float64,
	lambda, meanDemand, demandC2, maxRTIncrease float64) (Recommendation, error) {
	return controller.Recommend(controller.Model{
		CPUs: cpus, Disks: disks, CPUDemand: cpuDemand, IODemand: ioDemand,
		Loss:   maxTputLoss,
		Lambda: lambda, MeanDemand: meanDemand, DemandC2: demandC2,
		RTTolerance: maxRTIncrease,
	})
}

// Setups lists the paper's Table 2 setups as display strings.
func Setups() []string {
	var out []string
	for _, s := range workload.Table2() {
		out = append(out, s.String())
	}
	return out
}

// Workloads lists the paper's Table 1 workload names.
func Workloads() []string {
	var out []string
	for _, s := range workload.Table1() {
		out = append(out, s.Name)
	}
	return out
}
