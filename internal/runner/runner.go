// Package runner assembles simulation stacks and executes phased
// workload scenarios on them. It defines the scenario and result
// vocabulary once (package extsched re-exports each type by alias) and
// is the engine behind the public Scenario API (extsched.System.Run)
// and the experiment harness's runs: one place that builds every
// simulated system (NewStack: DBMS, frontends, dispatcher, pre-warmed
// pools) and owns the measurement-window rule, phase sequencing,
// mid-phase control events, and interval snapshot streaming, so that
// every run in the repository is assembled and measured the same way.
//
// # The windowing rule
//
// A run has exactly one measurement window: it opens when the warmup
// (if any) ends and closes when the last phase's duration elapses. A
// completion is counted if and only if it occurs inside the window —
// work still in flight when the window closes is excluded, and nothing
// that completes after the window (during a drain, say) can pollute
// the metrics. The seed code's RunOpen violated this (it drained the
// queue after the window and reported those completions against the
// window's length, biasing throughput up and response times long);
// TestWindowingRule in this package is the regression test for the
// unified rule.
package runner

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"extsched/internal/autoscale"
	"extsched/internal/cluster"
	"extsched/internal/controller"
	"extsched/internal/core"
	"extsched/internal/dbfe"
	"extsched/internal/dbms"
	"extsched/internal/dist"
	"extsched/internal/fairness"
	"extsched/internal/lockmgr"
	"extsched/internal/sim"
	"extsched/internal/stats"
	"extsched/internal/trace"
	"extsched/internal/workload"
	"extsched/metrics"
)

// Stack is the assembled simulation a scenario runs on; NewStack builds
// it. Exactly one of two shapes: single-backend (DB + FE set, Cluster
// nil) or sharded (Cluster set, DB/FE ignored). The runner owns the
// completion hooks (FE.OnComplete or Cluster.OnComplete) for the
// duration of the run.
type Stack struct {
	Eng *sim.Engine
	DB  *dbms.DB
	FE  *dbfe.Frontend
	// Cluster, when non-nil, replaces DB/FE with a sharded dispatch
	// fabric: drivers submit through it, control events address it, and
	// the runner reports per-shard slices next to the aggregates.
	Cluster *cluster.Dispatcher
	// Recovery configures what happens to the work a failed shard held
	// (sharded stacks only). Nil arms the zero policy — shed: the work
	// is lost and counted in Failed. The runner arms the cluster's
	// fault model unconditionally, so every sharded run reports
	// lifecycle state and availability.
	Recovery *cluster.RecoveryPolicy
	// NewShard, when non-nil, builds the shard a ShardAdd event joins
	// (index is the position the new shard will occupy). A ShardAdd
	// event without a factory is an error.
	NewShard func(index int) (cluster.Shard, error)
	Gen      *workload.Generator
	Seed     uint64
	// SLO, when non-nil, attaches the latency-SLO controller for the
	// whole run, from the moment the measurement window opens (an
	// event-free way to run a scenario under SLO control; scenario
	// SetSLO events can still replace it). Unsharded stacks only.
	SLO *SLOSpec
	// ClassNames registers tenant names for classes outside a
	// scenario's tenants block: events and fairness specs may address
	// them by name, and per-class reports and snapshots label them.
	// Classes absent from both fall back to the frontend's tenant
	// registry (core.Frontend.RegisterClass) on unsharded stacks, then
	// to the empty string.
	ClassNames map[core.Class]string
}

// Gate returns the control surface the MPL events and the feedback
// controller act on: the lone frontend, or the cluster dispatcher.
func (st Stack) Gate() controller.Gate {
	if st.Cluster != nil {
		return st.Cluster
	}
	return st.FE.Frontend
}

// sink returns what the workload drivers submit to.
func (st Stack) sink() workload.Sink {
	if st.Cluster != nil {
		return st.Cluster
	}
	return st.FE
}

// mark captures the cumulative counters a windowed delta is taken
// against.
type mark struct {
	t                       float64
	dropped, canceled, shed uint64
	// shedClass splits shed by class index (read it through shedOf).
	shedClass              []uint64
	waits, dl, preempt     uint64
	failed, resub, retries uint64
	cpuBusy, diskBusy      float64 // utilization·time products
	// shards are the per-shard cumulative counters (sharded stacks).
	shards []shardMark
}

type shardMark struct {
	routed, dropped    uint64
	waits, dl, preempt uint64
	cpuBusy, diskBusy  float64
	upSec              float64
}

func takeMark(st Stack) mark {
	m := mark{t: st.Eng.Now()}
	if c := st.Cluster; c != nil {
		m.dropped, m.canceled = c.Dropped(), c.Canceled()
		m.failed, m.resub, m.retries = c.Failed(), c.Resubmitted(), c.Retries()
		m.shed, m.shedClass = c.Shed(), c.ShedClasses()
		shards := c.Shards()
		routed := c.Routed()
		m.shards = make([]shardMark, len(shards))
		n := float64(len(shards))
		for i, sh := range shards {
			sm := &m.shards[i]
			sm.routed = routed[i]
			sm.upSec = c.UpSeconds(i)
			sm.dropped = sh.FE.Dropped()
			if sh.DB != nil {
				s := sh.DB.Stats()
				sm.waits, sm.dl, sm.preempt = s.Lock.Waits, s.Lock.Deadlocks, s.Lock.Preemptions
				m.waits += sm.waits
				m.dl += sm.dl
				m.preempt += sm.preempt
				sm.cpuBusy = sh.DB.CPUUtilization() * m.t
				sm.diskBusy = sh.DB.DiskUtilization() * m.t
				// The aggregate utilization is the fleet mean, so the
				// windowed delta math below holds shard-count-free.
				m.cpuBusy += sm.cpuBusy / n
				m.diskBusy += sm.diskBusy / n
			}
		}
		return m
	}
	m.dropped, m.canceled = st.FE.Dropped(), st.FE.Canceled()
	m.shed = st.FE.Shed()
	m.shedClass = st.FE.ShedClasses()
	if st.DB != nil {
		s := st.DB.Stats()
		m.waits, m.dl, m.preempt = s.Lock.Waits, s.Lock.Deadlocks, s.Lock.Preemptions
		m.cpuBusy = st.DB.CPUUtilization() * m.t
		m.diskBusy = st.DB.DiskUtilization() * m.t
	}
	return m
}

// shedOf returns class c's shed count in the mark.
func (m *mark) shedOf(c core.Class) uint64 {
	if int(c) < len(m.shedClass) {
		return m.shedClass[c]
	}
	return 0
}

// utilDelta recovers the utilization over (a.t, b.t] from two
// cumulative-utilization marks.
func utilDelta(aBusy, bBusy, at, bt float64) float64 {
	if bt <= at {
		return 0
	}
	return (bBusy - aBusy) / (bt - at)
}

// className resolves a class's display name: the scenario's tenants
// block first, then the stack's registered names, then the unsharded
// frontend's tenant registry.
func (r *run) className(c core.Class) string {
	if c >= 0 && int(c) < len(r.sc.Tenants) {
		return r.sc.Tenants[c].Name
	}
	if n, ok := r.st.ClassNames[c]; ok {
		return n
	}
	if r.st.Cluster == nil && r.st.FE != nil {
		return r.st.FE.TenantName(c)
	}
	return ""
}

// activeClasses lists, ascending, every class that completed work in
// m or shed work between the marks.
func activeClasses(m *core.Metrics, from, to mark) []core.Class {
	classes := make([]core.Class, 0, len(m.Classes))
	for _, cm := range m.Classes {
		classes = append(classes, cm.Class)
	}
	for c, n := range to.shedClass {
		if n > from.shedOf(core.Class(c)) && m.ClassMetric(core.Class(c)).Completed() == 0 {
			classes = append(classes, core.Class(c))
		}
	}
	slices.Sort(classes)
	return classes
}

// classStat is class c's slice of one window.
func (r *run) classStat(m *core.Metrics, from, to mark, c core.Class) metrics.ClassStat {
	cm := m.ClassMetric(c)
	return metrics.ClassStat{
		Class:     int(c),
		Name:      r.className(c),
		Completed: cm.Completed(),
		Shed:      to.shedOf(c) - from.shedOf(c),
		Mean:      cm.RT.Mean(),
		P95:       cm.Sketch.Quantile(0.95),
	}
}

// fill sets the Report fields a completion tally determines; scratch
// holds the merge of the class sketches the percentiles come from.
func fill(rep *Report, m *core.Metrics, window float64, scratch *stats.Sketch) {
	rep.SimSeconds = window
	rep.Completed = m.Completed
	if window > 0 {
		rep.Throughput = float64(m.Completed) / window
	}
	rep.MeanRT = m.All.Mean()
	rep.MeanInside = m.Inside.Mean()
	rep.ExternalW = m.ExtWait.Mean()
	rep.DemandC2 = m.Inside.C2()
	rep.Restarts = m.Restarts
	rep.P50, rep.P95, rep.P99 = percentiles(m, scratch)
}

// percentiles returns the window's response-time p50, p95 and p99.
func percentiles(m *core.Metrics, scratch *stats.Sketch) (p50, p95, p99 float64) {
	all := m.Sketch(scratch)
	return all.Quantile(0.50), all.Quantile(0.95), all.Quantile(0.99)
}

// report assembles a Report from a completion tally and its opening
// mark.
func (r *run) report(m *core.Metrics, from mark) Report {
	to := takeMark(r.st)
	var rep Report
	fill(&rep, m, to.t-from.t, &r.scratch)
	rep.Dropped = to.dropped - from.dropped
	rep.Shed = to.shed - from.shed
	rep.LockWaits = to.waits - from.waits
	rep.Deadlocks = to.dl - from.dl
	rep.Preemptions = to.preempt - from.preempt
	rep.Failed = to.failed - from.failed
	rep.Resubmitted = to.resub - from.resub
	rep.Retries = to.retries - from.retries
	rep.CPUUtil = utilDelta(from.cpuBusy, to.cpuBusy, from.t, to.t)
	rep.DiskUtil = utilDelta(from.diskBusy, to.diskBusy, from.t, to.t)
	for _, c := range activeClasses(m, from, to) {
		cs := r.classStat(m, from, to, c)
		rep.Classes = append(rep.Classes, ClassResult{
			Class: cs.Class, Name: cs.Name, Completed: cs.Completed, Shed: cs.Shed, MeanRT: cs.Mean, P95: cs.P95,
		})
	}
	return rep
}

// buildDriver assembles the phase's traffic source.
func buildDriver(st Stack, ph *Phase) (workload.Driver, error) {
	sink := st.sink()
	switch ph.Kind {
	case PhaseClosed:
		clients := ph.Clients
		if clients <= 0 {
			clients = 100
		}
		var think dist.Distribution
		if ph.ThinkTime > 0 {
			think = dist.NewExponential(ph.ThinkTime)
		}
		return workload.NewClosedDriver(st.Eng, sink, st.Gen, clients, think), nil
	case PhaseOpen:
		return workload.NewOpenDriver(st.Eng, sink, st.Gen, ph.Lambda, 0), nil
	case PhaseRamp:
		return workload.NewRampDriver(st.Eng, sink, st.Gen, ph.Lambda, ph.Lambda2, ph.Duration), nil
	case PhaseBurst:
		factor := ph.BurstFactor
		if factor == 0 {
			factor = 2
		}
		period := ph.BurstPeriod
		if period == 0 {
			period = 100 / ph.Lambda
		}
		return workload.NewBurstDriver(st.Eng, sink, st.Gen, ph.Lambda, factor, period), nil
	case PhaseDiurnal, PhaseFlash:
		return workload.NewShapedDriver(st.Eng, sink, st.Gen, workload.ShapedConfig{
			Base:          ph.Lambda,
			Amp:           ph.DiurnalAmp,
			Period:        ph.DiurnalPeriod,
			FlashFactor:   ph.FlashFactor,
			FlashAt:       ph.FlashAt,
			FlashDuration: ph.FlashDuration,
		}), nil
	case PhaseTrace:
		tr := ph.Trace
		if ph.TraceSynth != nil {
			var err error
			if tr, err = trace.Synthesize(*ph.TraceSynth); err != nil {
				return nil, err
			}
		}
		d, err := workload.NewTraceDriver(st.Eng, sink, tr)
		if err != nil {
			return nil, err
		}
		if ph.TraceSpeedup > 0 {
			d.Speedup = ph.TraceSpeedup
		}
		return d, nil
	default:
		return nil, fmt.Errorf("runner: unknown phase kind %q", ph.Kind)
	}
}

// run carries the mutable state of one execution.
type run struct {
	st  Stack
	sc  *Scenario
	obs []metrics.Observer
	out Result

	measuring bool
	// total, phase and window tally the completions of the whole
	// measurement window, the current phase and the current snapshot
	// interval.
	total, phase, window core.Metrics
	// scratch receives the merged class sketches of a window whose
	// percentiles are being read.
	scratch stats.Sketch
	// shardTotal / winShard split the window per shard (sharded stacks
	// only): whole-window tallies for Result.Shards, and per-interval
	// completion counts for Snapshot.Shards.
	shardTotal []core.Metrics
	winShard   []uint64

	totalMark, phaseMark, winMark mark
	nextSnap                      float64

	// loops holds the run's control loops — the MPL controller and one
	// partition loop (SLO or fairness) — fed by onComplete.
	// stopOnConverge ends the run once an attached MPL controller
	// converges.
	loops          controller.Slot
	stopOnConverge bool

	// asc is the armed fleet autoscaler; ascErr the first error a tick
	// hit (the tick runs inside an engine callback and cannot return
	// one, so it stops the engine and parks the error here for the
	// breakpoint loop to surface).
	asc                 *autoscale.Controller
	ascSpec             AutoscaleSpec
	ascErr              error
	peakFleet, minFleet int
	// snapUps / snapDowns are the action counters at the last emitted
	// snapshot (interval snapshots report deltas).
	snapUps, snapDowns uint64
}

// onComplete is the single completion observer for both stack shapes;
// shard is 0 for single-backend stacks.
func (r *run) onComplete(shard int, t *dbfe.Txn) {
	if r.measuring {
		r.total.Record(&t.Item)
		r.phase.Record(&t.Item)
		r.window.Record(&t.Item)
		if r.shardTotal != nil {
			// A shard_add event can grow the fleet past the slices sized
			// at run start.
			for shard >= len(r.shardTotal) {
				r.shardTotal = append(r.shardTotal, core.Metrics{})
				r.winShard = append(r.winShard, 0)
			}
			r.shardTotal[shard].Record(&t.Item)
			r.winShard[shard]++
		}
	}
	r.loops.Observe(&t.Item)
	// StopOnConverge must not wait for the next breakpoint (a scenario
	// without snapshot ticks may have none before the phase's end):
	// halt the engine as soon as the loop settles. The run loop sees
	// converged() and finishes the run there.
	if r.converged() {
		r.st.Eng.Stop()
	}
}

// converged reports whether the run should stop early: an attached MPL
// controller armed with StopOnConverge has settled.
func (r *run) converged() bool {
	if !r.stopOnConverge {
		return false
	}
	ctl, ok := r.loops.Loop(controller.KindMPL).(*controller.Controller)
	return ok && ctl.Status().Converged
}

// Run executes the scenario on st. It validates sc against the stack
// first (the stack's registered tenant names resolve, and shard
// actions must fit its fleet), then applies the tenants block.
// Observers receive one windowed Snapshot per SampleInterval,
// synchronously on the simulation goroutine (they may inspect or
// adjust the stack from the callback). ctx is checked at every
// internal breakpoint — phase boundaries, events, snapshot ticks — and
// a canceled run returns ctx.Err() with the partial Result discarded.
func Run(ctx context.Context, st Stack, sc Scenario, obs ...metrics.Observer) (Result, error) {
	r := &run{st: st, sc: &sc, obs: obs}
	return r.execute(ctx)
}

// execute is Run's body; the run keeps its tallies afterwards.
func (r *run) execute(ctx context.Context) (Result, error) {
	sc := r.sc
	if err := sc.validate(&r.st); err != nil {
		return Result{}, err
	}
	st := r.st
	if len(sc.Tenants) > 0 {
		if err := applyTenants(st, sc.Tenants); err != nil {
			return Result{}, err
		}
	}
	if c := st.Cluster; c != nil {
		// Arm the fault model unconditionally: lifecycle events and the
		// churn generator need it, and an armed-but-unfailed fleet
		// behaves identically to an unarmed one (every shard Up, the
		// filtered dispatch view is the identity).
		rp := cluster.RecoveryPolicy{}
		if st.Recovery != nil {
			rp = *st.Recovery
		}
		if rp.Seed == 0 {
			rp.Seed = st.Seed
		}
		if err := c.SetRecovery(st.Eng, rp); err != nil {
			return Result{}, err
		}
		r.shardTotal = make([]core.Metrics, c.NumShards())
		r.winShard = make([]uint64, c.NumShards())
		c.OnComplete = r.onComplete
	} else {
		st.FE.OnComplete = func(t *dbfe.Txn) { r.onComplete(0, t) }
	}
	out := &r.out
	for i := range sc.Phases {
		ph := &sc.Phases[i]
		driver, err := buildDriver(st, ph)
		if err != nil {
			return Result{}, err
		}
		driver.Start()
		if i == 0 {
			// The autoscaler is live from the first arrival, warmup
			// included: a fleet frozen at its starting size while warmup
			// load climbs would open the measurement window buried under
			// a backlog the controller was never allowed to absorb.
			if sc.Autoscale != nil {
				if err := r.armAutoscale(*sc.Autoscale); err != nil {
					return Result{}, err
				}
			}
			if sc.Warmup > 0 {
				st.Eng.Run(st.Eng.Now() + sc.Warmup)
				if err := ctx.Err(); err != nil {
					return Result{}, err
				}
				if r.ascErr != nil {
					return Result{}, r.ascErr
				}
			}
			r.beginMeasurement()
			if st.SLO != nil {
				if err := r.attachSLO(*st.SLO); err != nil {
					return Result{}, err
				}
			}
			if sc.Fairness != nil {
				if err := r.attachFairness(*sc.Fairness); err != nil {
					return Result{}, err
				}
			}
		}
		stopped, err := r.runPhase(ctx, ph)
		driver.Stop()
		if err != nil {
			return Result{}, err
		}
		out.Phases = append(out.Phases, PhaseResult{
			Name:   ph.label(),
			Kind:   ph.Kind,
			Report: r.report(&r.phase, r.phaseMark),
		})
		r.phase.Reset()
		r.phaseMark = takeMark(st)
		if stopped {
			break
		}
	}
	r.measuring = false
	out.Total = r.report(&r.total, r.totalMark)
	out.Shards = r.shardReports()
	out.FinalMPL = st.Gate().MPL()
	// A disable event already recorded any loop that was detached.
	for _, k := range []controller.Kind{controller.KindMPL, controller.KindSLO, controller.KindFairness} {
		r.record(r.loops.Loop(k))
	}
	if r.asc != nil {
		out.Autoscale = r.autoscaleReport()
	}
	return *out, nil
}

// applyTenants installs a tenants block on the fresh stack: every
// frontend's registry gets the names, weights and SLO targets, the WFQ
// policy (when the queue policy is WFQ) is reweighted to the tenants'
// declared weights, and the generator's arrival stream is split by the
// tenants' shares, replacing the high-class fraction tagging.
func applyTenants(st Stack, tenants []TenantSpec) error {
	weights := make(map[core.Class]float64, len(tenants))
	mix := make([]workload.TenantMix, len(tenants))
	for i, t := range tenants {
		if st.Cluster != nil {
			for _, sh := range st.Cluster.Shards() {
				sh.FE.RegisterClass(t.Name, t.weight(), t.SLOTarget)
			}
		} else {
			st.FE.RegisterClass(t.Name, t.weight(), t.SLOTarget)
		}
		weights[core.Class(i)] = t.weight()
		mix[i] = workload.TenantMix{
			Class:    lockmgr.Class(i),
			Share:    t.Share,
			SizeMean: t.SizeMean,
			SizeC2:   t.SizeC2,
		}
	}
	if st.Cluster != nil {
		st.Cluster.SetWFQWeights(weights)
	} else {
		st.FE.SetWFQWeights(weights)
	}
	return st.Gen.SetMix(mix)
}

// armAutoscale builds the fleet controller and starts its tick timer
// at the engine's current time (the measurement-window open).
func (r *run) armAutoscale(spec AutoscaleSpec) error {
	c := r.st.Cluster
	if c == nil {
		return fmt.Errorf("runner: autoscale on an unsharded system")
	}
	if spec.Max > c.NumShards() && r.st.NewShard == nil {
		return fmt.Errorf("runner: autoscale max %d exceeds the %d built shards and the stack has no NewShard factory", spec.Max, c.NumShards())
	}
	asc, err := autoscale.New(spec.config())
	if err != nil {
		return err
	}
	r.asc = asc
	r.ascSpec = spec
	up := c.UpCount()
	r.peakFleet, r.minFleet = up, up
	interval := asc.Config().Interval
	var tick func()
	tick = func() {
		r.autoscaleTick()
		r.st.Eng.After(interval, tick)
	}
	r.st.Eng.After(interval, tick)
	return nil
}

// autoscaleTick is one controller observation, run inside an engine
// callback: read the fleet signal, apply the decision, track extremes.
func (r *run) autoscaleTick() {
	if r.ascErr != nil {
		return
	}
	c := r.st.Cluster
	up := c.UpCount()
	sig := 0.0
	if up > 0 {
		sig = float64(c.Inside()+c.QueueLen()) / float64(up)
	}
	switch r.asc.Observe(r.st.Eng.Now(), up, sig) {
	case autoscale.ScaleUp:
		r.ascErr = r.scaleUp()
	case autoscale.ScaleDown:
		r.ascErr = r.scaleDown()
	}
	if r.ascErr != nil {
		// Surface the failure at the next breakpoint instead of ticking
		// a broken fleet to the phase end.
		r.st.Eng.Stop()
		return
	}
	if up := c.UpCount(); up > r.peakFleet {
		r.peakFleet = up
	} else if up < r.minFleet {
		r.minFleet = up
	}
}

// scaleUp adds one serving shard: reuse a parked (Draining or Down)
// slot first — recovering one is instant capacity and keeps the slot
// count bounded over long oscillations — and only build a fresh shard
// through the factory when every slot is Up.
func (r *run) scaleUp() error {
	c := r.st.Cluster
	n := c.NumShards()
	for i := 0; i < n; i++ {
		if c.State(i) != cluster.ShardUp {
			if err := c.RecoverShard(i); err != nil {
				return err
			}
			return r.retargetMPL()
		}
	}
	if r.st.NewShard == nil {
		// Every built slot is serving and there is nothing to grow
		// with; armAutoscale only allows this when Max <= built shards,
		// so the controller is simply clamped here.
		return nil
	}
	sh, err := r.st.NewShard(n)
	if err != nil {
		return err
	}
	if _, err := c.AddShard(sh); err != nil {
		return err
	}
	return r.retargetMPL()
}

// scaleDown drains the highest-index Up shard (the slot a later
// scale-up is least likely to reuse first, keeping low indexes warm).
func (r *run) scaleDown() error {
	c := r.st.Cluster
	for i := c.NumShards() - 1; i >= 0; i-- {
		if c.State(i) == cluster.ShardUp {
			if err := c.RemoveShard(i); err != nil {
				return err
			}
			return r.retargetMPL()
		}
	}
	return nil
}

// retargetMPL re-splits the cluster MPL after a fleet change when the
// spec scales admitted concurrency with capacity.
func (r *run) retargetMPL() error {
	if r.ascSpec.MPLPerShard <= 0 {
		return nil
	}
	r.st.Cluster.SetMPL(r.ascSpec.MPLPerShard * r.st.Cluster.UpCount())
	return nil
}

// autoscaleReport assembles the run's fleet trajectory summary.
func (r *run) autoscaleReport() *AutoscaleResult {
	rep := &AutoscaleResult{
		ScaleUps:   r.asc.ScaleUps(),
		ScaleDowns: r.asc.ScaleDowns(),
		FinalFleet: r.st.Cluster.UpCount(),
		PeakFleet:  r.peakFleet,
		MinFleet:   r.minFleet,
	}
	to := takeMark(r.st)
	for i, t := range to.shards {
		var f shardMark
		if i < len(r.totalMark.shards) {
			f = r.totalMark.shards[i]
		}
		rep.ShardSeconds += t.upSec - f.upSec
	}
	return rep
}

// attachController builds the feedback controller for an
// enable_controller event and attaches it as the run's MPL loop. On a
// sharded stack it observes the cluster-wide completion stream and
// steers the dispatcher's fleet MPL.
func (r *run) attachController(cs ControllerSpec) error {
	gate := r.st.Gate()
	err := r.loops.Attach(controller.KindMPL, func() (controller.Loop, error) {
		return controller.New(r.st.Eng.Clock(), gate, controller.Config{
			MaxThroughputLoss:   cs.MaxThroughputLoss,
			ReferenceThroughput: cs.ReferenceThroughput,
			MaxRTIncrease:       cs.MaxRTIncrease,
			ReferenceRT:         cs.ReferenceRT,
			MinObservations:     cs.MinObservations,
			HoldWindows:         cs.HoldWindows,
		})
	})
	if err != nil {
		return err
	}
	r.stopOnConverge = cs.StopOnConverge
	if r.out.Tune == nil {
		r.out.Tune = &TuneResult{StartMPL: gate.MPL()}
	}
	return nil
}

// attachSLO builds the latency-SLO controller and attaches it as the
// run's partition loop. The stack must be unsharded (the partition
// lives on the lone frontend).
func (r *run) attachSLO(spec SLOSpec) error {
	if r.st.Cluster != nil {
		return fmt.Errorf("runner: SLO control on a sharded system is not supported")
	}
	class, name, err := r.sc.sloClass(r.st.ClassNames, spec)
	if err != nil {
		return err
	}
	err = r.loops.Attach(controller.KindSLO, func() (controller.Loop, error) {
		return controller.NewSLO(r.st.FE.Frontend, controller.SLOConfig{
			Class:           class,
			Percentile:      spec.Percentile,
			Target:          spec.Target,
			MinObservations: spec.MinObservations,
			Margin:          spec.Margin,
		})
	})
	if err != nil {
		return err
	}
	r.out.SLO = &SLOResult{Class: name}
	return nil
}

// attachFairness builds the N-tenant max-min fairness controller and
// attaches it as the run's partition loop. The stack must be unsharded
// (the class partition lives on the lone frontend).
func (r *run) attachFairness(spec FairnessSpec) error {
	if r.st.Cluster != nil {
		return fmt.Errorf("runner: fairness control on a sharded system is not supported")
	}
	weights, err := r.sc.fairnessWeights(r.st.ClassNames, spec)
	if err != nil {
		return err
	}
	return r.loops.Attach(controller.KindFairness, func() (controller.Loop, error) {
		return fairness.New(r.st.FE.Frontend, fairness.Config{
			Weights:         weights,
			MinObservations: spec.MinObservations,
			Hysteresis:      spec.Hysteresis,
			Strict:          spec.Strict,
		})
	})
}

// record writes loop l's outcome into the Result: called when a
// disable event detaches l, and at the run's end for each loop still
// attached (a nil l records nothing).
func (r *run) record(l controller.Loop) {
	switch l := l.(type) {
	case *controller.Controller:
		st := l.Status()
		t := r.out.Tune
		t.FinalMPL = r.st.Gate().MPL()
		t.Iterations = st.Iterations
		t.Converged = st.Converged
	case *controller.SLOController:
		st := l.Status()
		s := r.out.SLO
		s.SLOLimit, s.OtherLimit = st.SLOLimit, st.OtherLimit
		s.Iterations = st.Iterations
		s.LastMeasured = st.LastMeasured
	case *fairness.Controller:
		st := l.Status()
		f := &FairnessResult{
			Limits:     make(map[int]int, len(st.Limits)),
			Iterations: st.Iterations,
			Moves:      st.Moves,
		}
		for c, n := range st.Limits {
			f.Limits[int(c)] = n
		}
		r.out.Fairness = f
	}
}

// beginMeasurement opens the measurement window at the engine's
// current time. No control loop is attached yet — Stack.SLO, the
// fairness block and events all attach later — so each loop opens its
// own observation window inside the measurement window.
func (r *run) beginMeasurement() {
	if c := r.st.Cluster; c != nil {
		for _, sh := range c.Shards() {
			sh.FE.ResetMetrics()
			if sh.DB != nil {
				sh.DB.Pool().ResetStats()
			}
		}
	} else {
		r.st.FE.ResetMetrics()
		if r.st.DB != nil {
			r.st.DB.Pool().ResetStats()
		}
	}
	r.measuring = true
	m := takeMark(r.st)
	r.totalMark, r.phaseMark, r.winMark = m, m, m
	r.nextSnap = m.t + r.sc.SampleInterval
}

// churnEvents precomputes one phase's failure schedule: per shard, an
// alternating sequence of exponential up/down sojourns truncated at
// the phase end, emitted as guarded fail/recover events. The schedule
// is a pure function of (spec, shard count, duration, seed), so churn
// phases rerun bit-identically.
func churnEvents(ch ChurnSpec, shards int, dur float64, stackSeed uint64) []Event {
	seed := ch.Seed
	if seed == 0 {
		seed = stackSeed
		if seed == 0 {
			seed = 1
		}
	}
	var out []Event
	for i := 0; i < shards; i++ {
		rng := sim.NewRNG(seed, uint64(211+i))
		exp := func(mean float64) float64 {
			return -mean * math.Log(1-rng.Float64())
		}
		t := exp(ch.MTBF)
		for t < dur {
			idx := i
			out = append(out, Event{At: t, ShardFail: &idx, churn: true})
			t += exp(ch.MTTR)
			if t >= dur {
				// Never leave a churned shard down past its phase: the
				// generator owns only this phase's window.
				t = dur
			}
			out = append(out, Event{At: t, ShardRecover: &idx, churn: true})
			t += exp(ch.MTBF)
		}
	}
	return out
}

// runPhase advances the engine through one phase's measured duration,
// pausing at event and snapshot breakpoints. It reports whether the
// run should stop early (controller convergence).
func (r *run) runPhase(ctx context.Context, ph *Phase) (stopEarly bool, err error) {
	eng := r.st.Eng
	phaseStart := eng.Now()
	phaseEnd := phaseStart + ph.Duration
	// Events fire in offset order, clamped into the phase.
	evs := append([]Event(nil), ph.Events...)
	if ph.Churn != nil {
		evs = append(evs, churnEvents(*ph.Churn, r.st.Cluster.NumShards(), ph.Duration, r.st.Seed)...)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	ei := 0
	for {
		t := phaseEnd
		if ei < len(evs) {
			if et := min(phaseStart+evs[ei].At, phaseEnd); et < t {
				t = et
			}
		}
		if r.sc.SampleInterval > 0 && r.nextSnap < t {
			t = r.nextSnap
		}
		eng.Run(t)
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if r.ascErr != nil {
			return false, r.ascErr
		}
		// Apply everything due at this breakpoint: events first (a
		// snapshot at the same instant observes their effect).
		for ei < len(evs) && min(phaseStart+evs[ei].At, phaseEnd) <= t {
			if err := r.applyEvent(&evs[ei]); err != nil {
				return false, err
			}
			ei++
		}
		if r.sc.SampleInterval > 0 && r.nextSnap <= t {
			r.emitSnapshot(ph)
			r.nextSnap += r.sc.SampleInterval
		}
		if r.converged() {
			return true, nil
		}
		if t >= phaseEnd {
			return false, nil
		}
	}
}

// classes resolves a name-keyed event map to class IDs (validation
// already checked that every name resolves).
func classes[V any](r *run, byName map[string]V) (map[core.Class]V, error) {
	out := make(map[core.Class]V, len(byName))
	for name, v := range byName {
		c, err := r.sc.classOf(r.st.ClassNames, name)
		if err != nil {
			return nil, err
		}
		out[c] = v
	}
	return out, nil
}

// applyEvent performs one control action at the engine's current time.
func (r *run) applyEvent(ev *Event) error {
	gate := r.st.Gate()
	if ev.SetMPL != nil {
		gate.SetMPL(*ev.SetMPL)
	}
	if len(ev.SetWeights) > 0 {
		w, err := classes(r, ev.SetWeights)
		if err != nil {
			return err
		}
		if c := r.st.Cluster; c != nil {
			c.SetWFQWeights(w)
		} else {
			r.st.FE.SetWFQWeights(w)
		}
	}
	if ev.SetTenantLimits != nil {
		if r.st.Cluster != nil {
			return fmt.Errorf("runner: SetTenantLimits event on a sharded system")
		}
		limits, err := classes(r, *ev.SetTenantLimits)
		if err != nil {
			return err
		}
		if len(limits) == 0 {
			limits = nil
		}
		r.st.FE.SetClassLimits(limits)
	}
	if ev.SetTenantDeadlines != nil {
		deadlines, err := classes(r, ev.SetTenantDeadlines)
		if err != nil {
			return err
		}
		for c, d := range deadlines {
			if cl := r.st.Cluster; cl != nil {
				cl.SetAdmitDeadline(c, d)
			} else {
				r.st.FE.SetAdmitDeadline(c, d)
			}
		}
	}
	if ss := ev.SetShardSpeed; ss != nil {
		if r.st.Cluster == nil {
			return fmt.Errorf("runner: SetShardSpeed event on an unsharded system")
		}
		if err := r.st.Cluster.SetSpeed(ss.Shard, ss.Speed); err != nil {
			return err
		}
	}
	if ev.SetDispatch != "" {
		if r.st.Cluster == nil {
			return fmt.Errorf("runner: SetDispatch event on an unsharded system")
		}
		// Seed the policy from the stack so sampled dispatch (jsq-d,
		// lwl-d) reruns bit-identically.
		p, err := cluster.NewPolicySeeded(ev.SetDispatch, r.st.Seed)
		if err != nil {
			return err
		}
		r.st.Cluster.SetPolicy(p)
	}
	if ev.ShardAdd {
		if r.st.Cluster == nil {
			return fmt.Errorf("runner: ShardAdd event on an unsharded system")
		}
		if r.st.NewShard == nil {
			return fmt.Errorf("runner: ShardAdd event needs a Stack.NewShard factory")
		}
		sh, err := r.st.NewShard(r.st.Cluster.NumShards())
		if err != nil {
			return err
		}
		if _, err := r.st.Cluster.AddShard(sh); err != nil {
			return err
		}
	}
	if ev.ShardFail != nil {
		c := r.st.Cluster
		if c == nil {
			return fmt.Errorf("runner: ShardFail event on an unsharded system")
		}
		skip := false
		if ev.churn {
			// Generator-synthesized failures never take the last Up
			// shard down; an explicit scenario event may.
			up := 0
			for _, s := range c.States() {
				if s == cluster.ShardUp {
					up++
				}
			}
			skip = up <= 1 && c.State(*ev.ShardFail) == cluster.ShardUp
		}
		if !skip {
			if err := c.FailShard(*ev.ShardFail); err != nil {
				return err
			}
		}
	}
	if ev.ShardRecover != nil {
		if r.st.Cluster == nil {
			return fmt.Errorf("runner: ShardRecover event on an unsharded system")
		}
		if err := r.st.Cluster.RecoverShard(*ev.ShardRecover); err != nil {
			return err
		}
	}
	if ev.ShardRemove != nil {
		if r.st.Cluster == nil {
			return fmt.Errorf("runner: ShardRemove event on an unsharded system")
		}
		if err := r.st.Cluster.RemoveShard(*ev.ShardRemove); err != nil {
			return err
		}
	}
	// Disables run before enables, so one event can hand the partition
	// from one loop to another ({disable_slo, enable_fairness} works).
	// A detached loop's outcome is recorded so its report survives the
	// disable.
	if ev.DisableSLO {
		r.record(r.loops.Detach(controller.KindSLO))
	}
	if ev.DisableFairness {
		if l := r.loops.Detach(controller.KindFairness); l != nil {
			r.record(l)
			// The partition stays where the loop left it, but a strict
			// cap relaxes: without a controller rebalancing it, a hard
			// cap could idle capacity forever.
			r.st.FE.SetStrictPartition(false)
		}
	}
	if ev.DisableController {
		r.record(r.loops.Detach(controller.KindMPL))
		r.stopOnConverge = false
	}
	if ev.SetSLO != nil {
		if err := r.attachSLO(*ev.SetSLO); err != nil {
			return err
		}
	}
	if ev.EnableFairness != nil {
		if err := r.attachFairness(*ev.EnableFairness); err != nil {
			return err
		}
	}
	if cs := ev.EnableController; cs != nil {
		if err := r.attachController(*cs); err != nil {
			return err
		}
	}
	return nil
}

// shardReports assembles each shard's slice of the whole measurement
// window (nil for single-backend stacks).
func (r *run) shardReports() []ShardResult {
	c := r.st.Cluster
	if c == nil {
		return nil
	}
	to := takeMark(r.st)
	from := r.totalMark
	out := make([]ShardResult, c.NumShards())
	for i, sh := range c.Shards() {
		sr := ShardResult{Shard: i, Speed: sh.Speed, State: c.State(i).String()}
		var m core.Metrics
		if i < len(r.shardTotal) {
			m = r.shardTotal[i]
		}
		fill(&sr.Report, &m, to.t-from.t, &r.scratch)
		// A shard added mid-run is missing from the opening mark; its
		// cumulative counters started at zero when it joined, so the
		// whole-window delta is just the closing value.
		var f shardMark
		if i < len(from.shards) {
			f = from.shards[i]
		}
		if i < len(to.shards) {
			t := to.shards[i]
			sr.Dispatched = t.routed - f.routed
			sr.Dropped = t.dropped - f.dropped
			sr.LockWaits = t.waits - f.waits
			sr.Deadlocks = t.dl - f.dl
			sr.Preemptions = t.preempt - f.preempt
			sr.CPUUtil = utilDelta(f.cpuBusy, t.cpuBusy, from.t, to.t)
			sr.DiskUtil = utilDelta(f.diskBusy, t.diskBusy, from.t, to.t)
			if w := to.t - from.t; w > 0 {
				sr.Availability = (t.upSec - f.upSec) / w
			}
		}
		out[i] = sr
	}
	return out
}

// maxSnapshotShards bounds the per-member slice an interval snapshot
// carries: above this fleet size a collector holding the run's time
// series would grow O(N) per interval, so snapshots keep only the
// aggregate (and fleet-size) fields. Whole-run per-shard reports in
// the Result are unaffected — they are emitted once, not per tick.
const maxSnapshotShards = 128

// shardStats assembles the per-shard slice of an interval snapshot and
// opens the shards' next completion window.
func (r *run) shardStats(to mark) []metrics.ShardStat {
	c := r.st.Cluster
	if c == nil {
		return nil
	}
	if c.NumShards() > maxSnapshotShards {
		// Elide the slice but still close the shards' completion
		// window, or the first small-fleet snapshot after a shrink
		// would double-count.
		for i := range r.winShard {
			r.winShard[i] = 0
		}
		return nil
	}
	out := make([]metrics.ShardStat, c.NumShards())
	for i, sh := range c.Shards() {
		ss := metrics.ShardStat{
			Shard:    i,
			Speed:    sh.Speed,
			Limit:    sh.FE.MPL(),
			Inflight: sh.FE.Inside(),
			Queued:   sh.FE.QueueLen(),
			State:    c.State(i).String(),
		}
		if i < len(r.winShard) {
			ss.Completed = r.winShard[i]
			r.winShard[i] = 0
		}
		// As in shardReports, a shard added mid-window is simply absent
		// from the opening mark: its counters delta from zero.
		var f shardMark
		if i < len(r.winMark.shards) {
			f = r.winMark.shards[i]
		}
		if i < len(to.shards) {
			t := to.shards[i]
			ss.Dispatched = t.routed - f.routed
			ss.CPUUtil = utilDelta(f.cpuBusy, t.cpuBusy, r.winMark.t, to.t)
			ss.DiskUtil = utilDelta(f.diskBusy, t.diskBusy, r.winMark.t, to.t)
			if w := to.t - r.winMark.t; w > 0 {
				ss.Availability = (t.upSec - f.upSec) / w
			}
		}
		out[i] = ss
	}
	return out
}

// maxSnapshotClasses bounds the per-class slice an interval snapshot
// carries, like maxSnapshotShards does for shards: above this tenant
// count a collector holding the run's time series would grow O(N) per
// interval, so snapshots keep only the aggregate fields. Whole-run
// per-class reports in the Result are unaffected — they are emitted
// once, not per tick.
const maxSnapshotClasses = 64

// classStats assembles the per-class slice of an interval snapshot:
// every class that completed or shed work this window, ascending.
func (r *run) classStats(to mark) []metrics.ClassStat {
	classes := activeClasses(&r.window, r.winMark, to)
	if len(classes) == 0 || len(classes) > maxSnapshotClasses {
		return nil
	}
	out := make([]metrics.ClassStat, len(classes))
	for i, c := range classes {
		out[i] = r.classStat(&r.window, r.winMark, to, c)
	}
	return out
}

// emitSnapshot sends the current interval window to every observer,
// records it in the Result, and opens the next one.
func (r *run) emitSnapshot(ph *Phase) {
	st := r.st
	gate := st.Gate()
	to := takeMark(st)
	w := &r.window
	s := metrics.Snapshot{
		Time:         to.t,
		Window:       to.t - r.winMark.t,
		Phase:        ph.label(),
		Limit:        gate.MPL(),
		Inflight:     gate.Inside(),
		Queued:       gate.QueueLen(),
		Completed:    w.Completed,
		MeanResponse: w.All.Mean(),
		MeanWait:     w.ExtWait.Mean(),
		MeanInside:   w.Inside.Mean(),
		Restarts:     w.Restarts,
		Dropped:      to.dropped - r.winMark.dropped,
		Canceled:     to.canceled - r.winMark.canceled,
		Shed:         to.shed - r.winMark.shed,
		Failed:       to.failed - r.winMark.failed,
		Resubmitted:  to.resub - r.winMark.resub,
		Retries:      to.retries - r.winMark.retries,
		CPUUtil:      utilDelta(r.winMark.cpuBusy, to.cpuBusy, r.winMark.t, to.t),
		DiskUtil:     utilDelta(r.winMark.diskBusy, to.diskBusy, r.winMark.t, to.t),
	}
	if s.Window > 0 {
		s.Throughput = float64(s.Completed) / s.Window
	}
	s.P50, s.P95, s.P99 = percentiles(w, &r.scratch)
	s.Classes = r.classStats(to)
	if c := st.Cluster; c != nil {
		s.FleetSize = c.NumShards()
		s.FleetUp = c.UpCount()
	}
	if r.asc != nil {
		ups, downs := r.asc.ScaleUps(), r.asc.ScaleDowns()
		s.ScaleUps = ups - r.snapUps
		s.ScaleDowns = downs - r.snapDowns
		r.snapUps, r.snapDowns = ups, downs
	}
	s.Shards = r.shardStats(to)
	for _, o := range r.obs {
		o.OnInterval(s)
	}
	r.out.Snapshots = append(r.out.Snapshots, s)
	r.window.Reset()
	r.winMark = to
}
