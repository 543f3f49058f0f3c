package runner

import "extsched/metrics"

// Report summarizes one measurement window (the whole run, one phase's
// slice of it, or one shard's). The windowing rule is uniform across
// all run styles: the window opens when warmup ends and closes when
// the scenario's last phase elapses, and a completion counts if and
// only if it lands inside the window — work still in flight at the
// close is excluded, and nothing completing later can pollute the
// numbers. Counter fields are deltas over the window.
type Report struct {
	SimSeconds    float64
	Completed     uint64
	Throughput    float64 // transactions/second
	MeanRT        float64 // overall mean response time (s)
	MeanInside    float64 // mean time inside the DBMS (s)
	ExternalW     float64 // mean external queue wait (s)
	Restarts      uint64  // abort/restart cycles observed
	CPUUtil       float64
	DiskUtil      float64
	DemandC2      float64 // measured C² of the time spent inside the DBMS
	LockWaits     uint64
	Deadlocks     uint64
	Preemptions   uint64
	Dropped       uint64  // admission-control rejections (queue-limit mode)
	Shed          uint64  // deadline-missed rejections (admission deadlines)
	Failed        uint64  // txns terminally lost to shard failures
	Resubmitted   uint64  // logical txns re-routed to a survivor at least once
	Retries       uint64  // resubmission events (one txn can retry several times)
	P50, P95, P99 float64 // response-time percentiles of the window, within stats.SketchAlpha
	// Classes is the per-tenant breakdown of the window, in ascending
	// class-ID order: one entry per class that completed or shed work.
	// Class looks one up by ID.
	Classes []ClassResult
}

// Class finds the entry for a class ID (zero value when the class
// neither completed nor shed work in the window). The two-class
// workloads' high class is ID 1, their low class ID 0.
func (r Report) Class(id int) ClassResult {
	for _, c := range r.Classes {
		if c.Class == id {
			return c
		}
	}
	return ClassResult{}
}

// ClassResult is one tenant class's slice of a Report window.
type ClassResult struct {
	// Class is the tenant's class ID (its position in the tenants
	// block); Name its registered name ("" when unregistered).
	Class int
	Name  string
	// Completed / Shed count the class's completions and deadline-shed
	// rejections in the window.
	Completed, Shed uint64
	// MeanRT is the class's mean response time in seconds; P95 its
	// 95th percentile over the window, within stats.SketchAlpha.
	MeanRT, P95 float64
}

// PhaseResult is one phase's slice of the measurement window.
type PhaseResult struct {
	Name string
	Kind PhaseKind
	Report
}

// ShardResult is one shard's slice of the whole measurement window
// (sharded systems only). Its Report covers only the transactions the
// dispatcher routed to this shard; device utilizations, lock counters
// and percentiles are the shard's own. The shards' sketches merge
// exactly into the run's, so the fleet percentiles in Result.Total are
// those of the union of the shards' completions.
type ShardResult struct {
	// Shard is the shard index; Speed its relative CPU speed when the
	// run ended.
	Shard int
	Speed float64
	// Dispatched counts arrivals routed to the shard in the window.
	Dispatched uint64
	// State is the shard's lifecycle state when the run ended ("up",
	// "draining", "down").
	State string
	// Availability is the fraction of the measurement window the shard
	// was serving (1 when the scenario never touched it; a shard added
	// mid-run accrues only from its join).
	Availability float64
	Report
}

// TuneResult reports a feedback-controller run (any scenario with an
// EnableController event).
type TuneResult struct {
	StartMPL   int
	FinalMPL   int
	Iterations int
	Converged  bool
}

// SLOResult reports a latency-SLO-controlled run (Stack.SLO, or any
// scenario with a SetSLO event).
type SLOResult struct {
	// Class names the protected class as the SLO spec resolved it.
	Class string
	// SLOLimit / OtherLimit are the final slot partition; they sum to
	// the final MPL.
	SLOLimit, OtherLimit int
	// Iterations counts completed SLO reactions; LastMeasured is the
	// last closed window's measured percentile in seconds (0 before any
	// window closed).
	Iterations   int
	LastMeasured float64
}

// FairnessResult reports a fairness-controlled run (Scenario.Fairness,
// or any scenario with an enable_fairness event).
type FairnessResult struct {
	// Limits is the final per-tenant slot partition, keyed by class ID
	// (it sums to the final MPL).
	Limits map[int]int
	// Iterations counts completed fairness reactions; Moves how many
	// of them actually moved a slot.
	Iterations, Moves int
}

// AutoscaleResult reports an autoscaled run's fleet trajectory.
type AutoscaleResult struct {
	// ScaleUps / ScaleDowns count controller actions over the run.
	ScaleUps, ScaleDowns uint64
	// FinalFleet is the serving shard count when the run ended;
	// PeakFleet / MinFleet the extremes observed at controller ticks.
	FinalFleet, PeakFleet, MinFleet int
	// ShardSeconds is the total shard-up time accrued inside the
	// measurement window, summed over all slots — the capacity bill an
	// autoscaled fleet shrinks versus a fixed one.
	ShardSeconds float64
}

// Result is a completed scenario run.
type Result struct {
	// Total aggregates the whole measurement window (warmup excluded;
	// only work that completed inside the window counts — see the
	// windowing rule in Report).
	Total Report
	// Phases slices the window per phase, in execution order. A run
	// stopped early by controller convergence omits the unreached
	// phases.
	Phases []PhaseResult
	// Shards slices the window per shard (nil for unsharded systems).
	Shards []ShardResult
	// Snapshots is the interval time series (empty unless
	// Scenario.SampleInterval was set).
	Snapshots []metrics.Snapshot
	// Tune is non-nil when the scenario enabled the controller.
	Tune *TuneResult
	// SLO is non-nil when the latency-SLO controller ran.
	SLO *SLOResult
	// Fairness is non-nil when the max-min fairness controller ran.
	Fairness *FairnessResult
	// Autoscale is non-nil when Scenario.Autoscale armed the fleet
	// autoscaler.
	Autoscale *AutoscaleResult
	// FinalMPL is the MPL when the run ended (mid-phase events or the
	// controller may have moved it off the configured value). For
	// sharded systems it is the cluster-wide limit (sum of shard
	// limits; 0 if any shard is unlimited).
	FinalMPL int
}
