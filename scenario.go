package extsched

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"extsched/internal/runner"
	"extsched/internal/trace"
	"extsched/metrics"
)

// Trace is a replayable transaction trace: ordered arrival timestamps
// with per-transaction service demands. Build one from your own logs,
// or synthesize one with TraceSynth / the cmd/tracegen tool.
type Trace = trace.Trace

// TraceRecord is one traced transaction.
type TraceRecord = trace.Record

// TraceSynth parameterizes synthetic trace generation (lognormal
// demands fit to a mean and C², Poisson or burst-modulated arrivals) —
// the JSON-friendly way to put a trace phase in a scenario file
// without embedding records.
type TraceSynth = trace.SynthConfig

// The scenario and result vocabulary is defined once, in the runner
// that executes it; the aliases below are its public names. See each
// type's documentation in internal/runner.
type (
	// Scenario is a declarative description of one experiment: a
	// warmup, then an ordered list of traffic phases with mid-phase
	// control events. One System runs any number of scenarios, each on
	// pristine simulation state, so repeated runs of the same scenario
	// with the same Config.Seed are bit-identical.
	Scenario = runner.Scenario
	// Phase is one segment of a Scenario: a traffic source run for
	// Duration simulated seconds, with optional mid-phase events.
	Phase = runner.Phase
	// PhaseKind names a phase's traffic source (the Phase* constants).
	PhaseKind = runner.PhaseKind
	// Event is a mid-phase control action. Tenant names resolve against
	// the tenants block first, then the built-in "high"/"low" pair.
	Event = runner.Event
	// TenantSpec declares one tenant of a multi-tenant scenario.
	TenantSpec = runner.TenantSpec
	// TenantLimits is a static per-tenant MPL partition, keyed by
	// tenant name (see Event.SetTenantLimits).
	TenantLimits = runner.TenantLimits
	// FairnessSpec configures the weighted max-min fairness controller.
	FairnessSpec = runner.FairnessSpec
	// SLOSpec configures the per-class latency-SLO controller.
	SLOSpec = runner.SLOSpec
	// ControllerSpec configures the Section 4.3 feedback controller.
	ControllerSpec = runner.ControllerSpec
	// ChurnSpec runs a seeded MTBF/MTTR fault generator for one phase.
	ChurnSpec = runner.ChurnSpec
	// AutoscaleSpec arms the fleet autoscaler for a whole scenario.
	AutoscaleSpec = runner.AutoscaleSpec
	// ShardSpeedEvent retargets one shard's relative CPU speed.
	ShardSpeedEvent = runner.ShardSpeedEvent

	// Result is a completed scenario run.
	Result = runner.Result
	// Report summarizes one measurement window: the window opens when
	// warmup ends and closes when the last phase elapses, and a
	// completion counts if and only if it lands inside it.
	Report = runner.Report
	// PhaseResult is one phase's slice of the measurement window.
	PhaseResult = runner.PhaseResult
	// ShardResult is one shard's slice of the measurement window.
	ShardResult = runner.ShardResult
	// ClassResult is one tenant class's slice of a Report window.
	ClassResult = runner.ClassResult
	// TuneResult reports a feedback-controller run.
	TuneResult = runner.TuneResult
	// SLOResult reports a latency-SLO-controlled run.
	SLOResult = runner.SLOResult
	// FairnessResult reports a fairness-controlled run.
	FairnessResult = runner.FairnessResult
	// AutoscaleResult reports an autoscaled run's fleet trajectory.
	AutoscaleResult = runner.AutoscaleResult
)

// Phase kinds accepted by Phase.Kind.
const (
	PhaseClosed  = runner.PhaseClosed
	PhaseOpen    = runner.PhaseOpen
	PhaseRamp    = runner.PhaseRamp
	PhaseBurst   = runner.PhaseBurst
	PhaseTrace   = runner.PhaseTrace
	PhaseDiurnal = runner.PhaseDiurnal
	PhaseFlash   = runner.PhaseFlash
)

// ParseScenario decodes a JSON scenario (as written by cmd/dbsim
// -scenario files) and validates it. Unknown fields are rejected, so
// typos in hand-written scenario files fail loudly.
func ParseScenario(data []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("extsched: parsing scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// ExampleScenarioJSON is a runnable template for scenario files (cmd/
// dbsim prints it with -scenario-example, and the fuzz corpus seeds
// from it): three weighted tenants under the strict max-min fairness
// controller through a steady closed phase, an open ramp surge that
// swaps the fairness loop for the throughput feedback controller (a
// choice: the two could also run together, the controller picking the
// MPL that fairness partitions) and rebalances the tenant weights
// mid-flight, and a synthesized bursty trace replay.
const ExampleScenarioJSON = `{
  "name": "surge-demo",
  "warmup": 30,
  "sample_interval": 20,
  "tenants": [
    {"name": "batch", "weight": 1, "share": 0.5},
    {"name": "web", "weight": 4, "share": 0.3},
    {"name": "api", "weight": 4, "share": 0.2, "slo_target": 2}
  ],
  "fairness": {"strict": true},
  "phases": [
    {
      "name": "steady",
      "kind": "closed",
      "duration": 200,
      "clients": 100
    },
    {
      "name": "surge",
      "kind": "ramp",
      "duration": 200,
      "lambda": 50,
      "lambda2": 120,
      "events": [
        {"at": 0, "disable_fairness": true},
        {
          "at": 1,
          "enable_controller": {
            "max_throughput_loss": 0.05,
            "reference_throughput": 95
          }
        },
        {"at": 50, "set_weights": {"web": 8, "batch": 1}}
      ]
    },
    {
      "name": "replay",
      "kind": "trace",
      "duration": 200,
      "trace_synth": {
        "N": 20000,
        "MeanDemand": 0.01,
        "DemandC2": 2.0,
        "Lambda": 80,
        "Burstiness": 2,
        "Seed": 7
      }
    }
  ]
}
`

// Run executes the scenario on pristine simulation state assembled
// from the System's Config: every run rebuilds the engine, DBMS,
// frontend, and generator from the same seed, so running the same
// scenario twice — on one System or on two — produces bit-identical
// Results. Observers registered with Observe (plus any passed here)
// receive windowed snapshots each SampleInterval, synchronously on the
// simulation goroutine. ctx cancels between breakpoints.
func (s *System) Run(ctx context.Context, sc Scenario, obs ...metrics.Observer) (Result, error) {
	return s.runScenario(ctx, sc, nil, obs...)
}

// runScenario is Run with an optional MPL override for the fresh stack
// (AutoTune starts at the model's jump-start value, not Config.MPL).
func (s *System) runScenario(ctx context.Context, sc Scenario, initialMPL *int, obs ...metrics.Observer) (Result, error) {
	// Vet the scenario before paying for the stack; Run repeats the
	// checks against the built fleet.
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	mpl := s.cfg.MPL
	if initialMPL != nil {
		mpl = *initialMPL
	}
	st, err := s.buildStack(mpl)
	if err != nil {
		return Result{}, err
	}
	s.cur = &st
	defer func() { s.cur = nil }()
	all := append(append([]metrics.Observer(nil), s.observers...), obs...)
	return runner.Run(ctx, st, sc, all...)
}
