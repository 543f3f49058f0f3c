package gate

import (
	"errors"
	"fmt"

	"extsched/internal/controller"
)

// TuneConfig parameterizes the feedback controller (the paper's
// Section 4.3 loop) for a live gate. It is the controller's own
// config:
//
//   - MaxThroughputLoss is the acceptable fractional throughput loss
//     versus the reference (e.g. 0.05 = keep 95%). Required, in [0,1).
//   - ReferenceThroughput is the no-limit optimum in completions per
//     second — measure it by running the gate unlimited (Limit 0) under
//     representative load and reading Stats().Throughput, or supply a
//     capacity-model estimate. Required.
//   - MaxRTIncrease and ReferenceRT enable the optional response-time
//     criterion; zero values disable it.
//   - MinObservations gates window close; default 100 completions (the
//     paper's choice). Lower it for quick-converging demos and tests.
//   - MaxWindow, MinLimit/MaxLimit and HoldWindows default to
//     50×MinObservations, 1 and 200, and 2.
type TuneConfig = controller.Config

// TuneStatus reports the controller's progress.
type TuneStatus struct {
	// Enabled is false until EnableAutoTune succeeds.
	Enabled bool
	// Converged reports whether the loop has settled at the lowest
	// feasible limit; Iterations counts completed reactions.
	Converged  bool
	Iterations int
	// Limit is the current (possibly still-moving) MPL.
	Limit int
}

// EnableAutoTune attaches the feedback controller to the gate's
// completion stream: from now on every Release feeds the controller's
// own observation window, and each closed window nudges the limit — up
// when the throughput (or response-time) target is violated, down when
// both are met with margin — converging on the lowest feasible limit.
// The gate's limit must be >= 1 (the controller needs a finite
// starting point; use the queueing models' estimate from
// extsched.RecommendMPL or a modest guess — the adaptive step recovers
// from misjudged starts). Enabling twice
// replaces the previous controller, which opens a fresh window.
// Auto-tune may run alongside SLO tuning or fairness, which split
// whatever limit it sets.
func (g *Gate) EnableAutoTune(tc TuneConfig) error {
	if g.fe.MPL() < 1 {
		return fmt.Errorf("gate: auto-tune needs a finite starting limit (have %d); set Config.Limit or SetLimit first", g.fe.MPL())
	}
	return g.loops.Attach(controller.KindMPL, func() (controller.Loop, error) {
		return controller.New(g.clock, g.fe, tc)
	})
}

// DisableAutoTune detaches the controller; the limit stays where the
// loop left it.
func (g *Gate) DisableAutoTune() { g.loops.Detach(controller.KindMPL) }

// SLOTuneConfig parameterizes the per-class latency-SLO controller for
// a live gate: hold Class's Percentile-th response-time percentile at
// or below Target seconds by partitioning the gate's limit across the
// classes, leaving every slot the SLO does not need to OtherClass's
// throughput. It is the SLO loop's own config: Class is usually
// ClassHigh; OtherClass defaults to ClassLow (or ClassHigh when Class
// is ClassLow); Percentile 0 means 95; Target is required, > 0;
// MinObservations 0 means 50 and Margin 0 means 0.5. Both classes must
// lie in [0, 65535]. Combine with Config.AdmitDeadline on the other
// class to shed un-startable work under overload.
type SLOTuneConfig = controller.SLOConfig

// SLOTuneStatus reports the SLO loop's progress.
type SLOTuneStatus struct {
	// Enabled is false until EnableSLOTune succeeds.
	Enabled bool
	// SLOLimit / OtherLimit are the current slot partition; Iterations
	// counts completed reactions; LastMeasured is the last closed
	// window's measured percentile in seconds.
	SLOLimit, OtherLimit int
	Iterations           int
	LastMeasured         float64
}

// EnableSLOTune attaches the latency-SLO controller to the gate's
// completion stream: every Release feeds the loop's own observation
// window, whose sketch of the protected class's response times gives
// the measured percentile, and each closed window nudges the class
// partition —
// a slot toward the protected class while its percentile target is
// violated, a slot back once it is met with margin. The gate needs a
// finite limit of at least 2 (a partition has two sides). Enabling
// twice replaces the previous loop, which opens a fresh window. SLO
// tuning and fairness both write the class partition, so enabling one
// while the other is enabled fails. Auto-tune may run alongside: the
// SLO loop re-spreads any limit change, from auto-tune or SetLimit, at
// its next reaction.
func (g *Gate) EnableSLOTune(tc SLOTuneConfig) error {
	if g.fe.MPL() < 2 {
		return fmt.Errorf("gate: SLO tuning needs a limit >= 2 to partition (have %d); set Config.Limit or SetLimit first", g.fe.MPL())
	}
	if err := errors.Join(checkClass(tc.Class), checkClass(tc.OtherClass)); err != nil {
		return err
	}
	return g.loops.Attach(controller.KindSLO, func() (controller.Loop, error) {
		return controller.NewSLO(g.fe, tc)
	})
}

// DisableSLOTune detaches the SLO loop; the class partition stays
// where it left it (clear it with SetClassLimits(nil)).
func (g *Gate) DisableSLOTune() { g.loops.Detach(controller.KindSLO) }

// SLOTuneStatus reports the SLO loop's state (zero value when SLO
// tuning is not enabled).
func (g *Gate) SLOTuneStatus() SLOTuneStatus {
	s, ok := g.loops.Loop(controller.KindSLO).(*controller.SLOController)
	if !ok {
		return SLOTuneStatus{}
	}
	st := s.Status()
	return SLOTuneStatus{
		Enabled:      true,
		SLOLimit:     st.SLOLimit,
		OtherLimit:   st.OtherLimit,
		Iterations:   st.Iterations,
		LastMeasured: st.LastMeasured,
	}
}

// TuneStatus reports the controller's progress (only the limit when
// auto-tuning is not enabled).
func (g *Gate) TuneStatus() TuneStatus {
	ctl, ok := g.loops.Loop(controller.KindMPL).(*controller.Controller)
	if !ok {
		return TuneStatus{Limit: g.fe.MPL()}
	}
	st := ctl.Status()
	return TuneStatus{
		Enabled:    true,
		Converged:  st.Converged,
		Iterations: st.Iterations,
		Limit:      g.fe.MPL(),
	}
}
