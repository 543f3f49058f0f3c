package workload

import (
	"fmt"

	"extsched/internal/dbms"
	"extsched/internal/sim"
	"extsched/internal/trace"
)

// TraceDriver replays a recorded (or synthesized) trace through a
// frontend: each record arrives at its traced timestamp with its
// traced service demand. This is how the production-trace comparison
// of Section 3.2 is exercised end to end, and how a user would feed
// their own transaction logs to the tool to pick an MPL.
//
// Records are scheduled one at a time (the next record's arrival event
// is created when the previous one fires), so replaying a million-row
// trace holds one pending event, and Pause/Resume can shift the
// remaining schedule without touching already-created events: pausing
// freezes the trace clock, resuming shifts the base so inter-arrival
// gaps are preserved across the gap.
type TraceDriver struct {
	eng      *sim.Engine
	fe       Sink
	tr       *trace.Trace
	profiles []dbms.TxnProfile
	stopped  bool
	paused   bool
	pending  sim.Handle
	// base maps trace time to engine time: record i fires at
	// base + (arrival[i] - arrival[0]) / Speedup.
	base    float64
	next    int
	started uint64
	// Speedup divides the trace's inter-arrival times (2.0 = replay
	// twice as fast, stressing the system at twice the traced load).
	// Set it before Start.
	Speedup float64
	fire    func() // arrive, bound once
}

// NewTraceDriver validates the trace and returns a replayer.
func NewTraceDriver(eng *sim.Engine, fe Sink, tr *trace.Trace) (*TraceDriver, error) {
	if tr.Len() == 0 {
		return nil, fmt.Errorf("workload: cannot replay an empty trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	d := &TraceDriver{eng: eng, fe: fe, tr: tr, Speedup: 1}
	d.fire = d.arrive
	return d, nil
}

// Start schedules the first record's arrival. The trace's first arrival
// is shifted to the engine's current time.
func (d *TraceDriver) Start() {
	if d.Speedup <= 0 {
		panic(fmt.Sprintf("workload: replay speedup %v must be positive", d.Speedup))
	}
	d.base = d.eng.Now()
	d.profiles = d.tr.ToProfiles()
	d.schedule()
}

// Stop suppresses any arrivals not yet fired.
func (d *TraceDriver) Stop() { d.stopped = true }

// Pause freezes the replay after the in-flight record; remaining
// records wait until Resume.
func (d *TraceDriver) Pause() {
	if d.stopped || d.paused {
		return
	}
	d.paused = true
	d.eng.Cancel(d.pending)
}

// Resume continues the replay: the next record fires as if the paused
// interval had not happened (the base shifts by the pause length), so
// the trace's inter-arrival structure is preserved.
func (d *TraceDriver) Resume() {
	if d.stopped || !d.paused {
		return
	}
	d.paused = false
	if at := d.arrivalTime(d.next); at < d.eng.Now() {
		d.base += d.eng.Now() - at
	}
	d.schedule()
}

// Started returns the number of records already submitted.
func (d *TraceDriver) Started() uint64 { return d.started }

// Done reports whether every record has been submitted.
func (d *TraceDriver) Done() bool { return d.next >= d.tr.Len() }

// arrivalTime returns the engine time record i is due at.
func (d *TraceDriver) arrivalTime(i int) float64 {
	return d.base + (d.tr.Records[i].Arrival-d.tr.Records[0].Arrival)/d.Speedup
}

func (d *TraceDriver) schedule() {
	if d.stopped || d.paused || d.next >= d.tr.Len() {
		return
	}
	at := d.arrivalTime(d.next)
	if now := d.eng.Now(); at < now {
		at = now
	}
	d.pending = d.eng.At(at, d.fire)
}

// arrive is the record-arrival event.
func (d *TraceDriver) arrive() {
	if d.stopped || d.paused {
		return
	}
	profile := d.profiles[d.next]
	d.next++
	d.started++
	d.fe.Submit(profile)
	d.schedule()
}
