// Package dbfe binds the backend-agnostic external scheduler
// (internal/core) to the simulated DBMS (internal/dbms): the MPL gate
// and queue policies come from core, transaction execution comes from
// dbms, and the glue here adapts between the two — a dbms.TxnProfile
// goes in, a generic core.Item flows through the gate, and the DBMS
// executes the profile when the gate admits it.
//
// This is the simulator-side twin of the top-level gate package (the
// live-traffic binding): both are thin Backends over the same core
// frontend, which is what makes sim-vs-live parity claims meaningful.
//
// In steady state a transaction allocates nothing here. Each frontend
// keeps a free list of Txn records (the core.Item is embedded in each,
// and each binds its DBMS completion once). A record is retired — put
// back on the list, its profile handed back to the generator that drew
// it — exactly once, after the last completion or shed hook for it
// returns. A txn that was failed, doomed or resubmitted is never
// retired, so a dead shard's late DBMS events can still read its
// profile; a dropped txn is never retired either. Callers must not
// keep a committed or shed *Txn past its hooks.
package dbfe

import (
	"extsched/internal/core"
	"extsched/internal/dbms"
	"extsched/internal/lockmgr"
	"extsched/internal/sim"
)

// Txn is one transaction flowing through the frontend.
type Txn struct {
	// Item is the generic gate record (timestamps, class, size hint).
	Item core.Item
	// Profile is the workload-generated transaction.
	Profile dbms.TxnProfile
	// Result is the DBMS's commit report (set at completion).
	Result dbms.Result
	// Attempts counts the recovery attempts consumed for this logical
	// transaction (0 on first submission). The cluster dispatcher's
	// resubmit path carries it across resubmissions and enforces the
	// retry budget against it; dbfe itself never touches it.
	Attempts int
	// UserCB is the submitter's own completion callback, kept reachable
	// on the txn so the cluster dispatcher can resubmit a failed txn
	// with it (the per-txn done callback is the dispatcher's accounting
	// wrapper, not the submitter's). dbfe itself never calls it.
	UserCB func(*Txn)
	done   func(*Txn)
	// fe owns the record's free list; onResult is the DBMS completion
	// (dbmsDone), bound once when the record is first allocated.
	fe       *Frontend
	onResult func(dbms.Result)
	// prev/next link the txn into fe's live list while it is
	// outstanding (queued or executing); linked marks membership.
	prev, next *Txn
	linked     bool
	// executing is set when the gate admits the txn into the DBMS.
	// doomed suppresses the late DBMS completion of a txn that was in
	// flight when its shard died (the simulated DBMS has no cancel API,
	// so the execution events still fire — the completion callback just
	// ignores them). retired marks a record on the free list.
	executing, doomed, retired bool
}

// Failed reports whether the transaction was lost to a shard failure
// (see Frontend.Fail). Valid once the txn is terminal.
func (t *Txn) Failed() bool { return t.Item.WasFailed() }

// Class returns the transaction's priority class.
func (t *Txn) Class() lockmgr.Class { return t.Profile.Class }

// ResponseTime is Complete − Arrival (external wait + inside time).
func (t *Txn) ResponseTime() float64 { return t.Item.ResponseTime() }

// ExternalWait is Dispatch − Arrival.
func (t *Txn) ExternalWait() float64 { return t.Item.ExternalWait() }

// Frontend is the external scheduler over a simulated DBMS. It embeds
// the generic core.Frontend, so all gate controls (SetMPL, QueueLen,
// Metrics, SetQueueLimit, …) are available directly.
type Frontend struct {
	*core.Frontend
	// head/tail is the submission-ordered intrusive list of outstanding
	// (queued or executing) transactions — what Fail walks to withdraw
	// every piece of work a dying shard holds. A txn leaves it in O(1)
	// when it settles. Maintained only on the simulation goroutine
	// (like the hooks).
	head, tail *Txn
	// free holds retired records for reuse.
	free []*Txn
	// OnComplete, if set, observes every committed transaction (used by
	// drivers for closed-loop clients and by controller wiring).
	OnComplete func(*Txn)
	// OnDrop, if set, observes admission-control rejections.
	OnDrop func(*Txn)
	// OnShed, if set, observes deadline sheds (transactions rejected
	// because they could not start by their admission deadline). The
	// per-transaction SubmitCB callback fires for sheds too — check
	// Item.WasShed to tell a shed from a commit.
	OnShed func(*Txn)
}

// backend executes admitted items on the simulated DBMS.
type backend struct {
	db *dbms.DB
}

func (b *backend) Exec(it *core.Item) {
	t := it.Payload.(*Txn)
	t.executing = true
	b.db.Exec(t.Profile, t.onResult)
}

// dbmsDone is the DBMS completion of t's execution.
func (t *Txn) dbmsDone(r dbms.Result) {
	if t.doomed {
		// The shard died while this txn was in flight; the loss was
		// already accounted by FailDispatched, so the simulated DBMS's
		// late completion must not reach the gate.
		return
	}
	t.Result = r
	t.fe.Frontend.Complete(&t.Item, core.Outcome{InsideTime: r.InsideTime, Restarts: r.Restarts})
}

// New builds a frontend over db with the given MPL (0 = unlimited) and
// policy (nil = FIFO), on the engine's virtual clock.
func New(eng *sim.Engine, db *dbms.DB, mpl int, policy core.Policy) *Frontend {
	f := &Frontend{}
	f.Frontend = core.New(eng.Clock(), &backend{db: db}, mpl, policy)
	f.Frontend.OnComplete = func(it *core.Item) {
		t := it.Payload.(*Txn)
		f.settle(t)
		if f.OnComplete != nil {
			f.OnComplete(t)
		}
		f.retire(t)
	}
	f.Frontend.OnDrop = func(it *core.Item) {
		if f.OnDrop != nil {
			f.OnDrop(it.Payload.(*Txn))
		}
	}
	f.Frontend.OnShed = func(it *core.Item) {
		t := it.Payload.(*Txn)
		f.settle(t)
		if f.OnShed != nil {
			f.OnShed(t)
		}
		f.retire(t)
	}
	return f
}

// retire puts t back on the free list and hands its profile back to
// the generator that drew it, once t has committed or been shed and
// the last hook for it has returned (failed and doomed txns fire no
// hooks, so they never get here). A resubmitted txn shares its profile
// with a failed one a dead shard may still execute, so it is left to
// the garbage collector.
func (f *Frontend) retire(t *Txn) {
	if t.retired || t.Attempts > 0 {
		return
	}
	if p := t.Profile; p.Owner != nil {
		p.Owner.Recycle(p)
	}
	t.retired = true
	t.Profile, t.UserCB, t.done = dbms.TxnProfile{}, nil, nil
	f.free = append(f.free, t)
}

// link appends t to the live list.
func (f *Frontend) link(t *Txn) {
	t.prev, t.next, t.linked = f.tail, nil, true
	if f.tail != nil {
		f.tail.next = t
	} else {
		f.head = t
	}
	f.tail = t
}

// settle takes t off the live list: it has left the frontend for good
// (commit, shed, or fault).
func (f *Frontend) settle(t *Txn) {
	if !t.linked {
		return
	}
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		f.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		f.tail = t.prev
	}
	t.prev, t.next, t.linked = nil, nil, false
}

// Fail simulates the shard behind this frontend crashing: every
// outstanding transaction — still queued or already executing inside
// the DBMS — is withdrawn and counted in the gate's Failed counter, and
// the withdrawn txns are returned in submission order so the caller
// (the cluster dispatcher's recovery policy) can resubmit or shed them.
// No per-txn callbacks fire here. In-flight txns are doomed: the
// simulated DBMS has no cancel API, so their execution events still
// fire, but the completion is suppressed. The frontend itself stays
// usable (Recover on the dispatcher side routes work back to it).
func (f *Frontend) Fail() []*Txn {
	// Withdraw queued work first: failing an in-flight txn frees a slot
	// and refills from the queue, which must find nothing live to admit
	// into the dead DBMS. No hook fires here, so the list holds still.
	for t := f.head; t != nil; t = t.next {
		f.Frontend.FailQueued(&t.Item)
	}
	var out []*Txn
	for t := f.head; t != nil; t = t.next {
		if t.executing && !t.Item.WasFailed() {
			t.doomed = true
			f.Frontend.FailDispatched(&t.Item)
		}
		if t.Item.WasFailed() {
			out = append(out, t)
		}
	}
	for _, t := range out {
		f.settle(t)
	}
	return out
}

// txnDone adapts the per-item completion callback to the Txn-level one.
// A package-level func value, so passing it allocates nothing.
func txnDone(it *core.Item) {
	t := it.Payload.(*Txn)
	t.done(t)
}

// Submit delivers a new transaction to the external scheduler.
func (f *Frontend) Submit(profile dbms.TxnProfile) *Txn {
	return f.SubmitCB(profile, nil)
}

// SubmitCB is Submit with a per-transaction completion callback (used
// by closed-loop drivers to cycle their client). cb runs before the
// frontend-wide OnComplete hook. Under a queue limit (admission-
// control mode) the transaction may be rejected: it is returned with
// no callbacks scheduled and counted in Dropped. A committed or shed
// txn is reused once its hooks return, so do not keep the pointer.
func (f *Frontend) SubmitCB(profile dbms.TxnProfile, cb func(*Txn)) *Txn {
	var t *Txn
	if n := len(f.free); n > 0 {
		t = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		*t = Txn{fe: f, onResult: t.onResult}
	} else {
		t = &Txn{fe: f}
		t.onResult = t.dbmsDone
	}
	t.Profile, t.done = profile, cb
	it := &t.Item
	it.Class = core.Class(profile.Class)
	it.SizeHint = profile.EstimatedDemand
	it.Payload = t
	var done func(*core.Item)
	if cb != nil {
		done = txnDone
	}
	if f.Frontend.Submit(it, done) {
		f.link(t)
	}
	return t
}
