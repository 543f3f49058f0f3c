// Conservative-parallel operation of the dispatcher.
//
// In a parallel run each shard's frontend+backend pair lives on its
// own member engine (Shard.Eng) while the dispatcher, drivers and
// runner timers stay on the coordinator engine. The dispatcher is the
// message boundary between the two sides, in both directions:
//
//   - coordinator → member: a routed submission cannot touch the
//     member frontend directly mid-window (the member clock may be
//     ahead of the coordinator's instant), so submitTo builds the Txn
//     and injects its delivery as a member event at the coordinator's
//     current time — always legal, because coordinator events fire
//     only on window bounds, where every member clock stands;
//
//   - member → coordinator: frontend hook firings (completion wrapper,
//     cluster OnComplete/OnDrop/OnShed) would mutate coordinator-side
//     state (work ledger, runner accumulators, closed-loop client
//     callbacks) from worker goroutines at member-local times, so
//     during windows they are buffered into per-shard mailboxes and
//     replayed by Flush in global (timestamp, shard, FIFO) order, with
//     the coordinator clock advanced to each message's timestamp —
//     reproducing the exact sequence of side effects a sequential run
//     interleaves inline.
//
// Anything that must read live member state at the hook instant and
// cannot wait for replay — today only the "did the drain just finish?"
// emptiness check — is captured member-side into the message, so the
// replay decides from the state as it was when the hook fired, not as
// it is at flush time.
//
// Outside ParallelEngine.Run (scenario breakpoints, driver start), all
// clocks stand at one instant and only the coordinator goroutine is
// active, so the hooks fall through to their sequential inline bodies
// and lifecycle operations (FailShard, SetMPL, drains) behave exactly
// as in a sequential run.
package cluster

import (
	"fmt"

	"extsched/internal/dbfe"
	"extsched/internal/sim"
)

// parMsg kinds, in the roles the sequential hook bodies play.
const (
	// parDone is the per-txn completion wrapper (work-ledger settle +
	// the submitter's own callback).
	parDone uint8 = iota
	// parComplete is the frontend-wide completion hook (runner
	// observation + drain-finish check).
	parComplete
	// parDrop is an admission-control rejection (settle + routing
	// refund + runner observation).
	parDrop
	// parShed is a deadline shed (drain-finish check; the shed txn's
	// own done callback is a separate parDone message).
	parShed
)

// parMsg is one buffered member→coordinator hook firing.
type parMsg struct {
	at   float64
	kind uint8
	t    *dbfe.Txn
	// empty captures "Inside()==0 && QueueLen()==0" at the instant the
	// hook fired on the member — the member may have moved on by
	// replay time, but a drain finishes (or doesn't) based on the
	// state at the completion/shed instant, exactly as sequentially.
	empty bool
}

// parState is the dispatcher's parallel-mode side table (nil in
// sequential mode). All per-shard slices are index-parallel to
// Dispatcher.shards.
type parState struct {
	pe    *sim.ParallelEngine
	coord *sim.Engine
	// inWindow is true between BeginWindows and EndWindows — while
	// member windows may be running and hook effects must be buffered.
	// It is toggled only on the coordinator goroutine with the workers
	// parked; the worker-side reads are ordered by the pool's channel
	// barriers.
	inWindow bool
	// boxes/cur are the member→coordinator mailboxes (appended by the
	// shard's worker during windows, drained by Flush) and their read
	// cursors.
	boxes [][]parMsg
	cur   []int
	// inbox/inCur hold routed-but-undelivered submissions per shard
	// (appended by the coordinator, consumed FIFO by the shard's
	// injected delivery events); deliver caches one delivery closure
	// per shard so injections allocate nothing per send.
	inbox   [][]*dbfe.Txn
	inCur   []int
	deliver []func()
}

// EnableParallel switches the dispatcher to conservative-parallel
// operation over pe's member engines. Every shard must have been built
// on its own engine (Shard.Eng set, FE and DB scheduling there). Call
// once, after NewDispatcher and before any traffic flows; the shard
// hooks are re-installed in their buffering form.
func (d *Dispatcher) EnableParallel(pe *sim.ParallelEngine) error {
	if d.par != nil {
		return fmt.Errorf("cluster: parallel mode already enabled")
	}
	if pe == nil {
		return fmt.Errorf("cluster: EnableParallel needs a parallel engine")
	}
	for i := range d.shards {
		if d.shards[i].Eng == nil {
			return fmt.Errorf("cluster: shard %d has no member engine", i)
		}
	}
	n := len(d.shards)
	d.par = &parState{
		pe:      pe,
		coord:   pe.Coordinator(),
		boxes:   make([][]parMsg, n),
		cur:     make([]int, n),
		inbox:   make([][]*dbfe.Txn, n),
		inCur:   make([]int, n),
		deliver: make([]func(), n),
	}
	for i := range d.shards {
		i := i
		d.par.deliver[i] = func() { d.deliverNext(i) }
		d.installHooks(i)
	}
	return nil
}

// grow extends the parallel side table for a shard just appended at
// index i (AddShard) and registers its engine with the ensemble.
func (p *parState) grow(d *Dispatcher, i int) {
	p.boxes = append(p.boxes, nil)
	p.cur = append(p.cur, 0)
	p.inbox = append(p.inbox, nil)
	p.inCur = append(p.inCur, 0)
	p.deliver = append(p.deliver, func() { d.deliverNext(i) })
	p.pe.AddMember(d.shards[i].Eng)
}

// shardIdle reports whether shard i holds no work right now (the
// drain-finish predicate), read member-side at hook time.
func (d *Dispatcher) shardIdle(i int) bool {
	fe := d.shards[i].FE
	return fe.Inside() == 0 && fe.QueueLen() == 0
}

// installParHooks is installHooks' parallel-mode body: during windows
// the hooks buffer into shard i's mailbox at the member clock's
// current time; outside windows they fall through to the sequential
// inline behavior (all clocks equal, coordinator goroutine only).
//
// Member-side hooks never retire a txn, since the buffered message
// still refers to it: the frontend defers retirement, and the
// coordinator retires a committed or shed txn after its last hook body
// ran, inline or in replay. Free lists are thus touched only on the
// coordinator, where txns are also built.
func (d *Dispatcher) installParHooks(i int) {
	fe := d.shards[i].FE
	meng := d.shards[i].Eng
	fe.DeferRetire()
	d.doneFn[i] = func(t *dbfe.Txn) {
		if !d.par.inWindow {
			d.settle(i, t.Item.SizeHint)
			if t.UserCB != nil {
				t.UserCB(t)
			}
			return
		}
		d.par.boxes[i] = append(d.par.boxes[i], parMsg{at: meng.Now(), kind: parDone, t: t})
	}
	fe.OnComplete = func(t *dbfe.Txn) {
		if !d.par.inWindow {
			if d.OnComplete != nil {
				d.OnComplete(i, t)
			}
			d.maybeFinishDrain(i)
			fe.Retire(t)
			return
		}
		d.par.boxes[i] = append(d.par.boxes[i], parMsg{at: meng.Now(), kind: parComplete, t: t, empty: d.shardIdle(i)})
	}
	fe.OnDrop = func(t *dbfe.Txn) {
		if !d.par.inWindow {
			d.settle(i, t.Item.SizeHint)
			d.routed[i]--
			if d.OnDrop != nil {
				d.OnDrop(i, t)
			}
			return
		}
		d.par.boxes[i] = append(d.par.boxes[i], parMsg{at: meng.Now(), kind: parDrop, t: t})
	}
	fe.OnShed = func(t *dbfe.Txn) {
		if !d.par.inWindow {
			d.maybeFinishDrain(i)
			fe.Retire(t)
			return
		}
		d.par.boxes[i] = append(d.par.boxes[i], parMsg{at: meng.Now(), kind: parShed, t: t, empty: d.shardIdle(i)})
	}
}

// deliverNext performs one deferred submission on shard i — the body
// of the injected member event. Injections and deliveries are both
// FIFO per shard, so the head of the inbox is always the right txn.
func (d *Dispatcher) deliverNext(i int) {
	p := d.par
	c := p.inCur[i]
	t := p.inbox[i][c]
	p.inbox[i][c] = nil
	p.inCur[i] = c + 1
	if p.inCur[i] == len(p.inbox[i]) {
		p.inbox[i] = p.inbox[i][:0]
		p.inCur[i] = 0
	}
	d.shards[i].FE.Deliver(t)
}

// BeginWindows implements sim.MessageSource: member windows may run
// from here on, so hook effects must buffer.
func (d *Dispatcher) BeginWindows() {
	if d.par != nil {
		d.par.inWindow = true
	}
}

// EndWindows implements sim.MessageSource: the parallel Run returned;
// hooks act inline again.
func (d *Dispatcher) EndWindows() {
	if d.par != nil {
		d.par.inWindow = false
	}
}

// Flush implements sim.MessageSource: deliver every buffered
// member→coordinator message in global (timestamp, shard index,
// per-shard FIFO) order, advancing the coordinator clock to each
// message's instant first. Returns the number of messages delivered.
// The merge is a head scan across the per-shard mailboxes — each box
// is already time-sorted (member events fire in time order), so the
// earliest head is the global minimum.
func (d *Dispatcher) Flush(bound float64) int {
	p := d.par
	n := 0
	for {
		best := -1
		var bt float64
		for i := range p.boxes {
			c := p.cur[i]
			if c >= len(p.boxes[i]) {
				continue
			}
			if at := p.boxes[i][c].at; best < 0 || at < bt {
				best, bt = i, at
			}
		}
		if best < 0 {
			break
		}
		m := p.boxes[best][p.cur[best]]
		p.boxes[best][p.cur[best]] = parMsg{}
		p.cur[best]++
		if p.cur[best] == len(p.boxes[best]) {
			p.boxes[best] = p.boxes[best][:0]
			p.cur[best] = 0
		}
		p.coord.AdvanceTo(m.at)
		d.replay(best, m)
		n++
	}
	return n
}

// replay performs one buffered hook firing on the coordinator, with
// the coordinator clock already standing at the message's instant.
// The bodies mirror the sequential hooks in installHooks exactly.
func (d *Dispatcher) replay(i int, m parMsg) {
	switch m.kind {
	case parDone:
		d.settle(i, m.t.Item.SizeHint)
		if m.t.UserCB != nil {
			m.t.UserCB(m.t)
		}
	case parComplete:
		if d.OnComplete != nil {
			d.OnComplete(i, m.t)
		}
		d.maybeFinishDrainIdle(i, m.empty)
		d.shards[i].FE.Retire(m.t)
	case parDrop:
		d.settle(i, m.t.Item.SizeHint)
		d.routed[i]--
		if d.OnDrop != nil {
			d.OnDrop(i, m.t)
		}
	case parShed:
		d.maybeFinishDrainIdle(i, m.empty)
		d.shards[i].FE.Retire(m.t)
	}
}

// maybeFinishDrainIdle is maybeFinishDrain with the emptiness
// predicate captured at hook time instead of read live.
func (d *Dispatcher) maybeFinishDrainIdle(i int, empty bool) {
	if d.state[i] == ShardDraining && empty {
		d.markDown(i)
	}
}
