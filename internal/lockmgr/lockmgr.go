// Package lockmgr implements a strict two-phase-locking lock manager
// like the one in Shore: S/X item locks held to commit, FIFO or
// priority-ordered wait queues, waits-for-graph deadlock detection, and
// the Preempt-on-Wait (POW) policy of McWherter et al. that the paper
// uses for internal lock prioritization (Section 5.2).
//
// Isolation levels map to locking behaviour the way the paper's DB2
// experiments do: Repeatable Read (RR) takes S locks on reads and X
// locks on writes, all held to commit; Uncommitted Read (UR) skips read
// locks entirely, leaving only write-write conflicts.
//
// Every simulated transaction takes several lock requests, each of
// which looks up a lock-table entry and its transaction's record, and
// every cold key creates an entry that its release drops again. Both
// lookups go through table, a small open-addressed hash table with the
// key stored inline (Fibonacci hashing, linear probing, backward-shift
// deletion), rather than a Go map: it does the same job at a fraction
// of the cost per probe, leaves no tombstones under cold-key churn and
// allocates nothing once grown. Each grant also carries its entry, so
// releasing a transaction's locks probes nothing.
package lockmgr

import (
	"cmp"
	"fmt"
	"slices"

	"extsched/internal/sim"
)

// Mode is a lock mode.
type Mode int

const (
	// S is a shared (read) lock.
	S Mode = iota
	// X is an exclusive (write) lock.
	X
)

func (m Mode) String() string {
	if m == S {
		return "S"
	}
	return "X"
}

// compatible reports whether a lock in mode a coexists with mode b.
func compatible(a, b Mode) bool { return a == S && b == S }

// Class is the external scheduling priority class of a transaction.
type Class int

const (
	// Low priority (the default 90% of transactions in the paper).
	Low Class = iota
	// High priority (the revenue-heavy 10%).
	High
)

// Policy orders lock wait queues.
type Policy int

const (
	// FIFO grants strictly in arrival order.
	FIFO Policy = iota
	// PriorityFIFO moves high-class waiters ahead of low-class ones,
	// FIFO within a class. With Preempt enabled this is POW.
	PriorityFIFO
)

// AbortReason explains why the manager asked for a transaction abort.
type AbortReason int

const (
	// Deadlock means the transaction was chosen as a deadlock victim.
	Deadlock AbortReason = iota
	// Preempted means a POW preemption by a high-priority waiter.
	Preempted
	// Timeout means the transaction waited longer than the configured
	// lock wait timeout (DB2's LOCKTIMEOUT-style safety net).
	Timeout
)

func (r AbortReason) String() string {
	switch r {
	case Deadlock:
		return "deadlock"
	case Preempted:
		return "preempted"
	default:
		return "timeout"
	}
}

// TxnID identifies a transaction attempt. Restarted transactions must
// use a fresh TxnID.
type TxnID uint64

// request is a queued lock request.
type request struct {
	txn     TxnID
	l       *lock // the entry it queues at
	mode    Mode
	class   Class
	seq     uint64 // arrival order for stable FIFO; unique per request
	onGrant func() // nil: granted synchronously inside Acquire
	upgrade bool   // S→X upgrade request
}

// holder is one granted lock: the holding transaction and its mode.
type holder struct {
	txn  TxnID
	mode Mode
}

// grant is one lock a transaction holds, and its mode. An entry with a
// holder is never dropped, so the grant's entry stays valid until the
// transaction releases it.
type grant struct {
	l    *lock
	mode Mode
}

// lock is one lock-table entry. Holders are kept in the order they
// were granted, so every walk over them (POW preemption, Release) is
// deterministic by construction.
type lock struct {
	key     uint64
	holders []holder
	queue   []*request
}

// txnState tracks a live transaction.
type txnState struct {
	id      TxnID
	class   Class
	held    []grant  // in acquisition order
	waiting *request // non-nil while blocked
	mark    uint64   // deadlock-search visit stamp
}

// notice is a pending abort notification.
type notice struct {
	txn    TxnID
	reason AbortReason
}

// Stats aggregates lock-manager activity.
type Stats struct {
	Grants      uint64
	Waits       uint64 // requests that had to block
	Deadlocks   uint64 // victims chosen
	Preemptions uint64 // POW preemptions issued
	Timeouts    uint64 // waits aborted by the wait timeout
	Upgrades    uint64
}

// Manager is the lock manager. Its lock table and transaction table
// are open-addressed tables (see table) over recycled entries, not Go
// maps: they sit on every lock request's path, and a steady stream of
// transactions over cold keys inserts and deletes an entry per key.
type Manager struct {
	eng         *sim.Engine
	policy      Policy
	preempt     bool // POW preemption of blocked low-priority holders
	waitTimeout float64
	locks       table[*lock]     // by key
	txns        table[*txnState] // by TxnID
	seq         uint64
	stats       Stats
	// onAbort is invoked (asynchronously, via a zero-delay event) when
	// the manager needs a transaction aborted: deadlock victim or POW
	// preemption. The owner must eventually call Release for the txn.
	onAbort func(TxnID, AbortReason)
	// notices queues abort notifications in the order they were
	// raised; each one's zero-delay event runs notify (bound once),
	// which delivers the oldest. Zero-delay events fire in scheduling
	// order, so the queue head is always the notice whose event is
	// firing.
	notices []notice
	notify  func()
	// Free lists recycle lock-table entries, transaction records and
	// requests, so a steady stream of transactions allocates nothing.
	freeLocks []*lock
	freeTxns  []*txnState
	freeReqs  []*request
	// Deadlock-search scratch: the visit epoch, the DFS stack and one
	// transaction's waits-for edges.
	epoch uint64
	stack []*txnState
	edges []TxnID
}

// Config configures a Manager.
type Config struct {
	Policy  Policy
	Preempt bool // enable POW (requires PriorityFIFO to be useful)
	// WaitTimeout, when > 0, aborts any request that has waited this
	// many seconds — the LOCKTIMEOUT safety net real engines run in
	// addition to deadlock detection. Zero disables it.
	WaitTimeout float64
	// OnAbort receives deadlock-victim, preemption and timeout
	// notifications. Required: strict 2PL with blocking always risks
	// deadlock.
	OnAbort func(TxnID, AbortReason)
}

// New returns a Manager.
func New(eng *sim.Engine, cfg Config) *Manager {
	if cfg.OnAbort == nil {
		panic("lockmgr: Config.OnAbort is required")
	}
	m := &Manager{
		eng:         eng,
		policy:      cfg.Policy,
		preempt:     cfg.Preempt,
		waitTimeout: cfg.WaitTimeout,
		locks:       newTable[*lock](),
		txns:        newTable[*txnState](),
		onAbort:     cfg.OnAbort,
	}
	m.notify = m.deliverNotice
	return m
}

// Stats returns a snapshot of activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// Begin registers a transaction attempt with its priority class.
func (m *Manager) Begin(txn TxnID, class Class) {
	if m.txns.get(uint64(txn)) != nil {
		panic(fmt.Sprintf("lockmgr: duplicate Begin for txn %d", txn))
	}
	var st *txnState
	if n := len(m.freeTxns); n > 0 {
		st = m.freeTxns[n-1]
		m.freeTxns = m.freeTxns[:n-1]
	} else {
		st = &txnState{}
	}
	st.id, st.class = txn, class
	m.txns.put(uint64(txn), st)
}

// Holding returns the number of locks held by txn.
func (m *Manager) Holding(txn TxnID) int {
	if st := m.txns.get(uint64(txn)); st != nil {
		return len(st.held)
	}
	return 0
}

// Waiting reports whether txn is blocked on a lock queue.
func (m *Manager) Waiting(txn TxnID) bool {
	st := m.txns.get(uint64(txn))
	return st != nil && st.waiting != nil
}

// Acquire requests key in the given mode. If the lock is granted
// immediately it returns true and onGrant is NOT called (the caller
// just continues). Otherwise it returns false and onGrant fires when
// the lock is eventually granted. A transaction may hold at most one
// pending request (strict 2PL executors are sequential). onGrant runs
// inside the Manager call that grants the lock, so it must not call
// back into the Manager; the DBMS model only submits a CPU burst, whose
// completion is an event of its own.
//
// Deadlocks created by this wait are detected immediately on the
// waits-for graph; the victim is aborted via the OnAbort callback.
func (m *Manager) Acquire(txn TxnID, key uint64, mode Mode, onGrant func()) bool {
	st := m.txns.get(uint64(txn))
	if st == nil {
		panic(fmt.Sprintf("lockmgr: Acquire by unknown txn %d", txn))
	}
	if st.waiting != nil {
		panic(fmt.Sprintf("lockmgr: txn %d already has a pending request", txn))
	}
	l := m.locks.get(key)
	if l == nil {
		if n := len(m.freeLocks); n > 0 {
			l = m.freeLocks[n-1]
			m.freeLocks = m.freeLocks[:n-1]
		} else {
			l = &lock{}
		}
		l.key = key
		m.locks.put(key, l)
	}
	if g := st.grant(l); g != nil {
		if g.mode == X || g.mode == mode {
			// Already covered (lock strengthening is a no-op).
			m.stats.Grants++
			return true
		}
		// S→X upgrade.
		m.stats.Upgrades++
		if len(l.holders) == 1 { // txn is the sole holder
			l.holders[0].mode = X
			g.mode = X
			m.stats.Grants++
			return true
		}
		req := m.newRequest(st, l, X, onGrant)
		req.upgrade = true
		// Upgraders wait at the head: they already hold S and must not
		// queue behind new S requests (which would deadlock trivially).
		l.queue = slices.Insert(l.queue, 0, req)
		st.waiting = req
		m.stats.Waits++
		m.afterBlock(st, l)
		return false
	}
	if len(l.queue) == 0 && grantable(l, mode) {
		l.holders = append(l.holders, holder{txn, mode})
		st.held = append(st.held, grant{l, mode})
		m.stats.Grants++
		return true
	}
	// A non-empty queue must not be bypassed even by a compatible
	// request: jumping over queued waiters both starves writers and
	// creates waits-for edges invisible to at-block-time deadlock
	// detection. Enqueue, apply the policy ordering, then try a head
	// grant (under PriorityFIFO a high-class request may legitimately
	// reach the head and be granted immediately). The request carries
	// no callback until it is known to block, so a head grant here
	// just clears st.waiting.
	req := m.newRequest(st, l, mode, nil)
	l.queue = append(l.queue, req)
	m.orderQueue(l)
	st.waiting = req
	m.grantWaiters(l)
	if st.waiting != req {
		return true
	}
	req.onGrant = onGrant
	m.stats.Waits++
	m.afterBlock(st, l)
	return false
}

// grant returns st's grant on l, or nil.
func (st *txnState) grant(l *lock) *grant {
	for i := range st.held {
		if st.held[i].l == l {
			return &st.held[i]
		}
	}
	return nil
}

// newRequest takes a request record off the free list (or allocates
// one) and stamps it with the next arrival sequence number.
func (m *Manager) newRequest(st *txnState, l *lock, mode Mode, onGrant func()) *request {
	var r *request
	if n := len(m.freeReqs); n > 0 {
		r = m.freeReqs[n-1]
		m.freeReqs = m.freeReqs[:n-1]
	} else {
		r = &request{}
	}
	*r = request{txn: st.id, l: l, mode: mode, class: st.class, seq: m.seq, onGrant: onGrant}
	m.seq++
	return r
}

// recycleRequest returns a request that left its queue to the free
// list.
func (m *Manager) recycleRequest(r *request) {
	*r = request{}
	m.freeReqs = append(m.freeReqs, r)
}

// grantable reports whether a new request in mode can be granted given
// the current holders (queue considered separately by callers).
func grantable(l *lock, mode Mode) bool {
	for _, h := range l.holders {
		if !compatible(h.mode, mode) {
			return false
		}
	}
	return true
}

// holderIndex returns the position of txn among l's holders, or -1.
func (l *lock) holderIndex(txn TxnID) int {
	for i, h := range l.holders {
		if h.txn == txn {
			return i
		}
	}
	return -1
}

// popHead removes the queue head, keeping the queue's storage.
func (l *lock) popHead() {
	n := copy(l.queue, l.queue[1:])
	l.queue[n] = nil
	l.queue = l.queue[:n]
}

// orderQueue applies the policy: PriorityFIFO sorts high class first,
// stable by arrival; upgrade requests always stay ahead.
func (m *Manager) orderQueue(l *lock) {
	if m.policy != PriorityFIFO {
		return
	}
	slices.SortStableFunc(l.queue, func(a, b *request) int {
		if a.upgrade != b.upgrade {
			if a.upgrade {
				return -1
			}
			return 1
		}
		if a.class != b.class {
			return int(b.class) - int(a.class) // High (1) before Low (0)
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// afterBlock runs deadlock detection, POW preemption, and the wait
// timeout after st blocked on lock l.
func (m *Manager) afterBlock(st *txnState, l *lock) {
	if m.waitTimeout > 0 {
		seq := st.waiting.seq
		id := st.id
		m.eng.After(m.waitTimeout, func() {
			cur := m.txns.get(uint64(id))
			if cur == nil || cur.waiting == nil || cur.waiting.seq != seq {
				return // granted, released or restarted meanwhile
			}
			m.stats.Timeouts++
			m.onAbort(id, Timeout)
		})
	}
	if m.deadlocked(st) {
		m.stats.Deadlocks++
		m.abortLater(st.id, Deadlock)
		return
	}
	if m.preempt && st.class == High {
		// POW: preempt any low-priority holder of this lock that is
		// itself blocked at another lock queue (it cannot make
		// progress anyway, and it stands in the way of a high).
		// Holders are walked in grant order.
		for _, h := range l.holders {
			hs := m.txns.get(uint64(h.txn))
			if hs == nil || hs.class == High || hs.waiting == nil {
				continue
			}
			m.stats.Preemptions++
			m.abortLater(h.txn, Preempted)
		}
	}
}

// abortLater queues an abort notice for delivery by a zero-delay
// event.
func (m *Manager) abortLater(txn TxnID, reason AbortReason) {
	m.notices = append(m.notices, notice{txn, reason})
	m.eng.After(0, m.notify)
}

// deliverNotice hands the oldest queued notice to onAbort.
func (m *Manager) deliverNotice() {
	n := m.notices[0]
	k := copy(m.notices, m.notices[1:])
	m.notices = m.notices[:k]
	m.onAbort(n.txn, n.reason)
}

// waitsFor appends to out the transactions t is directly waiting on:
// incompatible current holders of the requested lock, plus every
// request queued ahead of t's request. The queue-predecessor edges are
// real waits under the no-bypass discipline — a request is never
// granted before those ahead of it, even if it is compatible with the
// current holders.
func (m *Manager) waitsFor(t *txnState, out []TxnID) []TxnID {
	if t.waiting == nil {
		return out
	}
	l := t.waiting.l
	for _, h := range l.holders {
		if h.txn == t.id {
			continue // upgrade: own S lock doesn't block itself
		}
		if !compatible(h.mode, t.waiting.mode) {
			out = append(out, h.txn)
		}
	}
	for _, r := range l.queue {
		if r == t.waiting {
			break
		}
		if r.txn != t.id {
			out = append(out, r.txn)
		}
	}
	return out
}

// deadlocked reports whether the newly blocked transaction start lies
// on a waits-for cycle, i.e. whether start is reachable from itself.
// The victim is start (abort-requester policy: deterministic, and any
// new cycle necessarily runs through the transaction whose block
// created it), so only reachability matters, not the search order.
func (m *Manager) deadlocked(start *txnState) bool {
	m.epoch++
	start.mark = m.epoch
	stack := append(m.stack[:0], start)
	found := false
	for len(stack) > 0 && !found {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m.edges = m.waitsFor(t, m.edges[:0])
		for _, next := range m.edges {
			if next == start.id {
				found = true
				break
			}
			ns := m.txns.get(uint64(next))
			if ns == nil || ns.mark == m.epoch {
				continue
			}
			ns.mark = m.epoch
			stack = append(stack, ns)
		}
	}
	m.stack = stack[:0]
	return found
}

// Release drops every lock held by txn (commit or abort under strict
// 2PL), cancels any pending request, and grants newly compatible
// waiters. Keys are released in acquisition order. Unknown
// transactions are a no-op so that abort paths can release
// defensively.
func (m *Manager) Release(txn TxnID) {
	st := m.txns.del(uint64(txn))
	if st == nil {
		return
	}
	// Cancel a pending request.
	if req := st.waiting; req != nil {
		st.waiting = nil
		l := req.l
		if i := slices.Index(l.queue, req); i >= 0 {
			l.queue = slices.Delete(l.queue, i, i+1)
		}
		m.dropIfIdle(l)
		m.recycleRequest(req)
	}
	for _, g := range st.held {
		l := g.l
		if i := l.holderIndex(txn); i >= 0 {
			l.holders = slices.Delete(l.holders, i, i+1)
		}
		m.grantWaiters(l)
		m.dropIfIdle(l)
	}
	st.held = st.held[:0]
	m.freeTxns = append(m.freeTxns, st)
}

// dropIfIdle removes an entry with no holders and no waiters from the
// lock table and recycles it.
func (m *Manager) dropIfIdle(l *lock) {
	if len(l.holders) == 0 && len(l.queue) == 0 {
		m.locks.del(l.key)
		m.freeLocks = append(m.freeLocks, l)
	}
}

// grantWaiters grants from the queue head while compatible.
func (m *Manager) grantWaiters(l *lock) {
	for len(l.queue) > 0 {
		head := l.queue[0]
		hs := m.txns.get(uint64(head.txn))
		if hs == nil {
			// Stale request from a released txn.
			l.popHead()
			continue
		}
		if head.upgrade {
			// Grantable only when head.txn is the sole remaining holder.
			if len(l.holders) != 1 || l.holders[0].txn != head.txn {
				return
			}
			l.holders[0].mode = X
			hs.grant(l).mode = X
		} else {
			if !grantable(l, head.mode) {
				return
			}
			l.holders = append(l.holders, holder{head.txn, head.mode})
			hs.held = append(hs.held, grant{l, head.mode})
		}
		l.popHead()
		hs.waiting = nil
		m.stats.Grants++
		onGrant := head.onGrant
		m.recycleRequest(head)
		if onGrant != nil {
			onGrant()
		}
	}
}

// QueueLength returns the wait-queue length at key (0 if unknown).
func (m *Manager) QueueLength(key uint64) int {
	if l := m.locks.get(key); l != nil {
		return len(l.queue)
	}
	return 0
}

// Holders returns the number of holders at key.
func (m *Manager) Holders(key uint64) int {
	if l := m.locks.get(key); l != nil {
		return len(l.holders)
	}
	return 0
}

// Live returns the number of registered transactions.
func (m *Manager) Live() int { return m.txns.n }
