package lockmgr

import (
	"slices"
	"testing"

	"extsched/internal/sim"
)

// Same-instant lock-table events must come out in one order on every
// run: each abort draws its restart backoff from the DBMS's RNG in the
// order the notices arrive, so an order that varied between runs would
// make reruns diverge. Holders and held keys are ordered slices, so
// the order is the acquisition order by construction; each test
// repeats its scenario to catch any order that is merely usually right.
const orderRepeats = 200

func TestPOWPreemptsInAcquisitionOrder(t *testing.T) {
	for rep := 0; rep < orderRepeats; rep++ {
		var order []TxnID
		eng := sim.NewEngine()
		var mgr *Manager
		mgr = New(eng, Config{
			Policy:  PriorityFIFO,
			Preempt: true,
			OnAbort: func(id TxnID, r AbortReason) {
				if r != Preempted {
					t.Fatalf("txn %d aborted for %v, want preempted", id, r)
				}
				order = append(order, id)
				mgr.Release(id)
			},
		})
		for id := TxnID(1); id <= 3; id++ {
			mgr.Begin(id, Low)
		}
		mgr.Begin(4, High)
		// Txn 2 takes the S lock on key 1 before txn 1 does, so the
		// acquisition order differs from the ID order.
		mgr.Acquire(2, 1, S, nil)
		mgr.Acquire(1, 1, S, nil)
		mgr.Acquire(3, 2, X, nil)
		mgr.Acquire(2, 2, X, func() {}) // both S holders block on key 2
		mgr.Acquire(1, 2, X, func() {})
		mgr.Acquire(4, 1, X, func() {}) // the High X request preempts them
		eng.RunAll()
		if want := []TxnID{2, 1}; !slices.Equal(order, want) {
			t.Fatalf("repeat %d: OnAbort order %v, want %v (acquisition order)", rep, order, want)
		}
	}
}

func TestReleaseGrantsInAcquisitionOrder(t *testing.T) {
	for rep := 0; rep < orderRepeats; rep++ {
		h := newHarness(FIFO, false)
		var order []TxnID
		for id := TxnID(1); id <= 3; id++ {
			h.mgr.Begin(id, Low)
		}
		// Txn 1 acquires key 20 before key 10.
		h.mgr.Acquire(1, 20, X, nil)
		h.mgr.Acquire(1, 10, X, nil)
		h.mgr.Acquire(3, 10, X, func() { order = append(order, 3) })
		h.mgr.Acquire(2, 20, X, func() { order = append(order, 2) })
		h.mgr.Release(1)
		if want := []TxnID{2, 3}; !slices.Equal(order, want) {
			t.Fatalf("repeat %d: grant order %v, want %v (acquisition order of the released keys)", rep, order, want)
		}
	}
}
