package lockmgr

import (
	"testing"

	"extsched/internal/sim"
)

// TestColdKeyZeroAlloc pins a transaction over unique (cold) keys at
// zero allocations once the free lists are warm: Begin, one Acquire
// per key, Release. Every such key creates a lock-table entry and
// Release drops it, so this is the lock manager's steady state.
func TestColdKeyZeroAlloc(t *testing.T) {
	mgr := New(sim.NewEngine(), Config{OnAbort: func(TxnID, AbortReason) {}})
	var id TxnID
	var key uint64
	txn := func() {
		id++
		mgr.Begin(id, Low)
		for i := 0; i < 8; i++ {
			key++
			mode := S
			if i%2 == 0 {
				mode = X
			}
			if !mgr.Acquire(id, key, mode, nil) {
				t.Fatal("cold key not granted")
			}
		}
		mgr.Release(id)
	}
	for i := 0; i < 100; i++ {
		txn() // warm the free lists and grow the tables
	}
	if n := testing.AllocsPerRun(1000, txn); n != 0 {
		t.Errorf("cold-key Begin/Acquire/Release allocates %v per txn, want 0", n)
	}
	if mgr.Live() != 0 || mgr.locks.n != 0 {
		t.Errorf("after release: %d live txns, %d lock entries, want 0", mgr.Live(), mgr.locks.n)
	}
}

// TestContendedKeyZeroAlloc does the same with a waiter: a second
// transaction blocks behind the first, is granted at its release, and
// the deadlock search runs on every block.
func TestContendedKeyZeroAlloc(t *testing.T) {
	mgr := New(sim.NewEngine(), Config{OnAbort: func(TxnID, AbortReason) {}})
	var id TxnID
	rounds, granted := 0, 0
	onGrant := func() { granted++ }
	round := func() {
		rounds++
		a, b := id+1, id+2
		id += 2
		mgr.Begin(a, Low)
		mgr.Begin(b, High)
		mgr.Acquire(a, 7, X, nil)
		if mgr.Acquire(b, 7, X, onGrant) {
			t.Fatal("conflicting X granted")
		}
		mgr.Release(a)
		mgr.Release(b)
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("contended acquire/release allocates %v per round, want 0", n)
	}
	if granted != rounds {
		t.Errorf("granted %d waiters in %d rounds, want one per round", granted, rounds)
	}
}
