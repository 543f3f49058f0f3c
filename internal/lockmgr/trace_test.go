package lockmgr

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"extsched/internal/sim"
)

// traceTxn is one transaction of the traced schedule. Each attempt
// runs under its own TxnID (attempt<<32 | number), so the manager sees
// sparse, caller-chosen ids.
type traceTxn struct {
	num     uint64
	class   Class
	keys    []uint64
	modes   []Mode
	attempt uint64
	id      TxnID
	op      int
	live    bool
}

// traceRun drives a seeded, contended schedule straight through a
// Manager and returns an FNV-1a digest of everything it observed:
// every Acquire result, grant callback, abort notice and release, each
// with its sim time and txn, then the final Stats. Four hundred
// transactions arrive as a Poisson stream, close to the load where
// deadlock restarts start to feed on themselves; each runs 2–7 operations
// over 8 hot keys and a stream of cold ones, mixes S and X, and
// sometimes upgrades a hot S lock to X. Operations are spaced by think
// times, commits release at a random later time, and aborted attempts
// restart under a fresh id after a backoff (up to 40 attempts).
func traceRun(t *testing.T, policy Policy, preempt bool, waitTimeout float64) (uint64, Stats) {
	t.Helper()
	const (
		nTxns       = 400
		hotKeys     = 8
		maxAttempts = 40
	)
	eng := sim.NewEngine()
	g := sim.NewRNG(20, 0)
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	record := func(kind byte, id TxnID, a, b uint64) {
		h.Write([]byte{kind})
		word(math.Float64bits(eng.Now()))
		word(uint64(id))
		word(a)
		word(b)
	}

	byID := make(map[TxnID]*traceTxn)
	var mgr *Manager
	var step func(x *traceTxn)
	start := func(x *traceTxn) {
		x.attempt++
		x.id = TxnID(x.attempt<<32 | x.num)
		x.op, x.live = 0, true
		byID[x.id] = x
		mgr.Begin(x.id, x.class)
		step(x)
	}
	// next schedules x's next operation after a think time.
	next := func(x *traceTxn, id TxnID) {
		eng.After(0.0005*g.ExpFloat64(), func() {
			if x.live && x.id == id {
				step(x)
			}
		})
	}
	committed, gaveUp := 0, 0
	step = func(x *traceTxn) {
		id := x.id
		if x.op == len(x.keys) {
			eng.After(0.001*g.ExpFloat64(), func() {
				if !x.live || x.id != id {
					return
				}
				record('R', id, 0, 0)
				mgr.Release(id)
				x.live = false
				committed++
			})
			return
		}
		key, mode := x.keys[x.op], x.modes[x.op]
		x.op++
		granted := mgr.Acquire(id, key, mode, func() {
			record('G', id, key, uint64(mode))
			next(x, id)
		})
		var res uint64
		if granted {
			res = 1
		}
		record('A', id, key, uint64(mode)<<1|res)
		if granted {
			next(x, id)
		}
	}
	mgr = New(eng, Config{
		Policy:      policy,
		Preempt:     preempt,
		WaitTimeout: waitTimeout,
		OnAbort: func(id TxnID, r AbortReason) {
			record('N', id, uint64(r), 0)
			x := byID[id]
			if x == nil || !x.live || x.id != id {
				return
			}
			mgr.Release(id)
			x.live = false
			if x.attempt == maxAttempts {
				gaveUp++
				return
			}
			eng.After(0.002*g.ExpFloat64(), func() { start(x) })
		},
	})

	cold := uint64(1 << 32)
	at := 0.0
	for i := 0; i < nTxns; i++ {
		x := &traceTxn{num: uint64(i + 1), class: Low}
		if g.IntN(5) == 0 {
			x.class = High
		}
		for n := 2 + g.IntN(6); len(x.keys) < n; {
			if j := len(x.keys) - 1; j >= 0 && x.modes[j] == S && x.keys[j] < hotKeys && g.IntN(3) == 0 {
				// S→X upgrade of the hot key just read.
				x.keys = append(x.keys, x.keys[j])
				x.modes = append(x.modes, X)
				continue
			}
			key := uint64(g.IntN(hotKeys))
			if g.IntN(5) < 2 {
				key = cold
				cold++
			}
			mode := S
			if g.IntN(5) < 2 {
				mode = X
			}
			x.keys = append(x.keys, key)
			x.modes = append(x.modes, mode)
		}
		at += 0.0017 * g.ExpFloat64()
		eng.At(at, func() { start(x) })
	}
	eng.RunAll()

	if committed+gaveUp != nTxns {
		t.Fatalf("%d committed + %d gave up, want %d transactions", committed, gaveUp, nTxns)
	}
	if mgr.Live() != 0 {
		t.Fatalf("%d transactions still registered after the run", mgr.Live())
	}
	t.Logf("%d committed, %d gave up", committed, gaveUp)
	st := mgr.Stats()
	for _, v := range []uint64{st.Grants, st.Waits, st.Deadlocks, st.Preemptions, st.Timeouts, st.Upgrades, uint64(committed)} {
		word(v)
	}
	return h.Sum64(), st
}

// TestManagerTraceDigest pins the exact grant, wait and victim
// sequence of the lock manager under each queue discipline. The other
// tests check invariants and serializability; this one fails if any
// grant, abort notice or its timing moves, so a change to the lock
// manager's data structures must leave every digest as it is.
func TestManagerTraceDigest(t *testing.T) {
	cases := []struct {
		name        string
		policy      Policy
		preempt     bool
		waitTimeout float64
		want        uint64
	}{
		{"fifo", FIFO, false, 0, 0x2b609affc7e38712},
		{"priority-fifo", PriorityFIFO, false, 0, 0xc112742366723666},
		{"pow", PriorityFIFO, true, 0, 0xc37af4da71a1cc4c},
		{"wait-timeout", FIFO, false, 0.003, 0x173c41bed9311e17},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, st := traceRun(t, c.policy, c.preempt, c.waitTimeout)
			if st.Waits == 0 || st.Deadlocks == 0 || st.Upgrades == 0 {
				t.Errorf("stats %+v: the schedule should wait, deadlock and upgrade", st)
			}
			if c.preempt && st.Preemptions == 0 {
				t.Errorf("stats %+v: POW should preempt", st)
			}
			if c.waitTimeout > 0 && st.Timeouts == 0 {
				t.Errorf("stats %+v: the wait timeout should fire", st)
			}
			if got != c.want {
				t.Errorf("trace digest %#x, want %#x (stats %+v)", got, c.want, st)
			}
		})
	}
}
