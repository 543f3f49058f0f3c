package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"extsched/internal/sim"
)

// traceCounts tallies what a traced schedule did, so the digest test
// can check that the schedule exercises every path it means to pin.
type traceCounts struct {
	accepted, completed, dispatched uint64
	shed, dropped, canceled, failed uint64
}

// frontendTraceRun drives a seeded schedule straight through a
// Frontend and returns an FNV-1a digest of everything the gate decided:
// every dispatch, shed and drop, each with its item number and sim
// time, the result of every withdrawal, and then the final counters,
// per-class tallies and per-class percentiles. Items of classes 0–17
// and 200 arrive as a Poisson stream at about 1.2x the capacity of an
// MPL-4 gate, 60% of them from three hot classes. A second Poisson
// stream of control operations cancels, sheds and fails queued items,
// arms and clears class partitions, flips them strict, sets and clears
// admit deadlines, and moves the MPL and the queue limit.
func frontendTraceRun(t *testing.T, policy Policy) (uint64, traceCounts) {
	t.Helper()
	const (
		nItems   = 3000
		lambda   = 12.0 // arrivals per second
		meanSize = 0.4  // seconds; capacity at MPL 4 is 10/s
		nCtl     = 600
		recent   = 40 // withdrawals pick among the last recent items
	)
	classes := []Class{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 200}
	eng := sim.NewEngine()
	g := sim.NewRNG(22, 0)
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ids := make(map[*Item]uint64, nItems)
	record := func(kind byte, it *Item, v uint64) {
		h.Write([]byte{kind})
		word(math.Float64bits(eng.Now()))
		word(ids[it])
		word(v)
	}
	pickClass := func() Class {
		if g.Float64() < 0.6 {
			return classes[g.IntN(3)]
		}
		return classes[g.IntN(len(classes))]
	}

	var n traceCounts
	var fe *Frontend
	fe = New(eng.Clock(), backendFunc(func(it *Item) {
		n.dispatched++
		record('D', it, uint64(it.Class))
		eng.After(it.SizeHint, func() { fe.Complete(it, Outcome{}) })
	}), 4, policy)
	fe.OnShed = func(it *Item) { record('S', it, uint64(it.Class)) }
	fe.OnDrop = func(it *Item) { record('X', it, uint64(it.Class)) }
	fe.OnComplete = func(*Item) { n.completed++ }

	var items []*Item
	at := 0.0
	for i := 0; i < nItems; i++ {
		at += g.ExpFloat64() / lambda
		it := &Item{Class: pickClass(), SizeHint: meanSize * g.ExpFloat64()}
		ids[it] = uint64(i + 1)
		eng.At(at, func() {
			items = append(items, it)
			if fe.Submit(it, nil) {
				n.accepted++
			}
		})
	}
	target := func() *Item {
		if len(items) == 0 {
			return &Item{}
		}
		k := len(items) - 1 - g.IntN(min(recent, len(items)))
		return items[k]
	}
	ctl := 0.0
	for i := 0; i < nCtl; i++ {
		ctl += g.ExpFloat64() * at / nCtl
		eng.At(ctl, func() {
			switch op := g.IntN(8); op {
			case 0:
				it := target()
				record('C', it, b2u(fe.CancelQueued(it)))
			case 1:
				it := target()
				record('Q', it, b2u(fe.ShedQueued(it)))
			case 2:
				it := target()
				record('F', it, b2u(fe.FailQueued(it)))
			case 3:
				if g.IntN(3) == 0 {
					fe.SetClassLimits(nil)
					return
				}
				limits := make(map[Class]int)
				for k := 1 + g.IntN(4); k > 0; k-- {
					limits[pickClass()] = 1
				}
				fe.SetClassLimits(limits)
			case 4:
				fe.SetStrictPartition(g.IntN(2) == 1)
			case 5:
				d := 0.0
				if g.IntN(2) == 1 {
					d = 0.5 + 2*g.Float64()
				}
				fe.SetAdmitDeadline(pickClass(), d)
			case 6:
				fe.SetMPL(g.IntN(7))
			case 7:
				q := 0
				if g.IntN(2) == 1 {
					q = 5 + g.IntN(20)
				}
				fe.SetQueueLimit(q)
			}
		})
	}
	eng.RunAll()

	n.shed, n.dropped = fe.Shed(), fe.Dropped()
	n.canceled, n.failed = fe.Canceled(), fe.Failed()
	if fe.Inside() != 0 || fe.QueueLen() != 0 {
		t.Fatalf("inside %d, queued %d after the run", fe.Inside(), fe.QueueLen())
	}
	if n.accepted != n.completed+n.canceled+n.shed+n.failed {
		t.Fatalf("accepted %d != completed %d + canceled %d + shed %d + failed %d",
			n.accepted, n.completed, n.canceled, n.shed, n.failed)
	}
	if n.accepted+n.dropped != nItems {
		t.Fatalf("accepted %d + dropped %d != %d submitted", n.accepted, n.dropped, nItems)
	}
	m := fe.Metrics()
	shed := fe.ShedClasses()
	for _, v := range []uint64{n.shed, n.dropped, n.canceled, n.failed, m.Completed, math.Float64bits(m.All.Mean())} {
		word(v)
	}
	for _, c := range classes {
		word(m.ClassMetric(c).Completed())
		word(shed[c])
	}
	return h.Sum64(), n
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestFrontendTraceDigest pins the exact dispatch, shed and drop
// sequence of the frontend under FIFO, priority and WFQ queueing. The
// invariant tests check conservation and limits; this one fails if any
// admission, shed or drop, or its timing, moves, so a change to the
// frontend's per-class bookkeeping must leave every digest as it is.
func TestFrontendTraceDigest(t *testing.T) {
	cases := []struct {
		name   string
		policy func() Policy
		want   uint64
	}{
		{"fifo", func() Policy { return NewFIFO() }, 0x55a181e6655170c2},
		{"priority", func() Policy { return NewPriority() }, 0xa1f86e83fab75f84},
		{"wfq", func() Policy { return NewWFQ(map[Class]float64{1: 4, 9: 2, 200: 3}) }, 0xfcd64ff80375c7cc},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, n := frontendTraceRun(t, c.policy())
			if n.shed == 0 || n.dropped == 0 || n.canceled == 0 || n.failed == 0 {
				t.Errorf("counts %+v: the schedule should shed, drop, cancel and fail", n)
			}
			if got != c.want {
				t.Errorf("trace digest %#x, want %#x (counts %+v)", got, c.want, n)
			}
		})
	}
}
