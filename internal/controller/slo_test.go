package controller

import (
	"testing"

	"extsched/internal/core"
)

// fakeClassGate is a scriptable ClassGate: the test sets the MPL and
// watches the partition the loop applies.
type fakeClassGate struct {
	mpl    int
	limits map[core.Class]int
}

func (g *fakeClassGate) MPL() int                            { return g.mpl }
func (g *fakeClassGate) SetClassLimits(l map[core.Class]int) { g.limits = l }

// window feeds c one closed window at the given measured percentile:
// 50 completions (the default MinObservations), the first 10 from the
// high class, every one with response time p.
func window(c *SLOController, p float64) {
	for i := 0; i < 50; i++ {
		class := core.ClassLow
		if i < 10 {
			class = core.ClassHigh
		}
		c.Observe(&core.Item{Class: class, Complete: p})
	}
}

// checkPartition asserts the SLO invariant the property tests pin: the
// class limits always sum to the gate's MPL with each side >= 1.
func checkPartition(t *testing.T, g *fakeClassGate) {
	t.Helper()
	h, l := g.limits[core.ClassHigh], g.limits[core.ClassLow]
	if h+l != g.mpl {
		t.Fatalf("partition %d+%d != MPL %d", h, l, g.mpl)
	}
	if h < 1 || l < 1 {
		t.Fatalf("partition %d/%d has a class below 1", h, l)
	}
}

func TestSLOControllerSteersPartition(t *testing.T) {
	g := &fakeClassGate{mpl: 10}
	c, err := NewSLO(g, SLOConfig{Class: core.ClassHigh, Target: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g)
	if g.limits[core.ClassHigh] != 5 {
		t.Fatalf("initial high share %d, want even split 5", g.limits[core.ClassHigh])
	}

	// Violated windows pull slots toward the SLO class, one per window.
	for i := 1; i <= 3; i++ {
		window(c, 2.0)
		checkPartition(t, g)
		if got := g.limits[core.ClassHigh]; got != 5+i {
			t.Fatalf("after %d violated windows: high share %d, want %d", i, got, 5+i)
		}
	}
	// The share cannot push the other class below its floor.
	for i := 0; i < 20; i++ {
		window(c, 2.0)
		checkPartition(t, g)
	}
	if g.limits[core.ClassLow] != 1 {
		t.Fatalf("low floor violated: %d", g.limits[core.ClassLow])
	}

	// Give-back is paced: it takes giveBackHold consecutive calm
	// windows per returned slot.
	high := g.limits[core.ClassHigh]
	for i := 1; i < giveBackHold; i++ {
		window(c, 0.1)
		checkPartition(t, g)
		if g.limits[core.ClassHigh] != high {
			t.Fatalf("gave back after %d calm windows, want %d", i, giveBackHold)
		}
	}
	window(c, 0.1)
	checkPartition(t, g)
	if g.limits[core.ClassHigh] != high-1 {
		t.Fatalf("high share %d after %d calm windows, want %d", g.limits[core.ClassHigh], giveBackHold, high-1)
	}

	// In-band windows (between margin and target) hold AND reset the
	// give-back count.
	for i := 1; i < giveBackHold; i++ {
		window(c, 0.1)
	}
	window(c, 0.8)
	window(c, 0.1)
	checkPartition(t, g)
	if g.limits[core.ClassHigh] != high-1 {
		t.Fatal("give-back pacing not reset by an in-band window")
	}

	// An MPL change re-spreads at the next reaction, invariant intact.
	g.mpl = 6
	window(c, 0.8)
	checkPartition(t, g)

	if st := c.Status(); st.Iterations == 0 || st.LastMeasured != 0.8 {
		t.Fatalf("reaction bookkeeping broken: %d iterations, last measured %v", st.Iterations, st.LastMeasured)
	}
}

// TestSLOControllerWindowGates: windows without enough traffic —
// overall or from the SLO class — must not trigger a reaction.
func TestSLOControllerWindowGates(t *testing.T) {
	g := &fakeClassGate{mpl: 8}
	cfg := SLOConfig{Class: core.ClassHigh, Target: 1.0}
	c, err := NewSLO(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Too few completions overall.
	for i := 0; i < 10; i++ {
		c.Observe(&core.Item{Class: core.ClassHigh, Complete: 5})
	}
	if c.Status().Iterations != 0 {
		t.Fatal("reacted on an under-observed window")
	}
	// Enough overall, none from the SLO class.
	c, err = NewSLO(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Observe(&core.Item{Class: core.ClassLow, Complete: 5})
	}
	if c.Status().Iterations != 0 {
		t.Fatal("reacted with zero SLO-class completions")
	}
	// The fifth SLO-class completion closes the window.
	for i := 0; i < 5; i++ {
		c.Observe(&core.Item{Class: core.ClassHigh, Complete: 5})
	}
	if st := c.Status(); st.Iterations != 1 || st.LastMeasured != 5 {
		t.Fatalf("after 5 SLO-class completions: %d iterations, last measured %v", st.Iterations, st.LastMeasured)
	}
}

func TestSLOControllerValidation(t *testing.T) {
	g := &fakeClassGate{mpl: 8}
	cases := []SLOConfig{
		{Class: core.ClassHigh},                             // no target
		{Class: core.ClassHigh, Target: 1, Percentile: 100}, // bad percentile
		{Class: core.ClassHigh, Target: 1, Margin: 1.5},     // bad margin
	}
	for i, cfg := range cases {
		if _, err := NewSLO(g, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	// An unset (or equal) OtherClass defaults to the complement: a
	// low-class SLO partitions against high.
	if _, err := NewSLO(&fakeClassGate{mpl: 8}, SLOConfig{Class: core.ClassLow, Target: 1}); err != nil {
		t.Errorf("complement defaulting broken: %v", err)
	}
	// MPL too small to partition.
	if _, err := NewSLO(&fakeClassGate{mpl: 1}, SLOConfig{Class: core.ClassHigh, Target: 1}); err == nil {
		t.Error("MPL 1 accepted for a two-sided partition")
	}
}
