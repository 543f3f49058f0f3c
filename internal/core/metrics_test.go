package core

import (
	"testing"

	"extsched/internal/stats"
)

// doneItem is a completed item of class c with response time rt.
func doneItem(c Class, rt float64) *Item {
	return &Item{Class: c, Arrival: 0, Complete: rt, Outcome: Outcome{InsideTime: rt}}
}

// TestMetricsRecordAfterResetAllocatesNothing: Reset keeps every
// class's sketch storage, so a reset window that sees the same classes
// again records without allocating — the fairness loop resets its
// window every few dozen completions.
func TestMetricsRecordAfterResetAllocatesNothing(t *testing.T) {
	var m Metrics
	items := make([]*Item, 0, 64)
	for i := 0; i < 64; i++ {
		items = append(items, doneItem(Class(i%16), 0.001*float64(1+i)))
	}
	for _, it := range items {
		m.Record(it)
	}
	allocs := testing.AllocsPerRun(50, func() {
		m.Reset()
		// Reverse class order, so classes are re-inserted before
		// entries that Reset left in place.
		for i := len(items) - 1; i >= 0; i-- {
			m.Record(items[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("Record after Reset allocated %v times per window, want 0", allocs)
	}
	if len(m.Classes) != 16 || m.Completed != 64 {
		t.Fatalf("window holds %d classes / %d completions, want 16 / 64", len(m.Classes), m.Completed)
	}
	for _, cm := range m.Classes {
		if cm.Sketch.Count() != cm.Completed() {
			t.Fatalf("class %d: sketch holds %d values, accumulator %d", cm.Class, cm.Sketch.Count(), cm.Completed())
		}
	}
}

// TestMetricsSketchesStayInStep: Record, Merge and Reset keep each
// class's sketch in step with its accumulator, storage reused by a new
// class is empty, and the window quantile merges the classes.
func TestMetricsSketchesStayInStep(t *testing.T) {
	var a, b, union Metrics
	for i := 0; i < 300; i++ {
		it := doneItem(Class(i%3), float64(1+i%17))
		union.Record(it)
		if i%2 == 0 {
			a.Record(it)
		} else {
			b.Record(it)
		}
	}
	a.Merge(&b)
	var s1, s2 stats.Sketch
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := a.Sketch(&s1).Quantile(q), union.Sketch(&s2).Quantile(q); got != want {
			t.Errorf("q%v: merged windows %v, union %v", q, got, want)
		}
	}
	for _, cm := range a.Classes {
		if cm.Sketch.Count() != cm.Completed() {
			t.Errorf("class %d: sketch %d values, accumulator %d", cm.Class, cm.Sketch.Count(), cm.Completed())
		}
	}
	a.Reset()
	a.Record(doneItem(7, 2))
	if cm := a.ClassMetric(7); cm.Sketch.Count() != 1 {
		t.Fatalf("class recorded after Reset holds %d values, want 1", cm.Sketch.Count())
	}
	if got := a.Sketch(&s1).Quantile(0.5); got < 2*(1-stats.SketchAlpha) || got > 2*(1+stats.SketchAlpha) {
		t.Fatalf("median %v after Reset, want ~2", got)
	}
	c := a.Clone()
	a.Record(doneItem(7, 100))
	if cm := c.ClassMetric(7); cm.Sketch.Count() != 1 {
		t.Fatal("a clone shares its sketch with the window")
	}
}
