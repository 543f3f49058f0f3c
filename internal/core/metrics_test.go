package core

import (
	"reflect"
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

// TestMetricsStripesMergeToOneWindow: a frontend whose completions are
// spread over several metrics stripes reports the window that one
// Metrics fed the same completions holds — the per-class counts and
// sketches bucket for bucket, and the class percentiles — and
// ResetMetrics empties every stripe.
func TestMetricsStripesMergeToOneWindow(t *testing.T) {
	const k = 4
	eng, fe := rig(t, 3, nil)
	fe.SetMetricsStripes(k)
	var want Metrics
	fe.OnComplete = func(it *Item) { want.Record(it) }
	feed := func(n int) {
		for i := 0; i < n; i++ {
			// Class 7 completes on the last stripe only.
			it := &Item{Class: Class(i % 3), SizeHint: 0.001 * float64(1+i%23), Stripe: uint32(i % k)}
			if i%11 == 0 {
				it.Class, it.Stripe = 7, k-1
			}
			fe.Submit(it, nil)
		}
		eng.Run(eng.Now() + 1000)
	}
	check := func(when string) {
		t.Helper()
		got := fe.Metrics()
		if got.Completed != want.Completed || got.All.Count() != want.All.Count() || len(got.Classes) != len(want.Classes) {
			t.Fatalf("%s: merged window holds %d completions in %d classes, want %d in %d",
				when, got.Completed, len(got.Classes), want.Completed, len(want.Classes))
		}
		for i, cm := range got.Classes {
			w := want.Classes[i]
			if cm.Class != w.Class || cm.Completed() != w.Completed() {
				t.Errorf("%s: class entry %d is class %d with %d completions, want class %d with %d",
					when, i, cm.Class, cm.Completed(), w.Class, w.Completed())
			}
			if !reflect.DeepEqual(canonical(&cm.Sketch), canonical(&w.Sketch)) {
				t.Errorf("%s: class %d: merged sketch differs from the one window's", when, cm.Class)
			}
			for _, p := range []float64{50, 95, 99} {
				if got, want := fe.ClassResponseTimePercentile(cm.Class, p), w.Sketch.Quantile(p/100); got != want {
					t.Errorf("%s: class %d p%v = %v, want %v", when, cm.Class, p, got, want)
				}
			}
		}
		if p := fe.ClassResponseTimePercentile(5, 50); p != 0 {
			t.Errorf("%s: class 5 completed nothing but its p50 is %v", when, p)
		}
	}
	feed(400)
	set := fe.stripes.Load()
	if set == nil || len(set.stripes) != k-1 {
		t.Fatal("the stripes past stripe 0 were not allocated")
	}
	for i := range set.stripes {
		if set.stripes[i].m.Completed == 0 {
			t.Fatalf("stripe %d recorded nothing", i+1)
		}
	}
	check("first window")

	fe.ResetMetrics()
	want.Reset()
	if fe.metrics.m.Completed != 0 || len(fe.metrics.m.Classes) != 0 {
		t.Error("stripe 0 is not empty after ResetMetrics")
	}
	for i := range set.stripes {
		if m := &set.stripes[i].m; m.Completed != 0 || len(m.Classes) != 0 {
			t.Errorf("stripe %d is not empty after ResetMetrics", i+1)
		}
	}
	feed(150)
	check("window after a reset")
}

// canonical rebuilds s from its buckets alone, so two sketches of the
// same values compare equal whatever ring storage each has kept.
func canonical(s *stats.Sketch) stats.Sketch {
	var c stats.Sketch
	c.Merge(s)
	return c
}

// TestContendedStripeMovesOn: a completion that finds its stripe's
// lock held records into the next stripe and keeps that stripe in the
// item, so a recycled item records there from then on.
func TestContendedStripeMovesOn(t *testing.T) {
	eng, fe := rig(t, 0, nil)
	fe.SetMetricsStripes(2)
	it := &Item{SizeHint: 1}
	fe.Submit(it, nil)
	fe.metrics.mu.Lock()
	eng.Run(2)
	fe.metrics.mu.Unlock()
	if it.Stripe != 1 {
		t.Fatalf("item left on stripe %d, want 1", it.Stripe)
	}
	if got := fe.stripe(1).m.Completed; got != 1 {
		t.Fatalf("stripe 1 recorded %d completions, want 1", got)
	}
	if got := fe.Metrics().Completed; got != 1 {
		t.Fatalf("window holds %d completions, want 1", got)
	}
}
