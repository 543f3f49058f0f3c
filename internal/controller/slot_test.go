package controller

import (
	"strings"
	"testing"

	"extsched/internal/core"
)

// countLoop counts the completions a Slot feeds it, and logs its name
// to order so a test can check the feed order.
type countLoop struct {
	n     int
	name  string
	order *[]string
}

func (l *countLoop) Observe(*core.Item) {
	l.n++
	if l.order != nil {
		*l.order = append(*l.order, l.name)
	}
}

// TestSlotHoldsOneLoop pins the attachment rule: a slot holds one MPL
// loop and one partition loop, and feeds every completion to both, the
// MPL loop first. The same kind replaces; the other partition kind is
// refused without running its constructor, naming the class partition;
// a detach of an absent kind changes nothing.
func TestSlotHoldsOneLoop(t *testing.T) {
	var s Slot
	it := &core.Item{}
	s.Observe(it) // empty: a no-op
	var order []string
	mpl := &countLoop{name: "mpl", order: &order}
	fair := &countLoop{name: "fairness", order: &order}
	if err := s.Attach(KindFairness, func() (Loop, error) { return fair, nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(KindMPL, func() (Loop, error) { return mpl, nil }); err != nil {
		t.Fatalf("MPL loop refused next to fairness: %v", err)
	}
	s.Observe(it)
	if mpl.n != 1 || fair.n != 1 || strings.Join(order, ",") != "mpl,fairness" {
		t.Fatalf("stacked loops observed %d and %d completions in order %v, want 1 and 1, MPL first", mpl.n, fair.n, order)
	}

	built := false
	err := s.Attach(KindSLO, func() (Loop, error) { built = true; return &countLoop{}, nil })
	if err == nil || !strings.Contains(err.Error(), "class partition") {
		t.Fatalf("SLO attached over fairness: err = %v", err)
	}
	if built {
		t.Error("a refused attach ran the constructor")
	}
	if s.Detach(KindSLO) != nil || s.Loop(KindFairness) != Loop(fair) || s.Loop(KindMPL) != Loop(mpl) {
		t.Fatal("detaching an absent kind changed the slot")
	}
	if s.Loop(KindSLO) != nil {
		t.Fatal("Loop(KindSLO) returned the fairness loop")
	}

	mpl2 := &countLoop{}
	if err := s.Attach(KindMPL, func() (Loop, error) { return mpl2, nil }); err != nil {
		t.Fatalf("same kind did not replace: %v", err)
	}
	s.Observe(it)
	if mpl.n != 1 || mpl2.n != 1 || fair.n != 2 {
		t.Errorf("after replace: old %d, new %d, fairness %d completions, want 1, 1 and 2", mpl.n, mpl2.n, fair.n)
	}
	if s.Detach(KindFairness) != Loop(fair) || s.Loop(KindFairness) != nil || s.Loop(KindMPL) != Loop(mpl2) {
		t.Fatal("detaching the partition loop disturbed the MPL loop")
	}
	slo := &countLoop{}
	if err := s.Attach(KindSLO, func() (Loop, error) { return slo, nil }); err != nil {
		t.Fatalf("SLO refused once fairness left: %v", err)
	}
	s.Observe(it)
	if mpl2.n != 2 || slo.n != 1 {
		t.Errorf("MPL+SLO observed %d and %d completions, want 2 and 1", mpl2.n, slo.n)
	}
	if s.Detach(KindMPL) != Loop(mpl2) || s.Detach(KindSLO) != Loop(slo) || s.Loop(KindMPL) != nil || s.Loop(KindSLO) != nil {
		t.Fatal("detach did not empty the slot")
	}
}
