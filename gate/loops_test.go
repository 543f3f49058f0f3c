package gate

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"extsched/internal/controller"
)

// TestLoopSlotExclusive: a gate holds one MPL loop and one partition
// loop. Auto-tune stacks with SLO tuning and with fairness; SLO tuning
// and fairness both write the class partition, so the second of them is
// refused, naming the partition, and leaves the gate untouched;
// disabling a loop leaves the other one attached; and the attached
// loops see every Release.
func TestLoopSlotExclusive(t *testing.T) {
	g, err := New(Config{Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := g.RegisterClass(name, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.EnableAutoTune(TuneConfig{MaxThroughputLoss: 0.1, ReferenceThroughput: 100}); err != nil {
		t.Fatal(err)
	}
	if err := g.EnableSLOTune(SLOTuneConfig{Class: ClassHigh, Target: 0.1}); err != nil {
		t.Fatalf("SLO tuning refused next to auto-tune: %v", err)
	}
	slo := g.ClassLimits()
	if err := g.EnableFairness(FairnessConfig{Strict: true}); err == nil || !strings.Contains(err.Error(), "class partition") {
		t.Errorf("fairness attached over SLO tuning: err = %v", err)
	}
	if !reflect.DeepEqual(g.ClassLimits(), slo) || g.fe.StrictPartition() {
		t.Error("a refused loop changed the partition")
	}
	g.DisableFairness()
	if !g.TuneStatus().Enabled || !g.SLOTuneStatus().Enabled {
		t.Fatal("disabling fairness detached another loop")
	}
	g.DisableSLOTune()

	if err := g.EnableFairness(FairnessConfig{MinObservations: 10, Strict: true}); err != nil {
		t.Fatalf("fairness refused next to auto-tune: %v", err)
	}
	if err := g.EnableSLOTune(SLOTuneConfig{Class: ClassHigh, Target: 0.1}); err == nil || !strings.Contains(err.Error(), "class partition") {
		t.Errorf("SLO tuning attached over fairness: err = %v", err)
	}
	if !g.TuneStatus().Enabled || g.SLOTuneStatus().Enabled {
		t.Error("auto-tune lost, or the refused SLO loop reports enabled")
	}
	for i := 0; i < 40; i++ {
		tk, err := g.AcquireRequest(context.Background(), Request{Class: Class(i % 2)})
		if err != nil {
			t.Fatal(err)
		}
		tk.Release(Result{})
	}
	st := g.FairnessStatus()
	if !st.Enabled || st.Iterations == 0 || st.Limits[0]+st.Limits[1] != g.TuneStatus().Limit {
		t.Errorf("fairness status after 40 releases: %+v (limit %d)", st, g.TuneStatus().Limit)
	}
	g.DisableFairness()
	if g.FairnessStatus().Enabled || g.fe.StrictPartition() {
		t.Error("fairness disable left the loop attached or the partition strict")
	}
	if !g.TuneStatus().Enabled {
		t.Error("disabling fairness detached auto-tune")
	}
}

// TestLoopsLeaveStatsAlone: a loop keeps its own observation window, so
// however often it closes one, the operator's Stats window keeps
// counting every Release since New.
func TestLoopsLeaveStatsAlone(t *testing.T) {
	for name, enable := range map[string]func(*Gate) error{
		"auto-tune": func(g *Gate) error {
			return g.EnableAutoTune(TuneConfig{MaxThroughputLoss: 0.1, ReferenceThroughput: 100, MinObservations: 10, MaxWindow: 10})
		},
		"fairness": func(g *Gate) error {
			return g.EnableFairness(FairnessConfig{Weights: map[Class]float64{ClassLow: 1, ClassHigh: 1}, MinObservations: 10})
		},
	} {
		g, err := New(Config{Limit: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := enable(g); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			tk, err := g.AcquireRequest(context.Background(), Request{Class: Class(i % 2)})
			if err != nil {
				t.Fatal(err)
			}
			tk.Release(Result{})
		}
		if got := g.Stats().Completed; got != 100 {
			t.Errorf("%s: Stats().Completed = %d after 100 releases, want 100", name, got)
		}
	}
}

// TestLoopSlotToggleRace attaches and detaches each loop kind, the
// partition loops on top of an attached auto-tuner two times in three,
// while releases feed the slot from several goroutines (run under
// -race): every attach succeeds, and the gate drains cleanly with no
// loop or strict partition left behind.
func TestLoopSlotToggleRace(t *testing.T) {
	g, err := New(Config{Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tk, err := g.AcquireRequest(context.Background(), Request{Class: Class(w % 2)})
				if err != nil {
					t.Error(err)
					return
				}
				tk.Release(Result{})
			}
		}(w)
	}
	weights := map[Class]float64{ClassLow: 1, ClassHigh: 1}
	for i := 0; i < 200 && err == nil; i++ {
		if i%3 == 0 {
			err = g.EnableAutoTune(TuneConfig{MaxThroughputLoss: 0.1, ReferenceThroughput: 1e6, MinObservations: 5})
			_ = g.TuneStatus()
		}
		if err == nil && i%2 == 0 {
			err = g.EnableSLOTune(SLOTuneConfig{Class: ClassHigh, Target: 1, MinObservations: 5})
			_ = g.SLOTuneStatus()
			g.DisableSLOTune()
		} else if err == nil {
			err = g.EnableFairness(FairnessConfig{Weights: weights, MinObservations: 5, Strict: true})
			_ = g.FairnessStatus()
			g.DisableFairness()
		}
		if i%3 == 1 {
			g.DisableAutoTune()
		}
		g.SetLimit(4) // undo any step the auto-tuner took
	}
	g.DisableAutoTune()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("attach failed: %v", err)
	}
	if s := g.Stats(); s.Inflight != 0 || s.Queued != 0 {
		t.Errorf("gate not drained: %+v", s)
	}
	for _, k := range []controller.Kind{controller.KindMPL, controller.KindSLO, controller.KindFairness} {
		if g.loops.Loop(k) != nil {
			t.Errorf("the %s outlived its disable", k)
		}
	}
	if g.fe.StrictPartition() {
		t.Error("a strict partition outlived the fairness disable")
	}
}
