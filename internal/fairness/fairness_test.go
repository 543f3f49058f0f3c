package fairness

import (
	"math/rand"
	"sort"
	"testing"

	"extsched/internal/core"
)

// fakeGate is a synthetic Gate: the tests drive its completion stream
// with window and watch the partition the controller applies.
type fakeGate struct {
	mpl    int
	limits map[core.Class]int
	strict bool
}

func (g *fakeGate) MPL() int                            { return g.mpl }
func (g *fakeGate) SetClassLimits(l map[core.Class]int) { g.limits = l }
func (g *fakeGate) SetStrictPartition(strict bool)      { g.strict = strict }

// window feeds ctl completions until its next reaction (at most 10000
// of them). Class c completes at rate min(slots×perSlot, demand[c]) —
// a backlogged tenant's throughput scales with its slots, which is
// exactly the regime the controller steers in, capped by the tenant's
// demand (absent = unlimited backlog, zero = idle). The classes
// interleave in completion-time order, ties to the lower class, so
// every window splits its completions in proportion to the rates.
func (g *fakeGate) window(ctl *Controller, perSlot int, demand map[core.Class]int) {
	classes := make([]core.Class, 0, len(g.limits))
	rate := make(map[core.Class]float64, len(g.limits))
	next := make(map[core.Class]float64, len(g.limits))
	for c, l := range g.limits {
		r := l * perSlot
		if cap, ok := demand[c]; ok && r > cap {
			r = cap
		}
		if r > 0 {
			classes = append(classes, c)
			rate[c] = float64(r)
			next[c] = 1 / float64(r)
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	start := ctl.Status().Iterations
	for n := 0; n < 10000 && len(classes) > 0 && ctl.Status().Iterations == start; n++ {
		c := classes[0]
		for _, o := range classes[1:] {
			if next[o] < next[c] {
				c = o
			}
		}
		ctl.Observe(&core.Item{Class: c, Complete: 1})
		next[c] += 1 / rate[c]
	}
}

// checkInvariants asserts the two partition invariants the package
// pins: limits sum to the MPL and every governed class holds >= 1.
func checkInvariants(t *testing.T, g *fakeGate, weights map[core.Class]float64) {
	t.Helper()
	sum := 0
	for c, l := range g.limits {
		if _, ok := weights[c]; !ok {
			t.Fatalf("limit for ungoverned class %d", c)
		}
		if l < 1 {
			t.Fatalf("class %d limit %d below floor", c, l)
		}
		sum += l
	}
	if len(g.limits) != len(weights) {
		t.Fatalf("partition covers %d classes, want %d", len(g.limits), len(weights))
	}
	if sum != g.mpl {
		t.Fatalf("limits sum %d != MPL %d", sum, g.mpl)
	}
}

func TestAllocate(t *testing.T) {
	cases := []struct {
		mpl     int
		weights map[core.Class]float64
		want    map[core.Class]int
	}{
		{4, map[core.Class]float64{0: 1, 1: 1, 2: 1, 3: 1}, map[core.Class]int{0: 1, 1: 1, 2: 1, 3: 1}},
		{10, map[core.Class]float64{0: 1, 1: 1, 2: 1, 3: 1}, map[core.Class]int{0: 3, 1: 3, 2: 2, 3: 2}},
		{12, map[core.Class]float64{0: 1, 1: 2, 2: 3}, map[core.Class]int{0: 3, 1: 4, 2: 5}},
		{16, map[core.Class]float64{0: 1, 1: 1, 2: 2}, map[core.Class]int{0: 4, 1: 4, 2: 8}},
		// A huge weight cannot push a small tenant below the floor.
		{5, map[core.Class]float64{0: 1000, 1: 1}, map[core.Class]int{0: 4, 1: 1}},
	}
	for _, c := range cases {
		got := Allocate(c.mpl, c.weights)
		if len(got) != len(c.want) {
			t.Fatalf("Allocate(%d, %v) = %v, want %v", c.mpl, c.weights, got, c.want)
		}
		sum := 0
		for cl, l := range got {
			sum += l
			if l != c.want[cl] {
				t.Errorf("Allocate(%d, %v)[%d] = %d, want %d", c.mpl, c.weights, cl, l, c.want[cl])
			}
		}
		if sum != c.mpl {
			t.Errorf("Allocate(%d, %v) sums to %d", c.mpl, c.weights, sum)
		}
	}
}

func TestAllocatePanicsBelowFloor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MPL below class count did not panic")
		}
	}()
	Allocate(2, map[core.Class]float64{0: 1, 1: 1, 2: 1})
}

// TestInvariantsProperty drives the controller through randomized
// weights, demands, and mid-run MPL changes, asserting the partition
// invariants after every single reaction.
func TestInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		weights := make(map[core.Class]float64, n)
		for i := 0; i < n; i++ {
			weights[core.Class(i)] = 1 + rng.Float64()*9
		}
		g := &fakeGate{mpl: n + rng.Intn(40)}
		ctl, err := New(g, Config{Weights: weights, MinObservations: 200})
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, g, weights)
		for w := 0; w < 40; w++ {
			if w == 20 {
				// Mid-run MPL change: the controller must re-spread.
				g.mpl = n + rng.Intn(40)
			}
			demand := map[core.Class]int{}
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.3 {
					demand[core.Class(i)] = rng.Intn(30)
				}
			}
			g.window(ctl, 20, demand)
			checkInvariants(t, g, weights)
		}
	}
}

// TestConvergesToWeightedShares is the max-min property: with every
// tenant backlogged, the partition converges to the weighted fair
// shares (within one slot of the exact largest-remainder split) and
// stays there — no tenant sits below its fair share while another sits
// above.
func TestConvergesToWeightedShares(t *testing.T) {
	weights := map[core.Class]float64{0: 1, 1: 1, 2: 2, 3: 4}
	g := &fakeGate{mpl: 24}
	ctl, err := New(g, Config{Weights: weights, MinObservations: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb hard: hand almost everything to tenant 0 — the
	// controller must claw it back one slot per window.
	g.limits = map[core.Class]int{0: 21, 1: 1, 2: 1, 3: 1}
	for k, v := range g.limits {
		ctl.limits[k] = v
	}
	for w := 0; w < 60; w++ {
		g.window(ctl, 20, nil)
		checkInvariants(t, g, weights)
	}
	fair := Allocate(24, weights) // {0:3, 1:3, 2:6, 3:12}
	for c, want := range fair {
		got := g.limits[c]
		if got < want-1 || got > want+1 {
			t.Errorf("class %d limit = %d, want %d±1 (final %v)", c, got, want, g.limits)
		}
	}
	if ctl.Status().Moves == 0 {
		t.Error("controller never moved a slot")
	}
}

// TestIdleDonation: an idle tenant's reservation drains down to the
// one-slot floor (without hysteresis — it was being lent out anyway)
// and comes back once the tenant wakes up.
func TestIdleDonation(t *testing.T) {
	weights := map[core.Class]float64{0: 1, 1: 1}
	g := &fakeGate{mpl: 10}
	ctl, err := New(g, Config{Weights: weights, MinObservations: 200})
	if err != nil {
		t.Fatal(err)
	}
	idle := map[core.Class]int{1: 0}
	for w := 0; w < 10; w++ {
		g.window(ctl, 20, idle)
		checkInvariants(t, g, weights)
	}
	if g.limits[1] != 1 {
		t.Fatalf("idle tenant kept %d slots, want floor 1", g.limits[1])
	}
	// Tenant 1 wakes up backlogged: slots flow back toward the even
	// split.
	for w := 0; w < 20; w++ {
		g.window(ctl, 20, nil)
		checkInvariants(t, g, weights)
	}
	if g.limits[1] < 4 {
		t.Errorf("woken tenant recovered only %d slots (final %v)", g.limits[1], g.limits)
	}
}

// TestHysteresisHoldsBalance: a balanced system must not oscillate —
// with scores equal, no slot moves.
func TestHysteresisHoldsBalance(t *testing.T) {
	weights := map[core.Class]float64{0: 1, 1: 1}
	g := &fakeGate{mpl: 8}
	ctl, err := New(g, Config{Weights: weights, MinObservations: 200})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 10; w++ {
		g.window(ctl, 20, nil)
	}
	if m := ctl.Status().Moves; m != 0 {
		t.Errorf("balanced system moved %d slots", m)
	}
	if g.limits[0] != 4 || g.limits[1] != 4 {
		t.Errorf("balanced partition drifted to %v", g.limits)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	g := &fakeGate{mpl: 8}
	if _, err := New(g, Config{Weights: map[core.Class]float64{0: 1}}); err == nil {
		t.Error("single class accepted")
	}
	if _, err := New(g, Config{Weights: map[core.Class]float64{0: 1, 1: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := New(g, Config{Weights: map[core.Class]float64{0: 1, 1: 1}, Hysteresis: 0.5}); err == nil {
		t.Error("hysteresis < 1 accepted")
	}
	g.mpl = 1
	if _, err := New(g, Config{Weights: map[core.Class]float64{0: 1, 1: 1}}); err == nil {
		t.Error("MPL below class count accepted")
	}
}
