package mva

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSingleStationMachineRepair(t *testing.T) {
	// One queueing station, demand D: X(n) = n/(D·(1+Q(n-1))) and in the
	// limit X → 1/D. For n=1, X = 1/D exactly (no queueing).
	nw, err := NewNetwork([]Station{{Name: "cpu", Demand: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if x := nw.Throughput(1); math.Abs(x-2) > 1e-12 {
		t.Errorf("X(1) = %v, want 2", x)
	}
	// With a single station all customers queue there: X(n) = 1/D for
	// all n >= 1 (each completes every D seconds back-to-back).
	if x := nw.Throughput(10); math.Abs(x-2) > 1e-12 {
		t.Errorf("X(10) = %v, want 2", x)
	}
}

func TestTwoStationKnownValues(t *testing.T) {
	// Classic two-station example: D1 = 1, D2 = 2.
	// n=1: R=3, X=1/3, Q1=1/3, Q2=2/3.
	// n=2: R1=1·(1+1/3)=4/3, R2=2·(1+2/3)=10/3, R=14/3, X=2/(14/3)=3/7.
	nw, err := NewNetwork([]Station{{Demand: 1}, {Demand: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Solve(2)
	if math.Abs(res[0].Throughput-1.0/3.0) > 1e-12 {
		t.Errorf("X(1) = %v, want 1/3", res[0].Throughput)
	}
	if math.Abs(res[1].Throughput-3.0/7.0) > 1e-12 {
		t.Errorf("X(2) = %v, want 3/7", res[1].Throughput)
	}
	if math.Abs(res[1].ResponseTime-14.0/3.0) > 1e-12 {
		t.Errorf("R(2) = %v, want 14/3", res[1].ResponseTime)
	}
}

func TestDelayStation(t *testing.T) {
	// Delay station contributes fixed Z to response time; with one
	// queueing station D and think Z: X(n) = n/(Z + D(1+Q)).
	nw, err := NewNetwork([]Station{
		{Name: "think", Demand: 10, Kind: Delay},
		{Name: "cpu", Demand: 1, Kind: Queueing},
	})
	if err != nil {
		t.Fatal(err)
	}
	// n=1: X = 1/11.
	if x := nw.Throughput(1); math.Abs(x-1.0/11.0) > 1e-12 {
		t.Errorf("X(1) = %v, want 1/11", x)
	}
	// Asymptotically X → 1/D = 1.
	if x := nw.Throughput(200); x > 1.0001 || x < 0.95 {
		t.Errorf("X(200) = %v, want ≈1", x)
	}
}

func TestThroughputMonotoneAndBounded(t *testing.T) {
	f := func(d1, d2, d3 uint16, pop uint8) bool {
		ds := []float64{
			0.001 + float64(d1%1000)/100,
			0.001 + float64(d2%1000)/100,
			0.001 + float64(d3%1000)/100,
		}
		nw, err := NewNetwork([]Station{{Demand: ds[0]}, {Demand: ds[1]}, {Demand: ds[2]}})
		if err != nil {
			return false
		}
		n := 1 + int(pop%40)
		res := nw.Solve(n)
		sumD := ds[0] + ds[1] + ds[2]
		maxD := math.Max(ds[0], math.Max(ds[1], ds[2]))
		prev := 0.0
		for _, r := range res {
			// Monotone nondecreasing.
			if r.Throughput < prev-1e-12 {
				return false
			}
			prev = r.Throughput
			// Bounded by min(n/sumD, 1/maxD) — asymptotic bounds.
			bound := math.Min(float64(r.Population)/sumD, 1/maxD)
			if r.Throughput > bound+1e-9 {
				return false
			}
			// Little's law inside the network: ΣQ = X·R = n.
			sumQ := 0.0
			for _, q := range r.QueueLen {
				sumQ += q
			}
			if math.Abs(sumQ-float64(r.Population)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUtilizationBounded(t *testing.T) {
	nw, _ := NewNetwork([]Station{{Demand: 0.3}, {Demand: 0.7}})
	res := nw.Solve(50)
	for _, r := range res {
		for i, u := range r.Utilization {
			if u > 1+1e-9 || u < 0 {
				t.Fatalf("utilization[%d] = %v at n=%d", i, u, r.Population)
			}
		}
	}
	// Bottleneck utilization approaches 1.
	last := res[len(res)-1]
	if last.Utilization[1] < 0.99 {
		t.Errorf("bottleneck utilization = %v at n=50, want ≈1", last.Utilization[1])
	}
}

func TestBalancedNetworkShape(t *testing.T) {
	nw, err := Balanced(2, 4, 0.1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Stations) != 6 {
		t.Fatalf("stations = %d, want 6", len(nw.Stations))
	}
	for _, s := range nw.Stations[:2] {
		if math.Abs(s.Demand-0.05) > 1e-12 {
			t.Errorf("cpu demand = %v, want 0.05", s.Demand)
		}
	}
	for _, s := range nw.Stations[2:] {
		if math.Abs(s.Demand-0.1) > 1e-12 {
			t.Errorf("disk demand = %v, want 0.1", s.Demand)
		}
	}
}

func TestBalancedPureIO(t *testing.T) {
	nw, err := Balanced(1, 4, 0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Stations) != 4 {
		t.Fatalf("stations = %d, want 4 (no CPU station for zero demand)", len(nw.Stations))
	}
	// Max throughput = 4 disks / 0.4 s = 10 tx/s.
	if x := nw.MaxThroughput(); math.Abs(x-10) > 1e-12 {
		t.Errorf("MaxThroughput = %v, want 10", x)
	}
}

func TestBalancedErrors(t *testing.T) {
	if _, err := Balanced(0, 0, 1, 1); err == nil {
		t.Error("zero resources should error")
	}
	if _, err := Balanced(0, 2, 1, 1); err == nil {
		t.Error("cpu demand with zero CPUs should error")
	}
}

func TestMinMPLForFraction(t *testing.T) {
	// Single station: X(n) = 1/D for all n ≥ 1, so min MPL = 1 always.
	nw, _ := NewNetwork([]Station{{Demand: 1}})
	if m := nw.MinMPLForFraction(0.95, 100); m != 1 {
		t.Errorf("min MPL = %d, want 1", m)
	}
	// Balanced k-station network: more stations need more customers.
	nw2, _ := Balanced(0, 4, 0, 1)
	m95 := nw2.MinMPLForFraction(0.95, 200)
	m80 := nw2.MinMPLForFraction(0.80, 200)
	if m80 >= m95 {
		t.Errorf("min MPL at 80%% (%d) should be below 95%% (%d)", m80, m95)
	}
	if m95 < 4 {
		t.Errorf("min MPL for 95%% on 4 balanced disks = %d, want >= 4", m95)
	}
}

func TestBinarySearchMatchesLinear(t *testing.T) {
	for disks := 1; disks <= 16; disks++ {
		nw, _ := Balanced(0, disks, 0, 1)
		for _, frac := range []float64{0.5, 0.8, 0.9, 0.95, 0.99} {
			lin := nw.MinMPLForFraction(frac, 500)
			bin := nw.binarySearchMinMPL(frac, 500)
			if lin != bin {
				t.Errorf("disks=%d frac=%v: linear=%d binary=%d", disks, frac, lin, bin)
			}
		}
	}
}

// TestFig7LinearLoci verifies the paper's Fig. 7 observation: the
// minimum MPL achieving 80% (and 95%) of max throughput grows as a
// perfectly straight line in the number of disks.
func TestFig7LinearLoci(t *testing.T) {
	for _, frac := range []float64{0.80, 0.95} {
		var xs, ys []float64
		for disks := 1; disks <= 16; disks++ {
			nw, _ := Balanced(0, disks, 0, 1)
			m := nw.MinMPLForFraction(frac, 2000)
			xs = append(xs, float64(disks))
			ys = append(ys, float64(m))
		}
		// Check near-perfect linearity via R² of a least-squares fit.
		slope, _, r2 := fitLine(xs, ys)
		if r2 < 0.995 {
			t.Errorf("frac=%v: min-MPL locus not linear (R²=%v, ys=%v)", frac, r2, ys)
		}
		if slope <= 0 {
			t.Errorf("frac=%v: slope=%v, want positive", frac, slope)
		}
		// Monotone in disks.
		for i := 1; i < len(ys); i++ {
			if ys[i] < ys[i-1] {
				t.Errorf("frac=%v: min MPL decreased from %v to %v at %d disks", frac, ys[i-1], ys[i], i+1)
			}
		}
	}
}

func fitLine(x, y []float64) (slope, intercept, r2 float64) {
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	ssTot := syy - sy*sy/n
	ssRes := 0.0
	for i := range x {
		e := y[i] - (intercept + slope*x[i])
		ssRes += e * e
	}
	if ssTot == 0 {
		return slope, intercept, 1
	}
	return slope, intercept, 1 - ssRes/ssTot
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil); err == nil {
		t.Error("empty network should error")
	}
	if _, err := NewNetwork([]Station{{Demand: -1}}); err == nil {
		t.Error("negative demand should error")
	}
	if _, err := NewNetwork([]Station{{Demand: 0}}); err == nil {
		t.Error("all-zero demands should error")
	}
	if _, err := NewNetwork([]Station{{Demand: math.NaN()}}); err == nil {
		t.Error("NaN demand should error")
	}
}

func TestSolveZeroPopulation(t *testing.T) {
	nw, _ := NewNetwork([]Station{{Demand: 1}})
	if res := nw.Solve(0); res != nil {
		t.Error("Solve(0) should return nil")
	}
	if x := nw.Throughput(0); x != 0 {
		t.Errorf("Throughput(0) = %v, want 0", x)
	}
}

// binarySearchMinMPL is the binary-search variant the paper mentions for
// efficiency. It assumes monotone throughput and returns the same value
// as MinMPLForFraction.
func (nw *Network) binarySearchMinMPL(fraction float64, maxN int) int {
	if fraction <= 0 {
		return 1
	}
	target := fraction * nw.MaxThroughput()
	lo, hi := 1, maxN
	if nw.Throughput(maxN) < target {
		return maxN + 1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if nw.Throughput(mid) >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func TestSeidmannMultiCPUSaturatesEarly(t *testing.T) {
	// A 2-CPU pool modeled with Seidmann's decomposition reaches near
	// max throughput at a small population — unlike two independent
	// FCFS stations with random routing.
	pool, err := Balanced(2, 0, 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	xmax := 2 / 0.02
	// The decomposition's bottleneck bound is 1/(D/c) = c/D.
	if math.Abs(pool.MaxThroughput()-xmax) > 1e-9 {
		t.Fatalf("max throughput = %v, want %v", pool.MaxThroughput(), xmax)
	}
	if got := pool.Throughput(4); got < 0.85*xmax {
		t.Errorf("X(4) = %v, want >= 85%% of %v with flexible sharing", got, xmax)
	}
	if m := pool.MinMPLForFraction(0.95, 100); m > 8 {
		t.Errorf("min MPL for 95%% on 2 flexible CPUs = %d, want small", m)
	}
}

func TestBalancedMixedResources(t *testing.T) {
	nw, err := Balanced(2, 4, 0.02, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	// Stations: cpu, cpu-parallel (delay), 4 disks.
	if len(nw.Stations) != 6 {
		t.Fatalf("stations = %d, want 6", len(nw.Stations))
	}
	delays := 0
	for _, s := range nw.Stations {
		if s.Kind == Delay {
			delays++
		}
	}
	if delays != 1 {
		t.Errorf("delay stations = %d, want 1 (cpu-parallel)", delays)
	}
	// Sanity: monotone and bounded.
	prev := 0.0
	for n := 1; n <= 40; n++ {
		x := nw.Throughput(n)
		if x < prev-1e-9 {
			t.Fatalf("throughput decreased at n=%d", n)
		}
		if x > nw.MaxThroughput()+1e-9 {
			t.Fatalf("throughput exceeded bound at n=%d", n)
		}
		prev = x
	}
}
