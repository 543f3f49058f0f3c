package stats

import (
	"math"
	"sort"
	"testing"

	"extsched/internal/sim"
)

// sortedPercentile is the specification PercentileInPlace must match
// bit for bit: sort, then interpolate between the closest ranks.
func sortedPercentile(values []float64, p float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if p <= 0 {
		return v[0]
	}
	if p >= 100 {
		return v[len(v)-1]
	}
	rank := p / 100 * float64(len(v)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return v[lo]
	}
	frac := rank - float64(lo)
	return v[lo]*(1-frac) + v[hi]*frac
}

func TestPercentileBySelectionMatchesSort(t *testing.T) {
	g := sim.NewRNG(7, 0)
	shapes := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"uniform", func(int, int) float64 { return g.Float64() }},
		{"ties", func(int, int) float64 { return float64(g.IntN(4)) }},
		{"all-equal", func(int, int) float64 { return 2.5 }},
		{"sorted", func(i, _ int) float64 { return float64(i) }},
		{"reversed", func(i, n int) float64 { return float64(n - i) }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-i)) }},
		{"heavy-tailed", func(int, int) float64 { return math.Pow(1-g.Float64(), -1/1.1) }},
		{"signed", func(int, int) float64 { return g.Float64() - 0.5 }},
	}
	ps := []float64{0, 1, 50, 95, 99, 99.9, 100}
	buf := make([]float64, 0, 5000)
	for trial := 0; trial < 400; trial++ {
		n := 1 + g.IntN(40)
		if trial%4 == 0 {
			n = 1 + g.IntN(5000)
		}
		shape := shapes[trial%len(shapes)]
		values := make([]float64, n)
		for i := range values {
			values[i] = shape.gen(i, n)
		}
		for _, p := range append(ps, 100*g.Float64()) {
			buf = append(buf[:0], values...)
			got, want := PercentileInPlace(buf, p), sortedPercentile(values, p)
			if got != want {
				t.Fatalf("%s n=%d p=%v: selection %v, sort %v", shape.name, n, p, got, want)
			}
		}
	}
}

func TestSelectNthSortFallback(t *testing.T) {
	// With no partition rounds allowed selectNth must fall back to
	// sorting and still place the k-th order statistic.
	g := sim.NewRNG(9, 0)
	for _, rounds := range []int{0, 1, 2} {
		for trial := 0; trial < 50; trial++ {
			v := make([]float64, 10+g.IntN(500))
			for i := range v {
				v[i] = float64(g.IntN(50))
			}
			want := append([]float64(nil), v...)
			sort.Float64s(want)
			k := g.IntN(len(v))
			selectNth(v, k, rounds)
			if v[k] != want[k] {
				t.Fatalf("rounds=%d: v[%d] = %v, want %v", rounds, k, v[k], want[k])
			}
			for i := range v {
				if (i < k && v[i] > v[k]) || (i > k && v[i] < v[k]) {
					t.Fatalf("rounds=%d: v[%d] = %v on the wrong side of v[%d] = %v", rounds, i, v[i], k, v[k])
				}
			}
		}
	}
}

func TestReservoirPercentileAllocatesNothing(t *testing.T) {
	r := NewReservoir(4000, sim.NewRNG(3, 0))
	for i := 0; i < 10000; i++ {
		r.Add(float64(i % 977))
	}
	r.Percentile(95) // grows the scratch buffer once
	if allocs := testing.AllocsPerRun(50, func() { r.Percentile(99) }); allocs != 0 {
		t.Errorf("Reservoir.Percentile allocates %v times per call, want 0", allocs)
	}
}
