package sim

import (
	"math"
	"testing"
)

// TestReverseStreamMatchesForward checks that ReverseStream yields
// exactly RNG's first n draws, last first, and that Float64From turns
// each into the variate RNG.Float64 would have returned for it.
func TestReverseStreamMatchesForward(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 1000, 491_520}
	seeds := [][2]uint64{{1, 77}, {0, 0}, {5, 77}, {math.MaxUint64, 13}, {0x9E3779B97F4A7C15, math.MaxUint64}}
	for _, ss := range seeds {
		maxN := lengths[len(lengths)-1]
		fwd, fwdF := NewRNG(ss[0], ss[1]), NewRNG(ss[0], ss[1])
		draws := make([]uint64, maxN)
		floats := make([]float64, maxN)
		for i := range draws {
			draws[i] = fwd.Uint64()
			floats[i] = fwdF.Float64()
		}
		for _, n := range lengths {
			r := NewReverseStream(ss[0], ss[1], n)
			for i := n - 1; i >= 0; i-- {
				if r.Left() != i+1 {
					t.Fatalf("seed %v n %d: Left() = %d before draw %d, want %d", ss, n, r.Left(), i, i+1)
				}
				u := r.Uint64()
				if u != draws[i] {
					t.Fatalf("seed %v n %d: reverse draw %d = %#x, forward %#x", ss, n, i, u, draws[i])
				}
				if f := Float64From(u); math.Float64bits(f) != math.Float64bits(floats[i]) {
					t.Fatalf("seed %v n %d: Float64From(draw %d) = %v, forward Float64 %v", ss, n, i, f, floats[i])
				}
			}
			if r.Left() != 0 {
				t.Fatalf("seed %v n %d: Left() = %d after n draws", ss, n, r.Left())
			}
		}
	}
}

func TestReverseStreamExhaustedPanics(t *testing.T) {
	r := NewReverseStream(1, 2, 1)
	r.Uint64()
	defer func() {
		if recover() == nil {
			t.Error("Uint64 past the stream's start did not panic")
		}
	}()
	r.Uint64()
}

func TestReverseStreamAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReverseStream(3, 77, 1000)
		for r.Left() > 0 {
			Float64From(r.Uint64())
		}
	})
	if allocs != 0 {
		t.Errorf("ReverseStream allocates %v times per walk, want 0", allocs)
	}
}
