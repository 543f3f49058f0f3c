package stats

import (
	"fmt"
	"math"
	"testing"

	"extsched/internal/dist"
	"extsched/internal/sim"
)

// withinAlpha reports whether got is within SketchAlpha of want,
// relatively (plus a rounding allowance at bucket boundaries).
func withinAlpha(got, want float64) bool {
	return math.Abs(got-want) <= SketchAlpha*math.Abs(want)*(1+1e-9)
}

// sketchOf records values into a fresh sketch.
func sketchOf(values []float64) *Sketch {
	var s Sketch
	for _, x := range values {
		s.Add(x)
	}
	return &s
}

// buckets lists a sketch's non-empty buckets, for bucket-for-bucket
// comparisons.
func buckets(s *Sketch) map[int]uint64 {
	out := map[int]uint64{}
	if s.zero > 0 {
		out[math.MinInt] = s.zero
	}
	if s.n > 0 {
		for k := s.lo; k <= s.hi; k++ {
			if c := s.bucket(k); c != 0 {
				out[k] = c
			}
		}
	}
	return out
}

func sameBuckets(t *testing.T, what string, got, want *Sketch) {
	t.Helper()
	g, w := buckets(got), buckets(want)
	if len(g) != len(w) || got.Count() != want.Count() {
		t.Fatalf("%s: %d buckets / %d values, want %d / %d", what, len(g), got.Count(), len(w), want.Count())
	}
	for k, c := range w {
		if g[k] != c {
			t.Fatalf("%s: bucket %d holds %d, want %d", what, k, g[k], c)
		}
	}
}

// sketchStreams are the shapes the accuracy checks cover: heavy-tailed
// lognormal and H2 response times at scales from 1e-7 to 1e4 seconds,
// heavy ties, zeros mixed in, and a stream whose low tenth lies far
// below the ring's range (it collapses into the lowest bucket, under
// every checked rank).
func sketchStreams(g *sim.RNG, n int) map[string][]float64 {
	draw := func(f func() float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f()
		}
		return v
	}
	ln := dist.NewLognormal(1, 4)
	h2 := dist.FitH2(1, 20)
	out := map[string][]float64{}
	for _, scale := range []float64{1e-7, 1e-3, 1, 1e4} {
		out[fmt.Sprintf("lognormal@%g", scale)] = draw(func() float64 { return scale * ln.Sample(g) })
		out[fmt.Sprintf("h2@%g", scale)] = draw(func() float64 { return scale * h2.Sample(g) })
	}
	out["log-uniform 1e-7..1e4"] = draw(func() float64 { return math.Pow(10, -7+11*g.Float64()) })
	out["ties"] = draw(func() float64 { return float64(1 + g.IntN(3)) })
	out["all-equal"] = draw(func() float64 { return 0.25 })
	out["zeros"] = draw(func() float64 {
		if g.IntN(3) == 0 {
			return 0
		}
		return ln.Sample(g)
	})
	out["low overflow"] = draw(func() float64 {
		if g.IntN(10) == 0 {
			return 1e-12 * g.Float64()
		}
		return ln.Sample(g)
	})
	return out
}

// TestSketchQuantileWithinAlpha is the sketch's accuracy property:
// p50, p95 and p99 lie within SketchAlpha of the exact quantile of the
// same rank on every stream shape.
func TestSketchQuantileWithinAlpha(t *testing.T) {
	g := sim.NewRNG(3, 0)
	for _, n := range []int{1, 2, 7, 100, 20000} {
		for name, values := range sketchStreams(g, n) {
			s := sketchOf(values)
			if s.Count() != uint64(n) {
				t.Fatalf("%s n=%d: Count %d", name, n, s.Count())
			}
			for _, p := range []float64{50, 95, 99} {
				got, want := s.Quantile(p/100), Percentile(values, p)
				if !withinAlpha(got, want) {
					t.Errorf("%s n=%d: p%v = %v, exact %v (error %.3g > %v)", name, n, p, got, want, math.Abs(got-want)/want, SketchAlpha)
				}
			}
		}
	}
}

// TestSketchIndexMatchesLog: the table shortcut puts every value in
// the bucket the logarithm does — across scales, at powers of two and
// at (and one ulp either side of) bucket edges.
func TestSketchIndexMatchesLog(t *testing.T) {
	g := sim.NewRNG(9, 0)
	check := func(x float64) {
		if got, want := sketchIndex(x), int(math.Ceil(math.Log(x)*sketchInvLog)); got != want {
			t.Fatalf("sketchIndex(%v) = %d, logarithm says %d", x, got, want)
		}
	}
	for i := 0; i < 200000; i++ {
		check(math.Pow(10, -12+24*g.Float64()))
	}
	for e := -40; e <= 40; e++ {
		check(math.Ldexp(1, e))
	}
	for k := -2000; k <= 2000; k++ {
		edge := math.Exp(float64(k) * sketchLogGamma)
		check(edge)
		check(math.Nextafter(edge, 0))
		check(math.Nextafter(edge, math.Inf(1)))
	}
	check(math.SmallestNonzeroFloat64)
	check(math.MaxFloat64)
}

func TestSketchEmptyAndExtremes(t *testing.T) {
	var s Sketch
	if s.Quantile(0.5) != 0 || s.Count() != 0 {
		t.Fatal("empty sketch not 0")
	}
	s.Add(0)
	s.Add(-1)
	if s.Quantile(0.99) != 0 || s.Count() != 2 {
		t.Fatalf("zeros: p99 %v count %d", s.Quantile(0.99), s.Count())
	}
	s.Add(2)
	if got := s.Quantile(1); !withinAlpha(got, 2) {
		t.Fatalf("max %v, want ~2", got)
	}
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("min %v, want 0", got)
	}
}

// TestSketchMergeEqualsUnion: merging the sketches of the parts of a
// stream gives the sketch of the whole, bucket for bucket — including
// across a collapse of the low end.
func TestSketchMergeEqualsUnion(t *testing.T) {
	g := sim.NewRNG(5, 0)
	for name, values := range sketchStreams(g, 5000) {
		for parts := 2; parts <= 5; parts++ {
			split := make([]Sketch, parts)
			for _, x := range values {
				split[g.IntN(parts)].Add(x)
			}
			var merged Sketch
			for i := range split {
				merged.Merge(&split[i])
			}
			sameBuckets(t, name, &merged, sketchOf(values))
		}
	}
}

// TestSketchCollapseOrderFree: the low-end collapse depends only on
// the highest bucket, not on the order values arrive in.
func TestSketchCollapseOrderFree(t *testing.T) {
	values := []float64{1e-9, 1e-6, 1e-3, 1, 1e3, 1e6}
	want := sketchOf(values)
	rev := make([]float64, len(values))
	for i, x := range values {
		rev[len(values)-1-i] = x
	}
	sameBuckets(t, "reversed", sketchOf(rev), want)
	if got := want.Quantile(1); !withinAlpha(got, 1e6) {
		t.Fatalf("max %v, want ~1e6", got)
	}
}

// TestSketchResetReusesStorage: Reset keeps the ring, so a reset
// sketch records without allocating.
func TestSketchResetReusesStorage(t *testing.T) {
	var s Sketch
	s.Add(1)
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		for x := 1e-3; x < 1e3; x *= 1.7 {
			s.Add(x)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+Add allocated %v times per run, want 0", allocs)
	}
	s.Reset()
	if s.Count() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("Reset left values behind")
	}
	for _, c := range s.bins {
		if c != 0 {
			t.Fatal("Reset left a bucket non-zero")
		}
	}
}

// TestSketchRingGrowsToSpan: the ring starts small and doubles only as
// far as the data's span needs, capped at sketchMaxBins, keeping every
// bucket as it grows.
func TestSketchRingGrowsToSpan(t *testing.T) {
	var one, narrow, wide Sketch
	var values []float64
	for i := 0; i < 100; i++ {
		one.Add(2)
	}
	for x := 1.0; x < 1.5; x *= 1.01 {
		narrow.Add(x)
	}
	if one.bins != nil || one.Quantile(0.5) != 2 {
		t.Errorf("one repeated value: ring %d buckets, median %v", len(one.bins), one.Quantile(0.5))
	}
	for x := 1e-4; x < 1e4; x *= 1.05 {
		wide.Add(x)
		values = append(values, x)
	}
	if len(narrow.bins) != sketchMinBins {
		t.Errorf("narrow stream grew the ring to %d buckets", len(narrow.bins))
	}
	if len(wide.bins) != sketchMaxBins {
		t.Errorf("wide stream ended with a ring of %d buckets, want %d", len(wide.bins), sketchMaxBins)
	}
	for _, p := range []float64{50, 95, 99} {
		if got, want := wide.Quantile(p/100), Percentile(values, p); !withinAlpha(got, want) {
			t.Errorf("p%v = %v after growth, exact %v", p, got, want)
		}
	}
}

func TestSketchCloneIsIndependent(t *testing.T) {
	s := sketchOf([]float64{1, 2, 3})
	c := s.Clone()
	s.Add(100)
	if c.Count() != 3 || !withinAlpha(c.Quantile(1), 3) {
		t.Fatalf("clone saw the original's later value: count %d max %v", c.Count(), c.Quantile(1))
	}
}

// FuzzSketchMatchesSort checks the accuracy property and the exact
// merge on generated streams: a lognormal body of the fuzzed scale and
// spread, with fuzzed shares of ties and zeros.
func FuzzSketchMatchesSort(f *testing.F) {
	f.Add(uint64(1), uint16(100), int8(0), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(5000), int8(-7), uint8(8), uint8(50), uint8(10))
	f.Add(uint64(3), uint16(3), int8(4), uint8(0), uint8(0), uint8(90))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, scaleExp int8, spread, tiePct, zeroPct uint8) {
		if n == 0 || scaleExp < -7 || scaleExp > 4 {
			t.Skip()
		}
		g := sim.NewRNG(seed, 0)
		scale := math.Pow(10, float64(scaleExp))
		// C² up to 8 keeps the body's span well inside the ring.
		ln := dist.NewLognormal(scale, 0.1+float64(spread%8))
		values := make([]float64, n)
		var a, b Sketch
		for i := range values {
			switch r := g.IntN(100); {
			case r < int(zeroPct%100):
				values[i] = 0
			case r < int(zeroPct%100)+int(tiePct%100):
				values[i] = scale
			default:
				values[i] = ln.Sample(g)
			}
			if g.IntN(2) == 0 {
				a.Add(values[i])
			} else {
				b.Add(values[i])
			}
		}
		s := sketchOf(values)
		for _, p := range []float64{50, 95, 99, 100 * g.Float64()} {
			if got, want := s.Quantile(p/100), Percentile(values, p); !withinAlpha(got, want) {
				t.Fatalf("p%v = %v, exact %v", p, got, want)
			}
		}
		a.Merge(&b)
		sameBuckets(t, "merge", &a, s)
	})
}

func BenchmarkSketchAdd(b *testing.B) {
	var s Sketch
	g := sim.NewRNG(1, 0)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = g.ExpFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i&1023])
	}
}
