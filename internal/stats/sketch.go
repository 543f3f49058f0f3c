package stats

import "math"

// SketchAlpha is the relative accuracy of every Sketch quantile: a
// reported order statistic lies within SketchAlpha of the true one
// (for ranks above a collapsed low range, see Sketch).
const SketchAlpha = 0.01

// The bucket ring holds a power-of-two number of buckets, so a bucket
// index maps to its slot with a mask. It starts at sketchMinBins (512
// bytes) and doubles as the data's span needs, up to sketchMaxBins; at
// SketchAlpha that covers a max/min ratio of about 8·10⁸ at full
// accuracy.
const (
	sketchMinBins = 64
	sketchMaxBins = 1024
)

var (
	sketchLogGamma = math.Log((1 + SketchAlpha) / (1 - SketchAlpha))
	sketchInvLog   = 1 / sketchLogGamma
	// sketchMid turns a bucket's upper bound γ^k into the value within
	// SketchAlpha of everything in (γ^(k-1), γ^k]: 2γ^k/(1+γ).
	sketchMid = 2 / (1 + math.Exp(sketchLogGamma))
	// sketchOctave is log_γ 2, and sketchLog[j] is log_γ(1 + j/1024):
	// the edges of 1,024 equal slices of a mantissa in [1, 2).
	sketchOctave = math.Ln2 * sketchInvLog
	sketchLog    = func() (t [1025]float64) {
		for j := range t {
			t[j] = math.Log1p(float64(j)/1024) * sketchInvLog
		}
		return t
	}()
)

// Sketch is a mergeable, relative-error quantile sketch of a stream of
// non-negative values: DDSketch (Masson, Rim and Lee, VLDB 2019), the
// log-bucketed idea HdrHistogram also uses. A positive x lands in
// bucket ⌈log_γ x⌉, γ = (1+α)/(1-α); zero and negative values share
// one zero bucket. While every value shares one bucket the sketch needs
// no storage; the second bucket allocates a ring, which grows (at most
// four times) until it spans the data or reaches sketchMaxBins. Reset
// keeps the ring, so a window that is reset and refilled with like
// data allocates nothing. When the data spans more than sketchMaxBins
// buckets, the lowest buckets collapse into the lowest one kept: every
// value lands in bucket max(k, hi-sketchMaxBins+1), where hi is the
// highest bucket seen. That rule does not depend on the order values
// arrive in, so Merge is exact: merging two sketches gives, bucket for
// bucket, the sketch of the union. The sketch also keeps the exact
// minimum and maximum and clamps quantiles to them, so a stream of one
// repeated value reads back exactly. No randomness is involved.
//
// The zero value is an empty sketch. A copy shares its buckets with the
// original; use Clone for an independent one.
type Sketch struct {
	zero     uint64 // values <= 0
	n        uint64 // values in the buckets
	min, max float64
	// lo and hi are the lowest and highest touched bucket indexes
	// (meaningful when n > 0). Ring slots outside [lo, hi] are zero.
	// With no ring, all n values are in bucket lo == hi.
	lo, hi int
	bins   []uint64 // bucket k at bins[k&(len(bins)-1)]
}

// Add records one value (finite; zero or negative counts as 0).
func (s *Sketch) Add(x float64) {
	if !(x > 0) {
		x = 0
	}
	s.extend(x, x)
	if x == 0 {
		s.zero++
		return
	}
	s.add(sketchIndex(x), 1)
}

// sketchIndex returns x's bucket, ⌈log_γ x⌉, for x > 0. Most values
// skip the logarithm: for x = 2^e·m, the table edges of m's slice bound
// log_γ x, and when both lie inside one bucket, 1e-9 clear of its edges
// (far above either path's rounding error), that is x's bucket.
func sketchIndex(x float64) int {
	b := math.Float64bits(x)
	if e := int(b>>52) - 1023; e > -1023 {
		j := b >> 42 & 1023
		base := float64(e) * sketchOctave
		lo, hi := base+sketchLog[j], base+sketchLog[j+1]
		if f := math.Floor(lo); lo-f > 1e-9 && hi-f < 1-1e-9 {
			return int(f) + 1
		}
	}
	return int(math.Ceil(math.Log(x) * sketchInvLog))
}

// extend widens the recorded range to cover [lo, hi].
func (s *Sketch) extend(lo, hi float64) {
	if s.Count() == 0 {
		s.min, s.max = lo, hi
		return
	}
	s.min, s.max = min(s.min, lo), max(s.max, hi)
}

// add puts c values into bucket k, collapsing the low end as the ring
// demands.
func (s *Sketch) add(k int, c uint64) {
	switch {
	case s.n == 0:
		s.lo, s.hi = k, k
	case k > s.hi:
		s.fit(k - s.lo + 1)
		// Fold every bucket that falls off the ring's low end into
		// the new lowest bucket, floor.
		floor := k - sketchMaxBins + 1
		if floor > s.lo {
			m := len(s.bins) - 1
			var moved uint64
			for i := s.lo; i <= min(s.hi, floor-1); i++ {
				moved += s.bins[i&m]
				s.bins[i&m] = 0
			}
			s.bins[floor&m] += moved
			s.lo = floor
		}
		s.hi = k
	case k < s.lo:
		k = max(k, s.hi-sketchMaxBins+1)
		s.fit(s.hi - k + 1)
		s.lo = k
	}
	if s.bins != nil {
		s.bins[k&(len(s.bins)-1)] += c
	}
	s.n += c
}

// fit grows the ring, keeping every bucket, until it holds span
// buckets or sketchMaxBins; a sketch without one gets one.
func (s *Sketch) fit(span int) {
	n := len(s.bins)
	if s.bins != nil && (span <= n || n == sketchMaxBins) {
		return
	}
	n = max(n, sketchMinBins)
	for n < span && n < sketchMaxBins {
		n *= 2
	}
	bins := make([]uint64, n)
	for k := s.lo; k <= s.hi; k++ {
		bins[k&(n-1)] = s.bucket(k)
	}
	s.bins = bins
}

// bucket returns bucket k's count, for k in [lo, hi].
func (s *Sketch) bucket(k int) uint64 {
	if s.bins == nil {
		return s.n
	}
	return s.bins[k&(len(s.bins)-1)]
}

// Count returns the number of values recorded.
func (s *Sketch) Count() uint64 { return s.zero + s.n }

// Merge adds every value of o into s, bucket by bucket.
func (s *Sketch) Merge(o *Sketch) {
	if o.Count() == 0 {
		return
	}
	s.extend(o.min, o.max)
	s.zero += o.zero
	if o.n == 0 {
		return
	}
	// Top down, so s's ring moves up at most once.
	for k := o.hi; k >= o.lo; k-- {
		if c := o.bucket(k); c != 0 {
			s.add(k, c)
		}
	}
}

// Reset empties the sketch. It keeps the bucket ring and clears only
// the buckets that were touched.
func (s *Sketch) Reset() {
	if s.n > 0 && s.bins != nil {
		m := len(s.bins) - 1
		for k := s.lo; k <= s.hi; k++ {
			s.bins[k&m] = 0
		}
	}
	*s = Sketch{bins: s.bins}
}

// Clone returns an independent copy of s.
func (s *Sketch) Clone() Sketch {
	c := *s
	if s.bins != nil {
		c.bins = append([]uint64(nil), s.bins...)
	}
	return c
}

// Quantile returns the q-th quantile (q in [0,1]) of the recorded
// values, 0 when there are none. Like Percentile it interpolates
// linearly between the order statistics of ranks ⌊q(n-1)⌋ and
// ⌈q(n-1)⌉; each comes from its bucket, within SketchAlpha of the
// exact value.
func (s *Sketch) Quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * float64(total-1)
	lo := uint64(rank)
	v := s.orderStat(lo)
	if frac := rank - float64(lo); frac > 0 {
		v += frac * (s.orderStat(lo+1) - v)
	}
	return v
}

// orderStat returns the bucket value of the r-th smallest value
// (0-based), clamped to the recorded range.
func (s *Sketch) orderStat(r uint64) float64 {
	if r < s.zero {
		return 0
	}
	cum, k := s.zero, s.lo
	for ; k < s.hi; k++ {
		if cum += s.bucket(k); cum > r {
			break
		}
	}
	return min(max(sketchValue(k), s.min), s.max)
}

// sketchValue is bucket k's representative value.
func sketchValue(k int) float64 {
	return math.Exp(float64(k)*sketchLogGamma) * sketchMid
}
