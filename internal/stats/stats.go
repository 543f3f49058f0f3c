// Package stats provides the statistical machinery the controller and
// the experiment harness rely on: streaming moments (Welford), squared
// coefficient of variation, confidence intervals, percentiles, batch
// means for steady-state simulation output, and simple linear
// regression (used to verify the paper's "min MPL grows linearly with
// the number of disks" claim).
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Accumulator tracks streaming count, mean and variance using Welford's
// algorithm, plus min/max. The zero value is ready to use.
type Accumulator struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += float64(delta * (x - a.mean))
}

// Count returns the number of observations.
func (a *Accumulator) Count() int64 { return a.n }

// Mean returns the sample mean (0 if empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 if n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// C2 returns the squared coefficient of variation Var/Mean² (0 if the
// mean is 0).
func (a *Accumulator) C2() float64 {
	if a.mean == 0 {
		return 0
	}
	return a.Variance() / (a.mean * a.mean)
}

// Min returns the smallest observation (0 if empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 if empty).
func (a *Accumulator) Max() float64 { return a.max }

// Sum returns n·mean.
func (a *Accumulator) Sum() float64 { return a.mean * float64(a.n) }

// Reset clears the accumulator.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// Merge combines another accumulator into a (parallel Welford merge).
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	mean := a.mean + delta*float64(b.n)/float64(n)
	m2 := a.m2 + b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n, a.mean, a.m2 = n, mean, m2
}

// CIHalfWidth returns the half-width of the confidence interval for the
// mean at the given confidence level (e.g. 0.95). It uses Student's t
// quantiles for small samples and the normal quantile beyond 30 degrees
// of freedom. Returns +Inf if n < 2 so that callers treating "CI narrow
// enough" as a gate keep waiting.
func (a *Accumulator) CIHalfWidth(confidence float64) float64 {
	if a.n < 2 {
		return math.Inf(1)
	}
	t := tQuantile(confidence, int(a.n-1))
	return t * a.StdDev() / math.Sqrt(float64(a.n))
}

// RelativeCIHalfWidth returns CIHalfWidth / |Mean|, or +Inf when the
// mean is 0 or the sample is too small.
func (a *Accumulator) RelativeCIHalfWidth(confidence float64) float64 {
	if a.mean == 0 {
		return math.Inf(1)
	}
	return a.CIHalfWidth(confidence) / math.Abs(a.mean)
}

// tQuantile returns the two-sided Student t critical value for the given
// confidence level and degrees of freedom. Tabulated for the common
// levels; interpolates on dof and falls back to the normal quantile for
// dof > 120.
func tQuantile(confidence float64, dof int) float64 {
	if dof < 1 {
		dof = 1
	}
	table, z := tTable95, 1.959964
	switch {
	case confidence >= 0.995:
		table, z = tTable99, 2.575829
	case confidence >= 0.985:
		table, z = tTable99, 2.575829
	case confidence >= 0.945:
		table, z = tTable95, 1.959964
	default:
		table, z = tTable90, 1.644854
	}
	if dof > 120 {
		return z
	}
	if dof <= len(table) {
		return table[dof-1]
	}
	// Interpolate between the last tabulated dof (30) and 120.
	last := table[len(table)-1]
	frac := float64(dof-len(table)) / float64(120-len(table))
	return last + frac*(z-last)
}

// Two-sided critical values for dof 1..30.
var tTable95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

var tTable99 = []float64{
	63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
	3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
	2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
}

var tTable90 = []float64{
	6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
	1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
	1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
}

// Percentile returns the p-th percentile (p in [0,100]) of values using
// linear interpolation between closest ranks. It sorts a copy; callers
// who own a scratch buffer can use PercentileInPlace instead.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := make([]float64, len(values))
	copy(v, values)
	return PercentileInPlace(v, p)
}

// PercentileInPlace is Percentile without the defensive copy: it
// reorders values in place and allocates nothing. Instead of sorting it
// selects the lo-th order statistic (Hoare's FIND, CACM 1961), which
// leaves every larger element after it, and takes the hi-th as the
// minimum of those. For NaN-free input the result is bit-identical to
// sorting, at expected linear cost.
func PercentileInPlace(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	if p <= 0 {
		return minOf(values)
	}
	if p >= 100 {
		return maxOf(values)
	}
	rank := p / 100 * float64(len(values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	selectNth(values, lo, 2*bits.Len(uint(len(values))))
	if lo == hi {
		return values[lo]
	}
	frac := rank - float64(lo)
	return values[lo]*(1-frac) + minOf(values[lo+1:])*frac
}

// selectNth reorders v so that v[k] holds the value sorting would put
// there, with nothing larger before it and nothing smaller after it.
// It partitions around a median-of-three pivot (Hoare's scheme, which
// splits runs of equal values evenly), narrowing to the side that holds
// k. After rounds partitions it sorts what is left, so adversarial
// input costs O(n log n) at worst.
func selectNth(v []float64, k, rounds int) {
	lo, hi := 0, len(v)-1
	for ; hi > lo; rounds-- {
		if rounds == 0 {
			sort.Float64s(v[lo : hi+1])
			return
		}
		a, b, c := v[lo], v[lo+(hi-lo)/2], v[hi]
		if a > b {
			a, b = b, a
		}
		pivot := max(a, min(b, c))
		i, j := lo, hi
		for i <= j {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// v[lo:j+1] <= pivot, v[i:hi+1] >= pivot, and anything
		// between equals pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// minOf returns the smallest of the non-empty values.
func minOf(values []float64) float64 {
	m := values[0]
	for _, x := range values[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// maxOf returns the largest of the non-empty values.
func maxOf(values []float64) float64 {
	m := values[0]
	for _, x := range values[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// MeanOf returns the mean of values (0 if empty).
func MeanOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range values {
		sum += x
	}
	return sum / float64(len(values))
}

// C2Of returns the squared coefficient of variation of values.
func C2Of(values []float64) float64 {
	var a Accumulator
	for _, x := range values {
		a.Add(x)
	}
	return a.C2()
}

// BatchMeans splits a steady-state output series into k batches and
// returns an accumulator over the batch means, the standard technique
// for confidence intervals on correlated simulation output. Trailing
// observations that do not fill a batch are dropped. k must be >= 2 and
// len(values) >= k.
type BatchMeans struct {
	Batches Accumulator
	Size    int
}

// NewBatchMeans computes batch means with k batches.
func NewBatchMeans(values []float64, k int) BatchMeans {
	if k < 2 || len(values) < k {
		return BatchMeans{}
	}
	size := len(values) / k
	var bm BatchMeans
	bm.Size = size
	for b := 0; b < k; b++ {
		sum := 0.0
		for i := b * size; i < (b+1)*size; i++ {
			sum += values[i]
		}
		bm.Batches.Add(sum / float64(size))
	}
	return bm
}

// LinearFit returns the least-squares slope, intercept, and R² of
// y ~ a + b·x. R² is 1 for a perfect fit; returns zeros for fewer than
// two points or zero x-variance.
func LinearFit(x, y []float64) (slope, intercept, r2 float64) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, 0
	}
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
	if den == 0 {
		return 0, 0, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return slope, intercept, 1
	}
	ssRes := 0.0
	for i := range x {
		e := y[i] - (intercept + slope*x[i])
		ssRes += e * e
	}
	r2 = 1 - ssRes/ssTot
	return slope, intercept, r2
}
