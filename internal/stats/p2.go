package stats

import "sort"

// P2 is the Jain–Chlamtac P² (P-squared) streaming quantile estimator:
// one target quantile tracked in O(1) memory — five markers, no stored
// samples, no randomness. It is the bounded-memory alternative to a
// per-stream Reservoir when a fleet carries thousands of streams
// (N>=1000 shards each wanting a p95): a Reservoir costs O(k) floats
// per stream, a P2 costs exactly five.
//
// The estimator is deterministic: equal observation sequences yield
// equal estimates, so it is safe anywhere the simulator's bit-identical
// rerun guarantee applies.
type P2 struct {
	p float64
	// q are the marker heights (estimates of the 0, p/2, p, (1+p)/2, 1
	// quantiles), n their integer positions, np their desired positions,
	// dn the desired-position increments.
	q  [5]float64
	n  [5]int
	np [5]float64
	dn [5]float64
	// count is the number of observations so far; the first five are
	// buffered in q until the markers initialize.
	count int64
}

// NewP2 tracks the q-th quantile, q in (0,1) — e.g. 0.95 for a p95.
func NewP2(quantile float64) *P2 {
	if quantile <= 0 || quantile >= 1 {
		panic("stats: P2 quantile must be in (0,1)")
	}
	e := &P2{p: quantile}
	e.dn = [5]float64{0, quantile / 2, quantile, (1 + quantile) / 2, 1}
	return e
}

// Quantile returns the tracked quantile's current estimate (0 with no
// observations; with fewer than five it is exact, computed from the
// buffered values).
func (e *P2) Quantile() float64 {
	if e.count == 0 {
		return 0
	}
	if e.count < 5 {
		buf := make([]float64, e.count)
		copy(buf, e.q[:e.count])
		return PercentileInPlace(buf, e.p*100)
	}
	return e.q[2]
}

// Count returns the number of observations offered.
func (e *P2) Count() int64 { return e.count }

// Reset clears the estimator, keeping its quantile.
func (e *P2) Reset() {
	q := e.p
	*e = P2{p: q}
	e.dn = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
}

// Add offers one observation.
func (e *P2) Add(x float64) {
	if e.count < 5 {
		e.q[e.count] = x
		e.count++
		if e.count == 5 {
			sort.Float64s(e.q[:])
			for i := range e.n {
				e.n[i] = i
				e.np[i] = float64(i)
			}
			// Desired positions advance by dn per observation from here.
			e.np = [5]float64{0, 2 * e.p, 4 * e.p, 2 + 2*e.p, 4}
		}
		return
	}
	e.count++

	// Find the cell k with q[k] <= x < q[k+1], adjusting extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}

	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := range e.np {
		e.np[i] += e.dn[i]
	}

	// Adjust the three interior markers toward their desired positions
	// with the piecewise-parabolic (P²) update, falling back to linear
	// when the parabola would cross a neighbor.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - float64(e.n[i])
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1
			if d < 0 {
				s = -1
			}
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

// parabolic is the P² quadratic interpolation for marker i moving by
// sign s.
func (e *P2) parabolic(i, s int) float64 {
	fs := float64(s)
	ni := float64(e.n[i])
	nm := float64(e.n[i-1])
	np := float64(e.n[i+1])
	return e.q[i] + fs/(np-nm)*((ni-nm+fs)*(e.q[i+1]-e.q[i])/(np-ni)+(np-ni-fs)*(e.q[i]-e.q[i-1])/(ni-nm))
}

// linear is the fallback interpolation toward the neighbor in
// direction s.
func (e *P2) linear(i, s int) float64 {
	return e.q[i] + float64(s)*(e.q[i+s]-e.q[i])/float64(e.n[i+s]-e.n[i])
}
