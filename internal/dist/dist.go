// Package dist provides the service-time and demand distributions the
// simulator and the analytic models share: deterministic, exponential,
// uniform, lognormal, and the two-phase hyperexponential (H2) used to
// match the first two moments of high-variability workloads (the
// paper's C² knob). All sampling is driven by an explicit *sim.RNG so
// runs stay deterministic under a fixed seed.
package dist

import (
	"fmt"
	"math"

	"extsched/internal/sim"
)

// Distribution is a nonnegative random variable with known first two
// moments. C2 is the squared coefficient of variation Var/Mean².
type Distribution interface {
	// Sample draws one variate using g.
	Sample(g *sim.RNG) float64
	// Mean returns the expectation.
	Mean() float64
	// C2 returns the squared coefficient of variation (0 for
	// deterministic, 1 for exponential).
	C2() float64
}

// Deterministic is a point mass.
type Deterministic struct{ v float64 }

// NewDeterministic returns the distribution that always yields v.
func NewDeterministic(v float64) Deterministic {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("dist: deterministic value %v must be finite and >= 0", v))
	}
	return Deterministic{v: v}
}

func (d Deterministic) Sample(*sim.RNG) float64 { return d.v }
func (d Deterministic) Mean() float64           { return d.v }
func (d Deterministic) C2() float64             { return 0 }

// Exponential has the given mean (C² = 1).
type Exponential struct{ mean float64 }

// NewExponential returns an exponential distribution with mean m.
func NewExponential(m float64) Exponential {
	if m <= 0 || math.IsNaN(m) || math.IsInf(m, 0) {
		panic(fmt.Sprintf("dist: exponential mean %v must be finite and > 0", m))
	}
	return Exponential{mean: m}
}

func (d Exponential) Sample(g *sim.RNG) float64 { return d.mean * g.ExpFloat64() }
func (d Exponential) Mean() float64             { return d.mean }
func (d Exponential) C2() float64               { return 1 }

// Uniform is continuous uniform on [Lo, Hi].
type Uniform struct{ lo, hi float64 }

// NewUniform returns a uniform distribution on [lo, hi].
func NewUniform(lo, hi float64) Uniform {
	if lo < 0 || hi < lo || math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(hi, 0) {
		panic(fmt.Sprintf("dist: uniform bounds [%v, %v] invalid", lo, hi))
	}
	return Uniform{lo: lo, hi: hi}
}

func (d Uniform) Sample(g *sim.RNG) float64 { return d.lo + float64(g.Float64()*(d.hi-d.lo)) }
func (d Uniform) Mean() float64             { return (d.lo + d.hi) / 2 }
func (d Uniform) C2() float64 {
	m := d.Mean()
	if m == 0 {
		return 0
	}
	v := (d.hi - d.lo) * (d.hi - d.lo) / 12
	return v / (m * m)
}

// Lognormal is parameterized by its mean and C² (not by the underlying
// normal's μ, σ), matching how trace generators specify variability.
type Lognormal struct {
	mean, c2  float64
	mu, sigma float64 // underlying normal parameters
}

// NewLognormal returns a lognormal with the given mean and squared
// coefficient of variation.
func NewLognormal(mean, c2 float64) Lognormal {
	if mean <= 0 || c2 <= 0 {
		panic(fmt.Sprintf("dist: lognormal mean %v and C² %v must be > 0", mean, c2))
	}
	sigma2 := math.Log(1 + c2)
	return Lognormal{
		mean:  mean,
		c2:    c2,
		mu:    math.Log(mean) - float64(sigma2/2),
		sigma: math.Sqrt(sigma2),
	}
}

func (d Lognormal) Sample(g *sim.RNG) float64 {
	return math.Exp(d.mu + float64(d.sigma*g.NormFloat64()))
}
func (d Lognormal) Mean() float64 { return d.mean }
func (d Lognormal) C2() float64   { return d.c2 }

// H2 is the two-phase hyperexponential: with probability P the variate
// is exponential with rate Mu1, otherwise rate Mu2. It is the analytic
// models' canonical high-variability (C² > 1) job-size distribution
// (Fig. 9's phase structure), and it also samples, so the simulator
// and the QBD/CTMC solvers consume the identical object.
type H2 struct {
	P        float64 // probability of phase 1
	Mu1, Mu2 float64 // phase rates
}

// NewH2 returns the hyperexponential with the given phase probability
// and rates. P may be 0 or 1 (degenerate single phase).
func NewH2(p, mu1, mu2 float64) H2 {
	if p < 0 || p > 1 || mu1 <= 0 || mu2 <= 0 {
		panic(fmt.Sprintf("dist: H2 parameters p=%v mu1=%v mu2=%v invalid", p, mu1, mu2))
	}
	return H2{P: p, Mu1: mu1, Mu2: mu2}
}

// FitH2 returns the balanced-means H2 matching the given mean and C².
// C² is clamped to be strictly greater than 1 (an H2 cannot represent
// less variability than an exponential), which keeps P strictly inside
// (0,1) as the matrix-geometric solver requires.
func FitH2(mean, c2 float64) H2 {
	if mean <= 0 {
		panic(fmt.Sprintf("dist: H2 mean %v must be > 0", mean))
	}
	const minC2 = 1 + 1e-9
	if c2 < minC2 {
		c2 = minC2
	}
	// Balanced means: each phase contributes half the mean.
	p := float64(0.5 * (1 + math.Sqrt((c2-1)/(c2+1))))
	return H2{P: p, Mu1: 2 * p / mean, Mu2: 2 * (1 - p) / mean}
}

func (d H2) Sample(g *sim.RNG) float64 {
	if g.Float64() < d.P {
		return g.ExpFloat64() / d.Mu1
	}
	return g.ExpFloat64() / d.Mu2
}

// Mean returns P/Mu1 + (1−P)/Mu2.
func (d H2) Mean() float64 { return d.P/d.Mu1 + (1-d.P)/d.Mu2 }

// C2 returns the squared coefficient of variation.
func (d H2) C2() float64 {
	m := d.Mean()
	if m == 0 {
		return 0
	}
	m2 := 2*d.P/(d.Mu1*d.Mu1) + 2*(1-d.P)/(d.Mu2*d.Mu2)
	return m2/(m*m) - 1
}
