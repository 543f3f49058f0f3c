package sim

import (
	"math/bits"
	"math/rand/v2"
)

// RNG is a deterministic random stream. Every stochastic component of
// the simulator owns its own RNG derived from the experiment seed, so
// that changing one component (e.g. adding a disk) does not perturb the
// random draws of the others.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded with (seed, stream). Distinct stream
// ids produce statistically independent sequences.
func NewRNG(seed, stream uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(seed, stream))}
}

// Float64 returns a uniform variate in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform integer in [0,n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// ExpFloat64 returns an exponential variate with mean 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Fork derives an independent child stream; successive calls yield
// distinct streams. Useful when a component spawns sub-components
// dynamically (e.g. one stream per client).
func (g *RNG) Fork() *RNG {
	return &RNG{r: rand.New(rand.NewPCG(g.r.Uint64(), g.r.Uint64()))}
}

// Float64From converts one Uint64 draw to a uniform variate in [0,1)
// exactly as RNG.Float64 (math/rand/v2's Rand.Float64) converts the
// draw it consumes.
func Float64From(u uint64) float64 {
	return float64(u<<11>>11) / (1 << 53)
}

// ReverseStream yields the first n Uint64 draws of NewRNG(seed, stream)
// from last to first, so a consumer that only cares about the end of a
// stream can walk it backwards and stop early.
//
// It reproduces math/rand/v2's PCG: a 128-bit LCG, state ← state·mul +
// inc mod 2^128 with the state starting at (seed, stream) as (hi, lo),
// whose draw is the DXSM ("double xorshift multiply") output of the
// state just stepped to. The constructor jumps the LCG n steps ahead in
// O(log n) (Brown, "Random Number Generation with Arbitrary Strides",
// 1994); each Uint64 then outputs DXSM of the current state and steps
// back by the multiplier's inverse. TestReverseStreamMatchesForward
// pins it bit for bit against RNG, so a change of math/rand/v2's PCG
// fails that test. Nothing allocates.
type ReverseStream struct {
	s    u128 // state after the draw Uint64 returns next
	left int
}

// NewReverseStream returns the reverse of NewRNG(seed, stream)'s first
// n draws (n >= 0).
func NewReverseStream(seed, stream uint64, n int) ReverseStream {
	if n < 0 {
		panic("sim: negative ReverseStream length")
	}
	// Brown's jump: the n-step map is s ↦ mulN·s + incN.
	mulN, incN := u128{0, 1}, u128{}
	m, c := pcgMul, pcgInc
	for k := uint64(n); k > 0; k >>= 1 {
		if k&1 == 1 {
			mulN = mulN.mul(m)
			incN = incN.mul(m).add(c)
		}
		c = m.add(u128{0, 1}).mul(c)
		m = m.mul(m)
	}
	return ReverseStream{s: mulN.mul(u128{seed, stream}).add(incN), left: n}
}

// Left returns how many draws remain.
func (r *ReverseStream) Left() int { return r.left }

// Uint64 returns the latest draw not yet returned. It panics once all
// n draws have been returned.
func (r *ReverseStream) Uint64() uint64 {
	if r.left == 0 {
		panic("sim: ReverseStream exhausted")
	}
	r.left--
	out := dxsm(r.s)
	r.s = r.s.sub(pcgInc).mul(pcgMulInv)
	return out
}

// u128 is a 128-bit unsigned integer mod 2^128.
type u128 struct{ hi, lo uint64 }

func (a u128) mul(b u128) u128 {
	hi, lo := bits.Mul64(a.lo, b.lo)
	return u128{hi + a.hi*b.lo + a.lo*b.hi, lo}
}

func (a u128) add(b u128) u128 {
	lo, c := bits.Add64(a.lo, b.lo, 0)
	return u128{a.hi + b.hi + c, lo}
}

func (a u128) sub(b u128) u128 {
	lo, br := bits.Sub64(a.lo, b.lo, 0)
	return u128{a.hi - b.hi - br, lo}
}

// The constants of math/rand/v2's PCG.
var (
	pcgMul = u128{2549297995355413924, 4865540595714422341}
	pcgInc = u128{6364136223846793005, 1442695040888963407}
	// pcgMulInv·pcgMul = 1 mod 2^128. Newton's iteration x ← x(2 − mul·x)
	// doubles the correct low bits; an odd mul is its own inverse mod 8,
	// so six steps take 3 bits to 192.
	pcgMulInv = func() u128 {
		x := pcgMul
		for i := 0; i < 6; i++ {
			x = x.mul(u128{0, 2}.sub(pcgMul.mul(x)))
		}
		return x
	}()
)

// dxsm is math/rand/v2's PCG output function.
func dxsm(s u128) uint64 {
	const cheapMul = 0xda942042e4dd58b5
	hi := s.hi
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	return hi * (s.lo | 1)
}
