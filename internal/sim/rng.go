package sim

import (
	"math"
	"math/bits"
	"math/rand"
)

// RNG is the deterministic random source for a simulation run. It wraps
// math/rand with the distributions the workloads need. All components of
// one run must draw from the same RNG (via Env.Rand) so that a run is a
// pure function of its seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Uint64 returns a uniformly random 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Intn returns a uniform int in [0, n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Bound is Intn precomputed for one fixed n: the rejection bound and
// the multiply-high remainder of Lemire, Kaser & Kurz ("Faster
// remainder by direct computation", 2019), so a draw divides nothing.
type Bound struct {
	n   uint64
	max int32  // largest Int31 draw Intn keeps; it draws again above it
	m   uint64 // ⌊(2⁶⁴−1)/n⌋+1 mod 2⁶⁴; v mod n is the high word of (m·v mod 2⁶⁴)·n
}

// NewBound precomputes Intn(n) for n in [1, 2³¹−1]; any other n
// panics, as Intn(0) does.
func NewBound(n int) Bound {
	if n < 1 || n > math.MaxInt32 {
		panic("sim: invalid argument to NewBound")
	}
	return Bound{n: uint64(n), max: int32(1<<31 - 1 - (1<<31)%uint32(n)), m: math.MaxUint64/uint64(n) + 1}
}

// Draw returns exactly what Intn(n) returns for b = NewBound(n), and
// consumes the same source values.
func (g *RNG) Draw(b Bound) int {
	v := g.r.Int31()
	for v > b.max {
		v = g.r.Int31()
	}
	hi, _ := bits.Mul64(b.m*uint64(v), b.n)
	return int(hi)
}

// Int63n returns a uniform int64 in [0, n). n must be > 0.
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Exp returns an exponentially distributed duration with the given mean.
// It is the inter-arrival generator for the open-loop Poisson load.
func (g *RNG) Exp(mean Time) Time {
	d := Time(g.r.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, truncated below at min.
func (g *RNG) Normal(mean, stddev float64, min float64) float64 {
	v := g.r.NormFloat64()*stddev + mean
	if v < min {
		v = min
	}
	return v
}

// Zipf returns a generator of Zipf-distributed values in [0, n) with
// exponent s (> 1). Useful for skewed key popularity.
func (g *RNG) Zipf(s float64, n uint64) *rand.Zipf {
	return rand.NewZipf(g.r, s, 1, n-1)
}
