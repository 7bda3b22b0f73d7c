package sim

import "math/rand"

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
