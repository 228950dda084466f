// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout simevo.
//
// Reproducibility is a hard requirement for the experiments in this
// repository: the serial and Type I parallel SimE runs must follow the exact
// same search trajectory for the same seed, and every parallel rank needs an
// independent stream that is a pure function of (seed, rank). The standard
// library's math/rand global state is unsuitable for that, so this package
// implements a small PCG-XSH-RR 64/32 generator (O'Neill 2014) with explicit
// stream selection and deterministic splitting.
package rng

import "math/bits"

const pcgMult = 6364136223846793005

// R is a deterministic random number generator. It is not safe for
// concurrent use; give each goroutine its own stream via Split or NewStream.
type R struct {
	state uint64
	inc   uint64 // stream selector; always odd
}

// New returns a generator seeded with seed on the default stream.
func New(seed uint64) *R {
	return NewStream(seed, 0)
}

// NewStream returns a generator on an explicit stream. Generators with the
// same seed but different streams produce statistically independent
// sequences; this is how per-rank substreams are derived.
func NewStream(seed, stream uint64) *R {
	r := &R{state: 0, inc: stream<<1 | 1}
	r.Uint32()
	r.state += seed
	r.Uint32()
	return r
}

// Clone returns an independent generator in r's current state: both
// produce the same sequence from here on.
func (r *R) Clone() *R {
	c := *r
	return &c
}

// Split derives a child generator whose future output is independent of the
// parent's. The parent advances by two steps; repeated splits yield distinct
// children.
func (r *R) Split() *R {
	seed := r.Uint64()
	stream := r.Uint64()
	return NewStream(seed, stream)
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *R) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := int(old >> 59)
	return bits.RotateLeft32(xorshifted, -rot)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *R) Uint64() uint64 {
	hi := uint64(r.Uint32())
	lo := uint64(r.Uint32())
	return hi<<32 | lo
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *R) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
// Modulo bias is removed by rejection sampling.
func (r *R) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint64(n)
	// Largest multiple of bound that fits in 64 bits.
	limit := ^uint64(0) - ^uint64(0)%bound
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *R) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, via the
// Fisher-Yates algorithm.
func (r *R) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli reports true with probability p.
func (r *R) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli(p) trials; p must be in (0, 1]. The result is capped
// at max to keep pathological draws bounded.
func (r *R) Geometric(p float64, max int) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric called with p <= 0")
	}
	n := 0
	for n < max && !r.Bernoulli(p) {
		n++
	}
	return n
}

// Pick returns a uniformly chosen index weighted by w (all weights must be
// non-negative, with a positive sum).
func (r *R) Pick(w []float64) int {
	var sum float64
	for _, v := range w {
		sum += v
	}
	if sum <= 0 {
		panic("rng: Pick called with non-positive weight sum")
	}
	target := r.Float64() * sum
	acc := 0.0
	for i, v := range w {
		acc += v
		if target < acc {
			return i
		}
	}
	return len(w) - 1
}
