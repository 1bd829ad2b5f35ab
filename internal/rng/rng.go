// Package rng provides a small deterministic PRNG (SplitMix64) shared by
// the simulator and workload generators. All randomness in the repository
// flows through explicit seeds so every experiment is reproducible.
package rng

import "math"

// Source is a SplitMix64 generator. The zero value is usable but callers
// should prefer New with an explicit seed.
type Source struct{ state uint64 }

// New returns a generator seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in (0,1).
func (s *Source) Float64() float64 {
	return (float64(s.Uint64()>>11) + 0.5) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*s.Float64()) // float64(): no fused multiply-add
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Norm returns a standard normal deviate (Box-Muller).
func (s *Source) Norm() float64 {
	u1, u2 := s.Float64(), s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Exp returns an exponential deviate with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return -mean * math.Log(s.Float64())
}

// Derive mixes a root seed, a stream salt and an index (a node, a shard,
// a retry attempt) into an independent stream seed: one SplitMix64
// scramble of their XOR. Streams keyed this way replay identically
// however their draws interleave with other streams'.
func Derive(seed, salt uint64, i int) uint64 {
	return New(seed ^ salt*0x9e3779b97f4a7c15 ^ (uint64(i)+1)*0xbf58476d1ce4e5b9).Uint64()
}

// Backoff returns the delay before retry attempt (1-based; lower values
// count as 1): base doubled per attempt and capped at limit, stretched by
// a jitter of up to jitter×delay drawn from Derive(seed, salt, attempt).
// The jitter is stateless, so a retry schedule replays byte-identically
// whatever else ran in between.
func Backoff(seed, salt uint64, attempt int, base, limit, jitter float64) float64 {
	if attempt < 1 {
		attempt = 1
	}
	d := base * math.Pow(2, float64(attempt-1))
	if d > limit {
		d = limit
	}
	u := New(Derive(seed, salt, attempt)).Float64()
	return d * (1 + float64(jitter*u)) // float64(): no fused multiply-add
}
