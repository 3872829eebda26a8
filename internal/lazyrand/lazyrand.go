// Package lazyrand provides a math/rand source that produces exactly the
// stream of rand.NewSource(seed) but seeds in constant time.
//
// math/rand's source is an additive lagged-Fibonacci generator over 607
// words. Seeding it fills every word: 1,841 steps of the Lehmer
// generator x' = 48271·x mod (2³¹−1), three steps per word XORed with a
// fixed "cooked" table. A simulated statement reseeds a source and draws
// a handful of values, so that fill is nearly all of the cost.
//
// Source defers the fill. The Lehmer sequence has the closed form
// xₙ = seed·48271ⁿ mod (2³¹−1), so state word i is
//
//	x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i]
//
// and a power table makes it three modular multiplies. Draw k (counting
// from 1 after a seed) reads feed word 334−k and tap word 607−k and
// writes the feed word. A feed word is read for the first time for
// k ≤ 334 and a tap word for k ≤ 273; from draw 335 on, every word a draw
// reads has been filled, so the source runs exactly like math/rand's.
//
// math/rand does not export the cooked table. It is recovered at init by
// inverting the first 607 outputs of rand.NewSource(1).
package lazyrand

import "math/rand"

const (
	rngLen  = 607             // state words
	rngTap  = 273             // lag between the feed and tap indices
	rngFeed = rngLen - rngTap // feed index right after a seed
	lehmerA = 48271           // Lehmer multiplier
	lehmerM = 1<<31 - 1       // Lehmer modulus, prime
	// zeroSeed replaces a seed ≡ 0 mod lehmerM, as math/rand does.
	zeroSeed = 89482311
	// lastPow is the highest Lehmer exponent a state word uses:
	// 23+3·(rngLen−1).
	lastPow = 23 + 3*(rngLen-1)
)

var (
	// pow[n] = lehmerAⁿ mod lehmerM.
	pow [lastPow + 1]uint64
	// cooked is math/rand's rngCooked table.
	cooked [rngLen]uint64
)

func init() {
	pow[0] = 1
	for n := 1; n <= lastPow; n++ {
		pow[n] = pow[n-1] * lehmerA % lehmerM
	}

	// o[k] is draw k of seed 1; v is the state those draws started from.
	// Draw k adds feed word 334−k to tap word 607−k (indices mod 607) and
	// stores the sum in the feed word, so each v[i] is an output minus a
	// word already known.
	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		o[k] = src.Uint64()
	}
	var v [rngLen]uint64
	for k := rngFeed + 1; k <= rngLen; k++ {
		v[rngLen+rngFeed-k] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngFeed-k] = o[k] - v[rngLen-k]
	}
	for k := rngTap + 1; k <= rngFeed; k++ {
		v[rngFeed-k] = o[k] - o[k-rngTap]
	}
	for i := range cooked {
		cooked[i] = v[i] ^ lehmerWord(1, i)
	}
}

// lehmerWord is the Lehmer part of state word i for normalized seed s.
func lehmerWord(s uint64, i int) uint64 {
	n := 21 + 3*i
	return s*pow[n]%lehmerM<<40 ^ s*pow[n+1]%lehmerM<<20 ^ s*pow[n+2]%lehmerM
}

// Source is a rand.Source64 whose stream equals rand.NewSource(seed)'s
// for every seed. Build one with New or NewSource: the zero Source is
// unseeded. It is not safe for concurrent use.
type Source struct {
	tap, feed int
	drawn     int    // draws since the seed, counted up to rngFeed
	seed      uint64 // normalized seed in [1, lehmerM)
	vec       [rngLen]uint64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// New returns a rand.Rand over a Source seeded with seed: the same
// stream as rand.New(rand.NewSource(seed)). Rand.Seed reseeds it, again
// in constant time.
func New(seed int64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
// The state words are filled later, as draws first read them.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngFeed
	s.drawn = 0
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < rngFeed {
		s.drawn++
		s.vec[s.feed] = lehmerWord(s.seed, s.feed) ^ cooked[s.feed]
		if s.drawn <= rngTap {
			s.vec[s.tap] = lehmerWord(s.seed, s.tap) ^ cooked[s.tap]
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value of the stream with its top bit cleared.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}
