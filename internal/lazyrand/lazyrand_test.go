package lazyrand

import (
	"math"
	"math/rand"
	"testing"
)

// drawMix advances both generators through n mixed calls and fails on
// the first differing value. The mix covers every Rand method the
// simulator uses, each consuming a different number of source draws.
func drawMix(t *testing.T, seed int64, lazy, ref *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var got, want uint64
		switch i % 6 {
		case 0:
			got, want = uint64(lazy.Int63n(1000)), uint64(ref.Int63n(1000))
		case 1:
			got, want = uint64(lazy.Intn(1<<40+7)), uint64(ref.Intn(1<<40+7))
		case 2:
			got, want = math.Float64bits(lazy.Float64()), math.Float64bits(ref.Float64())
		case 3:
			got, want = lazy.Uint64(), ref.Uint64()
		case 4:
			gp, wp := lazy.Perm(5), ref.Perm(5)
			for j := range gp {
				if gp[j] != wp[j] {
					t.Fatalf("seed %d call %d: Perm = %v, want %v", seed, i, gp, wp)
				}
			}
		case 5:
			got, want = uint64(lazy.Int63()), uint64(ref.Int63())
		}
		if got != want {
			t.Fatalf("seed %d call %d: got %d, want %d", seed, i, got, want)
		}
	}
}

// checkRaw compares the raw source streams draw by draw over n draws,
// so a mismatch names the exact draw index.
func checkRaw(t *testing.T, seed int64, n int) {
	t.Helper()
	lazy := NewSource(seed)
	ref := rand.NewSource(seed).(rand.Source64)
	for k := 1; k <= n; k++ {
		if got, want := lazy.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, k, got, want)
		}
	}
}

var testSeeds = []int64{
	0, 1, 2, 7, 42, -1, -7919, math.MinInt64, math.MaxInt64,
	lehmerM, -lehmerM, 2 * lehmerM, 5 * lehmerM, // ≡ 0: the zeroSeed substitution
	lehmerM - 1, lehmerM + 1, 1 << 31, 1<<32 + 3, 1<<40 + 12345, 1 << 62,
	zeroSeed,
}

func TestSourceMatchesMathRand(t *testing.T) {
	// Draw counts straddle the last tap fill (273), the last feed fill
	// (334) and one full turn of the state (607).
	counts := []int{0, 1, 2, 272, 273, 274, 333, 334, 335, 606, 607, 608, 2000}
	for i, seed := range testSeeds {
		reseed := testSeeds[(i+1)%len(testSeeds)]
		for _, n := range counts {
			checkRaw(t, seed, n)
			lazy, ref := New(seed), rand.New(rand.NewSource(seed))
			drawMix(t, seed, lazy, ref, n)
			// Reseed a source left fresh, mid-fill or past the fill.
			lazy.Seed(reseed)
			ref.Seed(reseed)
			drawMix(t, reseed, lazy, ref, 700)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range testSeeds {
		f.Add(seed, uint16(700), int64(9))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, reseed int64) {
		lazy, ref := New(seed), rand.New(rand.NewSource(seed))
		drawMix(t, seed, lazy, ref, int(n%1500))
		lazy.Seed(reseed)
		ref.Seed(reseed)
		drawMix(t, reseed, lazy, ref, 700)
	})
}

// BenchmarkSeedAndDraw2 measures what a simulated statement pays for its
// execution RNG: reseed a pooled generator, then draw two values. On a
// 2-core Xeon, lazy runs at about 34 ns/op and mathrand at 11.4 µs/op:
// roughly 330x over math/rand.
func BenchmarkSeedAndDraw2(b *testing.B) {
	for _, bc := range []struct {
		name string
		r    *rand.Rand
	}{
		{"lazy", New(1)},
		{"mathrand", rand.New(rand.NewSource(1))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sink int64
			seed := int64(0)
			for b.Loop() {
				seed++
				bc.r.Seed(seed)
				sink += bc.r.Int63n(1000) + bc.r.Int63n(1000)
			}
			benchSink = sink
		})
	}
}

var benchSink int64
