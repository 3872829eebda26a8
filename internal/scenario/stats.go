package scenario

import (
	"fmt"
	"math"
	"sort"

	"compilegate/internal/lazyrand"
)

// This file is the replication stats core: summary statistics and
// bootstrap percentile confidence intervals over per-seed samples.
// Everything is deterministic — the bootstrap resampler runs on a
// seeded generator — so a claims test that passes once passes always,
// and a re-run reproduces the interval bit for bit.

// Mean returns the arithmetic mean of xs (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the sample median (0 for an empty sample).
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" estimator, what R and NumPy default
// to). q is clamped to [0, 1]; an empty sample yields 0.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Interval is a closed confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Summary condenses one metric's per-seed samples: point statistics
// plus a bootstrap percentile confidence interval for the mean.
type Summary struct {
	// N is the sample (seed) count.
	N int
	// Mean/Median/Min/Max are point statistics of the sample.
	Mean, Median, Min, Max float64
	// CI is the bootstrap percentile confidence interval for the mean
	// at Confidence.
	CI Interval
	// Confidence is the nominal coverage of CI (e.g. 0.95).
	Confidence float64
}

// String renders the summary the way the claims tables print it.
func (s Summary) String() string {
	return fmt.Sprintf("mean %.3f, median %.3f, range [%.3f, %.3f], %d%% CI [%.3f, %.3f], n=%d",
		s.Mean, s.Median, s.Min, s.Max, int(s.Confidence*100), s.CI.Lo, s.CI.Hi, s.N)
}

// bootstrapResamples is the resample count behind every interval. Large
// enough that the percentile endpoints are stable to well under the
// band widths the claims assert; small enough to be free next to even
// one simulation run.
const bootstrapResamples = 4000

// BootstrapCI returns the percentile bootstrap confidence interval for
// the mean of xs at the given confidence level: resample xs with
// replacement bootstrapResamples times on a generator seeded with seed,
// take the mean of each resample, and report the matching percentile
// range of those means. No distributional assumptions — the samples
// are whatever the simulations produced. A sample of size <= 1 yields
// a degenerate interval at its own value.
func BootstrapCI(xs []float64, confidence float64, seed int64) Interval {
	if len(xs) == 0 {
		return Interval{}
	}
	if len(xs) == 1 {
		return Interval{Lo: xs[0], Hi: xs[0]}
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	rng := lazyrand.New(seed)
	means := make([]float64, bootstrapResamples)
	for b := range means {
		var sum float64
		for i := 0; i < len(xs); i++ {
			sum += xs[rng.Intn(len(xs))]
		}
		means[b] = sum / float64(len(xs))
	}
	alpha := (1 - confidence) / 2
	return Interval{
		Lo: Quantile(means, alpha),
		Hi: Quantile(means, 1-alpha),
	}
}

// Summarize builds the Summary of xs with a bootstrap CI at the given
// confidence. The resampler's seed is derived from the sample itself,
// so identical samples always carry identical intervals regardless of
// which test computed them.
func Summarize(xs []float64, confidence float64) Summary {
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	s := Summary{N: len(xs), Confidence: confidence}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.Median = Median(xs)
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs[1:] {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.CI = BootstrapCI(xs, confidence, sampleSeed(xs))
	return s
}

// sampleSeed hashes the sample into the bootstrap generator seed —
// deterministic, but decorrelated across different samples.
func sampleSeed(xs []float64) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, x := range xs {
		b := math.Float64bits(x)
		for i := 0; i < 64; i += 8 {
			h ^= (b >> i) & 0xff
			h *= prime64
		}
	}
	return int64(h &^ (1 << 63))
}
