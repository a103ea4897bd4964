package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// epochMedians reduces every epoch to the median of its own samples;
// epochs without samples (every operation failed) carry no vote. More
// samples inside an epoch cannot hide the per-session offset (heap
// layout, goroutine placement) that more epochs expose — see README
// "Noise post-mortem".
func epochMedians(epochs [][]float64) []float64 {
	meds := make([]float64, 0, len(epochs))
	for _, e := range epochs {
		if len(e) > 0 {
			meds = append(meds, median(e))
		}
	}
	return meds
}

// medianOfEpochs is the estimator of the ratio and memory metrics: the
// median over epochs of the epoch medians.
func medianOfEpochs(epochs [][]float64) float64 { return median(epochMedians(epochs)) }

// bestOfEpochs is the estimator of the timing metrics: the best epoch
// median — the lowest, or the highest where higher is better. On a
// shared host interference only ever slows an epoch down, in episodes
// that last from milliseconds to minutes, so the least disturbed epoch
// says most about the code; between runs of the same build it agreed to
// 1.7–3.2 % where the median over epochs agreed to 2.5–7.5 %.
func bestOfEpochs(epochs [][]float64, higherIsBetter bool) float64 {
	meds := epochMedians(epochs)
	if len(meds) == 0 {
		return 0
	}
	best := meds[0]
	for _, m := range meds[1:] {
		if (m > best) == higherIsBetter {
			best = m
		}
	}
	return best
}

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// highPercentile returns the highest of p99, p95, p90, p75 and p50, not
// above maxPct, that still has at least tailBeyond samples beyond it,
// with its nearest-rank value. With fewer than 2·tailBeyond samples
// nothing qualifies and it returns pct 0 and the sample maximum.
func highPercentile(xs []float64, maxPct int) (pct int, v float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []int{99, 95, 90, 75, 50} {
		if p > maxPct {
			continue
		}
		rank := (p*len(s) + 99) / 100 // 1-based nearest rank, ⌈p·n/100⌉
		if len(s)-rank >= tailBeyond {
			return p, s[rank-1]
		}
	}
	return 0, s[len(s)-1]
}

// aFirst fixes the order of an interleaved A/B pair: A runs first in
// even epochs and second in odd ones, so drift inside an epoch (cache
// warmth, heap growth) is charged to each side equally over a run.
func aFirst(epoch int) bool { return epoch%2 == 0 }

// runAB runs a and b once each in the order aFirst gives for the epoch.
func runAB(epoch int, a, b func()) {
	if aFirst(epoch) {
		a()
		b()
	} else {
		b()
		a()
	}
}

// perOp times count back-to-back calls of fn as one batch and returns
// seconds per call. Sub-millisecond operations are only ever timed this
// way (count chosen so a batch lasts ≥ 20 ms on the reference host): a
// single time.Now pair around a 1 µs call measures the clock.
func perOp(count int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < count; i++ {
		fn(i)
	}
	return time.Since(start).Seconds() / float64(count)
}

// quartileSpread is (Q3−Q1)/median with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), the spread
// the acceptance driver computes over ten runs.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}
