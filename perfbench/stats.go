package main

import (
	"math"
	"sort"
)

// Summary is one timing distribution as the record reports it: the
// median with its quartiles, the tail percentile the sample supports, and
// the sample count.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailPct is the percentile reported as Tail: the highest rung of
	// tailLadder with at least tailBeyond samples above it (0 when the
	// sample is too small for any rung, and Tail is then the maximum).
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// tailLadder is the set of percentiles a tail may be reported at. A fixed
// ladder keeps the reported percentile identical across runs whose sample
// counts differ by a few percent, so their tails compare like for like.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to be a measurement rather than a single outlier.
const tailBeyond = 10

// quantile returns the q-quantile (0..1) of sorted values by linear
// interpolation between closest ranks (Hyndman-Fan type 7, the "inclusive"
// method of Python's statistics.quantiles), or NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailPercentile picks the highest ladder percentile with at least
// tailBeyond of n samples above it, or 0 when no rung qualifies.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= tailBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// summarize sorts a copy of values and reports its distribution, with the
// tail at the highest ladder percentile the sample supports.
func summarize(values []float64) Summary { return summarizeAt(values, 0) }

// summarizeAt reports the tail at percentile pct, a workload's fixed
// choice, while the sample has tailBeyond samples above it; a smaller
// sample falls back to the highest rung it supports.
func summarizeAt(values []float64, pct float64) Summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	out := Summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.Median = quantile(s, 0.5)
	out.Q1 = quantile(s, 0.25)
	out.Q3 = quantile(s, 0.75)
	out.TailPct = pct
	if pct <= 0 || float64(len(s))*(100-pct)/100 < tailBeyond-1e-9 {
		out.TailPct = tailPercentile(len(s))
	}
	if out.TailPct == 0 {
		out.Tail = s[len(s)-1]
	} else {
		out.Tail = quantile(s, out.TailPct/100)
	}
	return out
}

// ratio divides a by b, reporting 0 for a zero base: a layer that saw no
// work has no rate, and the record must stay valid JSON (no NaN or Inf).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of values (0 for an empty sample).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return summarize(values).Median
}
