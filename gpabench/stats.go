package main

import (
	"fmt"
	"math"
	"sort"
)

// percentileLadder lists the percentiles a tail latency may be reported
// at, highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// rankOf returns the 1-based nearest rank of percentile p among n
// samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps float error in p/100 from bumping an exact
	// rank (99.9% of 10000 is rank 9990, not 9991).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest percentile of percentileLadder
// that has at least minBeyond of n samples beyond it, and false when
// even the median lacks that support.
func tailPercentile(n int) (float64, bool) {
	for _, p := range percentileLadder {
		if n-rankOf(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratioOf is one derived ratio with the deltas it came from, so every
// reported ratio carries its base.
type ratioOf struct {
	Num   float64 `json:"num"`
	Base  float64 `json:"base"`
	Value float64 `json:"value"`
}

// ratio divides two counter deltas. A zero (or negative) base has no
// meaningful ratio and is an error, never a silent 0 or Inf.
func ratio(num, base float64) (ratioOf, error) {
	if base <= 0 {
		return ratioOf{}, fmt.Errorf("ratio %g/%g: base must be positive", num, base)
	}
	return ratioOf{Num: num, Base: base, Value: num / base}, nil
}

// latencySummary is a latency distribution reduced to its median and
// the highest supported tail percentile, capped at p99 (the tail the
// benchmark names).
type latencySummary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail_ms"`
}

// summarize reduces latencies in milliseconds.
func summarize(ms []float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50: percentile(s, 50)}
	if p, ok := tailPercentile(len(s)); ok {
		out.TailPct = math.Min(p, 99)
		out.Tail = percentile(s, out.TailPct)
	}
	return out
}
