package main

import (
	"math"
	"math/bits"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so a spread
// computed here matches the one the acceptance driver computes. Fewer than
// two values have no spread: both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	ld, m := len(s), len(s)+1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(med)
}

// agg accumulates one kind of per-task call — far too many to keep a span
// each — as a count, a total, and a log₂ histogram of nanoseconds with eight
// linear sub-buckets per octave (quantiles resolve to about ±6 %).
type agg struct {
	count int64
	total int64
	hist  [histBuckets]int64
}

const (
	histSub     = 8
	histBuckets = 64 * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // 2^exp <= ns
	sub := int(ns>>(uint(exp)-3)) & (histSub - 1)
	return (exp-2)*histSub + sub
}

// histLower is the smallest value that lands in bucket i.
func histLower(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	exp := i/histSub + 2
	return math.Ldexp(1+float64(i%histSub)/histSub, exp)
}

func (a *agg) add(ns int64) {
	a.count++
	a.total += ns
	a.hist[histIndex(ns)]++
}

func (a *agg) merge(o *agg) {
	a.count += o.count
	a.total += o.total
	for i, n := range o.hist {
		a.hist[i] += n
	}
}

// quantile returns the q-quantile in nanoseconds, interpolated inside the
// bucket it falls in; 0 when nothing was recorded.
func (a *agg) quantile(q float64) float64 {
	if a.count == 0 {
		return 0
	}
	rank := q * float64(a.count)
	var seen float64
	for i, n := range a.hist {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			lo, hi := histLower(i), histLower(i+1)
			return lo + (hi-lo)*(rank-seen)/float64(n)
		}
		seen += float64(n)
	}
	return histLower(histBuckets)
}

// mean returns the mean in nanoseconds with the calibrated cost of reading
// the clock around an empty interval removed.
func (a *agg) mean(emptyNs float64) float64 {
	if a.count == 0 {
		return 0
	}
	return math.Max(0, float64(a.total)/float64(a.count)-emptyNs)
}

// busy returns the total in seconds, net of the same per-call clock cost.
func (a *agg) busy(emptyNs float64) float64 {
	return math.Max(0, float64(a.total)-emptyNs*float64(a.count)) / 1e9
}
