package main

import (
	"math"
	"sort"
)

// summary is the distribution of one metric's samples inside a run.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// summarize sorts a copy of xs and returns its count, median and quartiles.
// The quartiles follow Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how run-to-run spread is judged.
func summarize(xs []float64) summary {
	s := sorted(xs)
	q1, med, q3 := quartiles(s)
	return summary{N: len(s), Q1: q1, Median: med, Q3: q3}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles of an ascending slice. With fewer than two samples every
// quartile is the single value (or NaN for none).
func quartiles(s []float64) (q1, med, q3 float64) {
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// median of an ascending slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of xs. serve-cold reports its latency as a mean: cold requests span
// four orders of magnitude, from E10's tens of microseconds to E5's
// hundred-odd milliseconds, so their median sits on a steep rank boundary
// and jumps with the mix from one seed to the next.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPerMille are the candidates for a latency tail, highest first, in
// thousandths so that ranks are exact.
var tailPerMille = []int{999, 990, 900, 500}

// tail returns the highest of tailPerMille, as a percentile, that has at
// least ten samples beyond it, with its nearest-rank value in the ascending
// slice s. ok is false when even the median has fewer than ten beyond it.
func tail(s []float64) (pct, value float64, ok bool) {
	n := len(s)
	for _, pm := range tailPerMille {
		rank := (pm*n + 999) / 1000 // nearest rank: ceil(pm/1000 × n)
		if rank >= 1 && n-rank >= 10 {
			return float64(pm) / 10, s[rank-1], true
		}
	}
	return 0, 0, false
}
