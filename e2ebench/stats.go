package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the fewest samples a p99 is reported from: with fewer, fewer
// than ten samples lie beyond it and it would be no tail.
const minTail = 1000

// pct returns the nearest-rank p-quantile (0 < p <= 1) of xs, 0 if empty.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowedP99 is the p99 of a run's latency samples, taken so that a short
// stretch of machine noise cannot move it much: the samples are cut into
// consecutive windows of minTail (the last window takes the remainder),
// each window's p99 is taken, and the median of those is returned. A run
// with fewer than two windows gets the plain p99.
func windowedP99(xs []float64) float64 {
	k := len(xs) / minTail
	if k < 2 {
		return pct(xs, 0.99)
	}
	ps := make([]float64, k)
	for i := range ps {
		end := (i + 1) * minTail
		if i == k-1 {
			end = len(xs)
		}
		ps[i] = pct(xs[i*minTail:end], 0.99)
	}
	return median(ps)
}

// tail returns the p99 of xs when there are enough samples for one, else 0.
func tail(xs []float64) float64 {
	if len(xs) < minTail {
		return 0
	}
	return pct(xs, 0.99)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is n/d, 0 when d is 0.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
