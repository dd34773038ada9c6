package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: p95 needs N >= 200, p99 N >= 1000.
const minTail = 10

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples
// (Python's statistics.median).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// largest is the largest of v, or 0 when v is empty.
func largest(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) computes them (the default "exclusive"
// method), so a spread read from this tool agrees with one read by any
// script over the same numbers.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailPercentile is the nearest-rank p-quantile of v. It refuses to
// report a tail that fewer than minTail samples lie beyond, so a p95
// never rests on a handful of requests.
func tailPercentile(v []float64, p float64) (float64, error) {
	n := len(v)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g needs at least %d samples beyond it, have %d of N=%d", 100*p, minTail, n-rank, n)
	}
	return sorted(v)[rank-1], nil
}
