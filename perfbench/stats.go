package main

import (
	"math"
	"sort"
	"time"
)

// dist is a set of latency samples in milliseconds.
type dist []float64

func (d dist) sorted() dist {
	out := append(dist(nil), d...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile by linear interpolation between order
// statistics (the same rule as numpy's default), 0 on an empty set.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func (d dist) median() float64 { return d.quantile(0.5) }

// tail returns the 99th percentile, or the highest percentile that still
// leaves at least ten samples beyond it, together with the percentile
// used (0 when there are too few samples for any).
func (d dist) tail() (value, pct float64) {
	n := len(d)
	if n <= 10 {
		return 0, 0
	}
	q := 0.99
	if beyond := float64(n) * (1 - q); beyond < 10 {
		q = 1 - 10/float64(n)
	}
	return d.quantile(q), 100 * q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0/0 as 0 so layers a workload never exercises
// report zero instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
