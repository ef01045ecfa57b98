package main

import (
	"math"
	"sort"
	"time"
)

// samples is a list of timings or values, summarised by nearest-rank
// quantiles.
type samples []float64

func (s *samples) add(v float64)          { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration) { *s = append(*s, d.Seconds()) }
func (s samples) len() int                { return len(s) }
func (s samples) median() float64         { return s.quantile(0.5) }
func (s samples) p99() float64            { return s.quantile(0.99) }

// quantile returns the nearest-rank q-quantile (0 for no samples).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

// closeEnough compares a computed aggregate with its reference within
// floating-point reassociation error.
func closeEnough(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
}
