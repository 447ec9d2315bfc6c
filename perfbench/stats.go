package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a reported tail percentile must have
// at least this many samples strictly above its rank.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first; the reported tail is the highest one the sample count supports.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(p float64, n int) int {
	// The tolerance keeps float noise (99.9/100·10000 = 9990.000…02)
	// from moving an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, or false when not even the median
// qualifies.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs (sorted in
// place).
func percentile(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// latency summarizes latency samples taken in repeated groups (a
// session of a stream round, an offline set): the median over groups of
// each group's p50 and of each group's tail. Every group's tail is taken
// at the same percentile, the highest the smallest group supports by the
// rule.
type latency struct {
	n      int // samples over all rounds
	rounds int
	p50    float64
	tail   float64
	pct    float64 // the percentile tail was taken at
}

func summarize(rounds [][]float64) (latency, error) {
	l := latency{rounds: len(rounds)}
	smallest := -1
	for _, xs := range rounds {
		l.n += len(xs)
		if smallest < 0 || len(xs) < smallest {
			smallest = len(xs)
		}
	}
	p, ok := tailPercentile(smallest)
	if !ok {
		return l, fmt.Errorf("a group of %d samples cannot support a tail percentile (need %d beyond the median)", smallest, minBeyond)
	}
	var p50s, tails []float64
	for _, xs := range rounds {
		p50s = append(p50s, percentile(xs, 50))
		tails = append(tails, percentile(xs, p))
	}
	l.p50, l.tail, l.pct = median(p50s), median(tails), p
	return l, nil
}

func (l latency) String() string {
	return fmt.Sprintf("p50 %.4g ms, p%g %.4g ms (medians over %d groups, %d samples)", l.p50, l.pct, l.tail, l.rounds, l.n)
}
