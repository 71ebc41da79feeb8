package bench

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is set by a handful of outliers
// and does not repeat from run to run.
const minBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending and non-empty.
func Percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The small slack keeps 99.9 % of 10000 at 9990, not 9991,
// whatever the float product rounds to.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// Supported reports whether n samples carry the p-th percentile: at
// least minBeyond of them lie beyond its rank.
func Supported(n int, p float64) bool {
	return n-rank(n, p) >= minBeyond
}

// tailLadder is the set of tail percentiles the harness chooses from.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// HighestSupported returns the highest ladder percentile n samples
// carry, or ok=false when even p75 has fewer than minBeyond samples
// beyond it — then no tail is reported at all.
func HighestSupported(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if Supported(n, p) {
			return p, true
		}
	}
	return 0, false
}

// Quartiles are the summary every repeated metric is reported with.
type Quartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// Spread is the interquartile range as a share of the median — the
// run-to-run noise a bound is compared against.
func (q Quartiles) Spread() float64 {
	if q.Median == 0 {
		return 0
	}
	return math.Abs((q.Q3 - q.Q1) / q.Median)
}

// Summarize computes the quartiles of values the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the acceptance driver uses; with fewer than two values all three
// are the value itself.
func Summarize(values []float64) Quartiles {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return Quartiles{}
	case 1:
		return Quartiles{s[0], s[0], s[0]}
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return Quartiles{Q1: at(1), Median: at(2), Q3: at(3)}
}

// Median is the middle of values (mean of the middle two when even),
// 0 for none.
func Median(values []float64) float64 { return Summarize(values).Median }

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
