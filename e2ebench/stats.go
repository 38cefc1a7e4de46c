package main

import (
	"math"
	"sort"
)

// quantile is one order statistic of a sample, with the sample size and the
// number of samples strictly beyond it, so a reader can tell a p99 backed by
// thousands of samples from one backed by three.
type quantile struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs. xs is
// not modified. An empty sample yields the zero quantile.
func percentile(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return quantile{Value: s[rank-1], N: n, Beyond: n - rank}
}

// median is the interpolated middle of xs (the mean of the two middle
// values for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0: a layer that did no work reports a
// zero share rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ladder searches for the highest request rate that meets the latency and
// success limits. It probes Start first (results recorded earlier, such as
// a known passing rate, still count), grows or shrinks geometrically until
// one passing and one failing rate bracket the limit, then bisects the
// bracket until it is narrower than Res (a fraction of the passing rate).
type ladder struct {
	Start  float64 // first rate to probe
	Factor float64 // geometric step while unbracketed (> 1)
	Res    float64 // stop once Fail/Pass-1 <= Res
	Floor  float64 // give up below this rate

	Pass    float64 // highest rate that met the limits (0 = none yet)
	Fail    float64 // lowest rate that missed them (0 = none yet)
	started bool    // Start has been probed
}

// record folds one probe's outcome into the bracket.
func (l *ladder) record(rate float64, ok bool) {
	if rate == l.Start {
		l.started = true
	}
	if ok {
		if rate > l.Pass {
			l.Pass = rate
		}
		return
	}
	if l.Fail == 0 || rate < l.Fail {
		l.Fail = rate
	}
}

// next returns the next rate to probe, or false once the bracket is
// resolved (or the search fell below Floor without a passing rate).
func (l *ladder) next() (float64, bool) {
	switch {
	case !l.started:
		return l.Start, true
	case l.Fail == 0:
		return l.Pass * l.Factor, true
	case l.Pass == 0:
		r := l.Fail / l.Factor
		return r, r >= l.Floor
	case l.Fail <= l.Pass*(1+l.Res):
		return 0, false
	default:
		return (l.Pass + l.Fail) / 2, true
	}
}
