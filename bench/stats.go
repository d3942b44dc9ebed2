package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// v, 0 for an empty sample. v is not modified.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(v []float64) float64 { return percentile(v, 50) }

// midMean is the interquartile mean: the mean of the middle half of v.
// Solve times come in clusters one interior-point iteration apart, and
// a median jumps from one cluster to the next when a seed moves a few
// inputs across; the middle half's mean moves with them gradually.
func midMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	return mean(s[lo:hi])
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }

// ratio is a/b, 0 when b is 0 (a share with nothing attempted).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Verdicts of a parent/change comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareMetric judges change against base for one metric: worse is the
// share of base by which change is worse (negative when better). A
// within-run spread wider than the bound on either side makes the pair
// unresolved rather than ok or regressed: the run could not have shown
// a difference of the size the bound forbids.
func compareMetric(base, change metric, better string, bound float64) (worse float64, verdict string) {
	if base.Value != 0 {
		worse = (change.Value - base.Value) / math.Abs(base.Value)
	}
	if better == "higher" {
		worse = 0 - worse // not −0 for equal values
	}
	switch {
	case math.Max(base.Spread, change.Spread) > bound:
		verdict = verdictUnresolved
	case worse > bound:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return worse, verdict
}
