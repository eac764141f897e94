package main

import (
	"sort"

	"bimodal/internal/xrand"
)

const (
	// slowdownBound is the slowdown a case's median head/base ratio must
	// exceed to fail, whatever the interval says: a shift smaller than
	// this is not worth blocking a change for.
	slowdownBound = 0.03
	// confidence is the coverage of the bootstrap interval. The gate
	// judges every case at once, so an A/A run fails when any of its 17
	// cases does; at 99.9% per case that is nominally under 1% (a
	// Bonferroni bound), where 99% failed one of nine recorded A/A runs
	// on a shared 2-CPU host. The lower end then needs about 17 of 20
	// pairs slower, so one outlier pair cannot move it across 1.
	confidence = 0.999
	// resamples is the number of bootstrap resamples.
	resamples = 10000
	// bootstrapSeed fixes the resampling, so the same ratios always give
	// the same interval and verdict.
	bootstrapSeed = 1
)

// result is one case's A/B outcome.
type result struct {
	median, lo, hi float64 // median head/base ratio and its interval
	regressed      bool
}

// verdict judges one case from its paired head/base ns/op ratios: the
// case regressed when the bootstrap interval of the median ratio lies
// wholly above 1 (head is slower beyond the pairs' noise) and the median
// exceeds 1+slowdownBound (by more than the gate tolerates). The median
// keeps one disturbed pair from deciding either way.
func verdict(ratios []float64) result {
	r := result{median: median(ratios)}
	rng := xrand.New(bootstrapSeed)
	meds := make([]float64, resamples)
	sample := make([]float64, len(ratios))
	for i := range meds {
		for j := range sample {
			sample[j] = ratios[rng.Intn(len(ratios))]
		}
		meds[i] = median(sample)
	}
	sort.Float64s(meds)
	tail := (1 - confidence) / 2
	r.lo = meds[int(tail*resamples)]
	r.hi = meds[int((1-tail)*resamples)-1]
	r.regressed = r.lo > 1 && r.median > 1+slowdownBound
	return r
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
