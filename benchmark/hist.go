package main

import "math/bits"

// fineHist is a log-linear histogram of non-negative integers (HDR
// style): values below 2*fineSub are exact, larger ones fall into
// fineSub linear sub-buckets per power of two, so a quantile is resolved
// to better than 1/fineSub (0.8%). core.LatencyHistogram's 4% buckets
// are too coarse to tell two runs apart; this one costs no allocation
// per sample either.
type fineHist struct {
	counts [(64 - fineBits) * fineSub]uint32
	n      uint64
	sum    float64
}

const (
	fineBits = 7
	fineSub  = 1 << fineBits
)

func (h *fineHist) add(v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	i := int(u)
	if u >= 2*fineSub {
		shift := bits.Len64(u) - (fineBits + 1)
		i = shift*fineSub + int(u>>shift)
	}
	h.counts[i]++
	h.n++
	h.sum += float64(v)
}

func (h *fineHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// fineBounds returns bucket i's lower bound and width.
func fineBounds(i int) (lower, width float64) {
	if i < 2*fineSub {
		return float64(i), 1
	}
	shift := i/fineSub - 1
	return float64(uint64(i-shift*fineSub) << shift), float64(uint64(1) << shift)
}

// quantile returns the value at quantile q in (0,1), placing the target
// rank linearly inside its bucket.
func (h *fineHist) quantile(q float64) float64 {
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c > 0 && cum+float64(c) >= target {
			lower, width := fineBounds(i)
			return lower + width*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return 0
}

// tailMean returns the mean of the samples beyond quantile q (bucket
// midpoints; the bucket the quantile falls in contributes its share).
func (h *fineHist) tailMean(q float64) float64 {
	skip := q * float64(h.n)
	var cum, sum, n float64
	for i, c := range h.counts {
		cum += float64(c)
		if take := min(float64(c), cum-skip); take > 0 {
			lower, width := fineBounds(i)
			sum += take * (lower + width/2)
			n += take
		}
	}
	return ratio(sum, n)
}
