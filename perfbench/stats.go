package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// latHist is a log-linear latency histogram: each power of two of
// nanoseconds splits into subBuckets equal buckets, so a quantile reads
// within 1/subBuckets of its value. It has a fixed size and Observe never
// allocates, so recording a request costs the reader almost nothing.
type latHist struct {
	counts [maxExp * subBuckets]uint32
	n      uint64
}

const (
	subBits    = 6
	subBuckets = 1 << subBits
	maxExp     = 31 - subBits // values clamp near 2^30 ns, about a second
)

func (h *latHist) Observe(d time.Duration) {
	h.counts[bucketOf(uint64(max(d, 1)))]++
	h.n++
}

func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - subBits // >= 1
	if exp >= maxExp {
		return maxExp*subBuckets - 1
	}
	return exp*subBuckets + int(v>>uint(exp-1)) - subBuckets
}

// bucketSpan returns bucket i's lower bound and width, in nanoseconds.
func bucketSpan(i int) (lo, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	exp := i / subBuckets
	return float64(uint64(i%subBuckets+subBuckets) << uint(exp-1)), float64(uint64(1) << uint(exp-1))
}

func (h *latHist) Merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Quantile returns the q-quantile as a duration (0 when empty),
// interpolated within its bucket as if the bucket's observations were
// spread evenly across it.
func (h *latHist) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(h.n))), 1)
	var cum uint64
	for i, c := range h.counts {
		if cum+uint64(c) >= rank {
			lo, width := bucketSpan(i)
			return time.Duration(lo + width*(float64(rank-cum)-0.5)/float64(c))
		}
		cum += uint64(c)
	}
	lo, width := bucketSpan(len(h.counts) - 1)
	return time.Duration(lo + width)
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (0 when empty). vs is sorted in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo >= len(vs)-1 {
		return vs[len(vs)-1]
	}
	frac := pos - float64(lo)
	return vs[lo] + frac*(vs[lo+1]-vs[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
