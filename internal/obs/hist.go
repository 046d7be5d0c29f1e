package obs

import "math/bits"

// Histogram is a fixed-size log2-bucketed histogram of non-negative
// int64 values (nanoseconds for latencies, bytes for sizes). Bucket i
// counts values v with bits.Len64(v) == i, i.e. bucket 0 holds exactly
// 0, bucket i>0 holds [2^(i-1), 2^i). The bucket array is pre-sized so
// Observe never allocates, which keeps recording legal inside the
// simulator's zero-alloc hot paths.
type Histogram struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Buckets [65]int64
}

// Observe records one value. Negative values are clamped to zero (they
// cannot occur for virtual-time spans, which are monotone, but the clamp
// keeps the bucket index in range for arbitrary callers).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bits.Len64(uint64(v))]++
}

// Merge folds o into h bucket-wise. Histogram contents are sums and
// extrema, so a merge of shards equals the histogram a single recorder
// would have recorded, whatever order the shards are folded in.
func (h *Histogram) Merge(o *Histogram) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return int64(^uint64(0) >> 1)
	}
	return int64(uint64(1)<<uint(i)) - 1
}

// Mean returns the exact mean of the observed values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1): the upper
// bound of the first bucket whose cumulative count reaches q*Count,
// clamped to the exact observed Max. The log2 scheme bounds the relative
// error by 2x, which is enough to separate "sub-microsecond" from
// "hundreds of microseconds" — the distinctions the paper's figures turn
// on.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(float64(q*float64(h.Count)) + 0.5) // rounded: no fused multiply-add
	if target < 1 {
		target = 1
	}
	if target > h.Count {
		target = h.Count
	}
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		if cum >= target {
			u := BucketUpper(i)
			if u > h.Max {
				u = h.Max
			}
			return u
		}
	}
	return h.Max
}
