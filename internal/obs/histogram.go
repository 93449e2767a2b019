package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucketing: log-linear, HDR-style. Values below 2^subBits are
// recorded exactly; above that, each power-of-two octave is split into
// 2^subBits sub-buckets, bounding the relative quantile error at
// 1/2^subBits (12.5% worst case, ~6% typical) while keeping the whole
// histogram a fixed 4 KiB array of atomic counters. Recording is a single
// atomic increment plus two atomic adds (sum, max) — no locks, no
// allocation — so it is safe on the pipeline's hot path.
const (
	subBits  = 3
	subCount = 1 << subBits
	// 64 octaves cover the full uint64 range; the top buckets are
	// unreachable for durations but keep index arithmetic branch-free.
	numBuckets = 64 * subCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1 // >= subBits
	shift := msb - subBits
	minor := int(uint64(v)>>shift) & (subCount - 1)
	idx := (shift+1)*subCount + minor
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketUpper returns the largest value mapped to bucket idx (the
// Prometheus `le` bound of the bucket), saturating at MaxInt64 in the
// top octaves no int64 value can reach.
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	shift := idx/subCount - 1
	minor := idx % subCount
	if shift > 59 { // (subCount+minor+1)<<shift would exceed MaxInt64
		return math.MaxInt64
	}
	u := uint64(subCount+minor+1)<<shift - 1
	if u > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(u)
}

// Histogram is a lock-free streaming histogram of non-negative int64
// values (typically nanoseconds or counts). The zero value is ready to
// use. All methods are safe for concurrent use.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of the recorded values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Merge adds every sample of o into h. Concurrent recording into either
// histogram during the merge yields a snapshot-consistent-enough result
// (each sample lands exactly once; count/sum may transiently disagree
// with the buckets by in-flight observations).
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		m := h.max.Load()
		if om <= m || h.max.CompareAndSwap(m, om) {
			return
		}
	}
}

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	Upper int64  `json:"upper"` // inclusive upper bound of the bucket
	Count uint64 `json:"count"` // samples in this bucket (not cumulative)
}

// HistSnapshot is a point-in-time copy of a histogram, suitable for
// percentile queries and export.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"` // exact maximum observed value
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. Buckets contains only
// non-empty buckets, in increasing bound order.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Upper: bucketUpper(i), Count: n})
		}
	}
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank over the
// bucketed distribution. The answer is the upper bound of the bucket
// containing the rank — within one sub-bucket (<= 12.5%) of the exact
// value — except that the top-most occupied bucket reports the exact
// recorded maximum. Returns 0 with no samples.
func (s HistSnapshot) Quantile(q float64) int64 {
	total := int64(0)
	for _, b := range s.Buckets {
		total += int64(b.Count)
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	cum := int64(0)
	for i, b := range s.Buckets {
		cum += int64(b.Count)
		if cum >= rank {
			if i == len(s.Buckets)-1 && s.Max > 0 {
				return s.Max
			}
			return b.Upper
		}
	}
	return s.Max
}

// Mean returns the average recorded value, or 0 with no samples.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// QuantileDuration is Quantile for nanosecond-valued histograms.
func (s HistSnapshot) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}
