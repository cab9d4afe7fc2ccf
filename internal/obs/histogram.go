package obs

import (
	"math/bits"
	"strconv"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of every latency histogram: buckets
// 0..NumBuckets-2 hold values v with v <= 2^i nanoseconds (power-of-two
// upper bounds, so bucketing is two instructions — a decrement and a
// bits.Len64), and the final bucket is the +Inf overflow. 2^30 ns ≈ 1.07 s
// is the largest finite bound; any mediation slower than that is an
// outlier the overflow bucket still accounts for.
const NumBuckets = 32

// histShards is the shard fan-out for histograms. Histograms observe only
// the spans of sampled syscalls, so contention is already throttled; 8 shards
// keeps the per-histogram footprint small while still separating
// concurrent writers. Shards are padded on both ends so adjacent shards
// never share a cache line; cells within a shard belong to one writer
// lane, so they are left unpadded.
const histShards = 8

// histShard is one writer lane. Its count is the sum of its buckets, so
// an observation pays two atomic adds, not three.
type histShard struct {
	_       [64]byte
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Uint64
	_       [64]byte
}

// Histogram is a fixed-bucket, power-of-two-nanosecond latency histogram
// with per-shard atomics. The zero value is ready to use.
type Histogram struct {
	shards [histShards]histShard
}

// BucketIndex maps a nanosecond value to its bucket: the smallest i with
// ns <= 2^i, clamped into the overflow bucket. 0 and 1 ns share bucket 0
// (bound 2^0 = 1).
func BucketIndex(ns uint64) int {
	if ns <= 1 {
		return 0
	}
	i := bits.Len64(ns - 1) // smallest i with ns <= 1<<i
	if i > NumBuckets-1 {
		i = NumBuckets - 1
	}
	return i
}

// BucketBound renders bucket i's upper bound as a Prometheus `le` value.
func BucketBound(i int) string {
	if i >= NumBuckets-1 {
		return "+Inf"
	}
	return strconv.FormatUint(1<<uint(i), 10)
}

// Observe records one value on the shard selected by key.
func (h *Histogram) Observe(key int, ns uint64) {
	sh := &h.shards[uint(key)%histShards]
	sh.buckets[BucketIndex(ns)].Add(1)
	sh.sum.Add(ns)
}

// HistSnapshot is a point-in-time (per-cell best-effort) read of a
// histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64 // per-bucket (non-cumulative) counts
}

// Quantile estimates the q-th quantile (0 < q <= 1) in nanoseconds: the
// upper bound of the bucket where the cumulative count crosses q·Count.
// With power-of-two bounds the estimate is within 2× of the true value
// except in the +Inf bucket, which reports the largest finite bound.
// Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for b := 0; b < NumBuckets; b++ {
		cum += s.Buckets[b]
		if cum >= target {
			if b >= NumBuckets-1 {
				return 1 << uint(NumBuckets-2)
			}
			return 1 << uint(b)
		}
	}
	return 1 << uint(NumBuckets-2)
}

// Snapshot sums all shards.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		s.Sum += sh.sum.Load()
		for b := 0; b < NumBuckets; b++ {
			n := sh.buckets[b].Load()
			s.Buckets[b] += n
			s.Count += n
		}
	}
	return s
}
