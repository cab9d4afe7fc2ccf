// sharded.go holds the cache-line-padded, per-shard atomic primitives the
// whole observability layer is built from. The discipline is the one the
// PF engine's statistics pioneered (and which now lives here): increments
// go to a shard selected by a caller-provided key (typically the pid), so
// a thousand concurrent processes never serialize on one cache line — the
// user-space analogue of the kernel's per-CPU counters.
package obs

import "sync/atomic"

// counterShards is the shard fan-out for counters. 64 shards
// of one cache line each is 4 KiB per counter — cheap for the fixed, low
// cardinality the registry enforces (op × verdict × chain).
const counterShards = 64

// paddedUint64 occupies a full cache line so neighboring shards never
// false-share.
type paddedUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a sharded monotonic counter. The zero value is ready to use.
type Counter struct {
	shards [counterShards]paddedUint64
}

// Add adds n on the shard selected by key (typically the pid).
func (c *Counter) Add(key int, n uint64) {
	c.shards[uint(key)%counterShards].v.Add(n)
}

// Load sums all shards. The sum is not a snapshot — concurrent adds may or
// may not be included — but it is monotone over quiescent points.
func (c *Counter) Load() uint64 {
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// SampleMask turns a sampling period into the bitmask used against a
// monotone event counter: `count&mask == 0` fires once per `every` events,
// with every rounded up to a power of two (every <= 1 fires always).
func SampleMask(every int) uint64 {
	n := uint64(1)
	for every > 1 && n < uint64(every) {
		n <<= 1
	}
	return n - 1
}
