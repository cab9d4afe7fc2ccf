package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// epoch anchors nanotime; time.Since reads the monotonic clock.
var epoch = time.Now()

// nanotime is the benchmark's one clock: monotonic nanoseconds since start.
func nanotime() int64 { return int64(time.Since(epoch)) }

// cpuNs is the process's user+system CPU time (getrusage), in nanoseconds.
// It counts every thread: the load goroutine, GC workers and the program's
// own goroutines (policyd's server loop).
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rtSample reads the Go runtime counters the per-layer metrics use.
type rtSample struct {
	allocBytes float64 // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds (runtime estimate)
	totalCPU   float64 // cumulative CPU seconds available to Go (runtime estimate)
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// gcPct is the runtime's share of CPU spent in GC between two samples.
func gcPct(a, b rtSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return 100 * (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// liveHeapMB forces a collection and reports the heap it marked live.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// quantile returns the q-quantile of sorted (nearest rank, linearly
// interpolated between the two neighbouring samples).
func quantile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return float64(sorted[n-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// sortedQ is quantile over an unsorted series.
func sortedQ(v []uint32, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, q)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// phase holds every sample of one timed phase.
type phase struct {
	lat, reads []uint32
	class      []uint8 // op class, parallel to lat
	// rounds holds, for each GC-fenced round, the end of its samples in lat.
	rounds []int
	// wall and cpu are the whole phase's wall and process CPU time, the GC
	// fences included.
	wall, cpu int64
	// traced and untraced split lat by whether the op's spans were
	// recorded (traced runs only).
	traced, untraced []uint32
}

// roundP50 lists each round's p50 latency.
func (ph *phase) roundP50() []float64 {
	var p50 []float64
	start := 0
	for _, end := range ph.rounds {
		if end > start {
			p50 = append(p50, sortedQ(ph.lat[start:end], 0.5))
		}
		start = end
	}
	return p50
}

// deciles lists sorted latencies at each tenth percentile, in µs, so a
// reader can see where the reported percentiles fall.
func deciles(sorted []uint32) []float64 {
	out := make([]float64, 0, 9)
	for q := 1; q <= 9; q++ {
		out = append(out, quantile(sorted, float64(q)/10)/1e3)
	}
	return out
}

// classes reports each op class's share of the timed ops and its median
// latency in µs, so a reader can check that no reported percentile sits
// on a boundary between classes.
func (ph *phase) classes(names []string) (share, p50 map[string]float64) {
	by := make([][]uint32, len(names))
	for i, c := range ph.class {
		by[c] = append(by[c], ph.lat[i])
	}
	share, p50 = map[string]float64{}, map[string]float64{}
	for c, lat := range by {
		if len(lat) > 0 {
			share[names[c]] = 100 * float64(len(lat)) / float64(len(ph.lat))
			p50[names[c]] = sortedQ(lat, 0.5) / 1e3
		}
	}
	return share, p50
}

// traceOverheadPct compares the p50 of traced ops with that of the
// untraced ops interleaved with them.
func (ph *phase) traceOverheadPct() float64 {
	t, u := sortedQ(ph.traced, 0.5), sortedQ(ph.untraced, 0.5)
	if u == 0 {
		return 0
	}
	return 100 * (t/u - 1)
}

// toNs clamps a duration into a latency sample.
func toNs(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}
