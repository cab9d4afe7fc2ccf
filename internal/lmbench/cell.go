// cell.go is the one cell runner and the one report schema. A cell times
// one workload on a world armed with one config, from one bench process
// per goroutine; a spec with several arms runs them back to back in every
// round on worlds built once — the paired-round comparator — so drift
// (GC pressure, a throttled cgroup, a noisy neighbour) inflates both sides
// of a round and cancels in its ratio.
package lmbench

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"pfirewall/internal/rulegen"
)

// Rounds is how many paired rounds every runner cell is measured over.
const Rounds = 5

// latencySamples caps the per-op timed pass each arm runs for p50/p99.
const latencySamples = 20000

// Spec is one cell of a bench grid: Workload timed on a world armed with
// each of Arms in turn (the first is the baseline the others are compared
// against, round by round), carrying a rule base of Rules rules — the
// paper's synthetic entrypoint base, or rulegen's generic scale base when
// Scale is set — on Goroutines concurrent bench processes. World names the
// worldgen preset of a worldscale cell.
type Spec struct {
	Workload   string
	Arms       []string
	Rules      int
	Scale      bool
	World      string
	Goroutines int
}

// Cell is one measured point. Zero fields are omitted from the JSON; a
// runner cell fills ops, ns/op (the median of its rounds) with the
// rounds' interquartile range, p50/p99 from a per-op timed pass, and
// allocs/bytes per op from GC-fenced MemStats intervals, plus — for every
// arm after a spec's first — the median and the best (lowest) per-round
// overhead against that first arm. Counts carries what a bench measures
// beyond that (speedups, stale verdicts, world sizes, churn accounting).
type Cell struct {
	Workload     string             `json:"workload"`
	Config       string             `json:"config,omitempty"`
	Rules        int                `json:"rules,omitempty"`
	World        string             `json:"world,omitempty"`
	Goroutines   int                `json:"goroutines,omitempty"`
	Rounds       int                `json:"rounds,omitempty"`
	Ops          int64              `json:"ops"`
	NsPerOp      float64            `json:"ns_per_op,omitempty"`
	IQRNs        float64            `json:"iqr_ns,omitempty"`
	OpsPerSec    float64            `json:"ops_per_sec,omitempty"`
	P50Ns        float64            `json:"p50_ns,omitempty"`
	P99Ns        float64            `json:"p99_ns,omitempty"`
	P999Ns       float64            `json:"p999_ns,omitempty"`
	AllocsPerOp  float64            `json:"allocs_per_op,omitempty"`
	BytesPerOp   float64            `json:"bytes_per_op,omitempty"`
	OverheadPct  float64            `json:"overhead_pct,omitempty"`
	BestRoundPct float64            `json:"best_round_pct,omitempty"`
	Counts       map[string]float64 `json:"counts,omitempty"`
}

// Report is one bench run; every BENCH_*.json is one.
type Report struct {
	Bench      string `json:"bench"`
	Smoke      bool   `json:"smoke,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Iters      int    `json:"iters,omitempty"`
	Cells      []Cell `json:"cells"`
}

// Bodies builds one arm of s: a world armed with the named config and the
// spec's rule base, and one warmed workload body per goroutine, each on
// its own bench process (per-process syscall state is single-flow).
func Bodies(s Spec, arm string) []func() {
	base := SyntheticRuleBase(s.Rules)
	if s.Scale {
		base = rulegen.ScaleRuleBase(1, s.Rules)
	}
	w := World(config(arm), base)
	wl := workload(s.Workload)
	bodies := make([]func(), max(s.Goroutines, 1))
	for i := range bodies {
		bodies[i] = wl.Setup(w, BenchProc(w))
		// Warm the scratch pools, the dcache and the context caches.
		for n := 0; n < 64; n++ {
			bodies[i]()
		}
	}
	return bodies
}

// runPaired measures s: Rounds rounds of iters/Rounds ops per goroutine on
// every arm in turn, then a per-op timed pass per arm.
func runPaired(s Spec, o Opts) []Cell {
	per := max(o.Iters/Rounds, 1)
	arms := make([][]func(), len(s.Arms))
	for i, name := range s.Arms {
		arms[i] = Bodies(s, name)
	}
	ns := make([][]float64, len(arms))
	mallocs := make([]uint64, len(arms))
	bytes := make([]uint64, len(arms))
	for r := 0; r < Rounds; r++ {
		for i, bodies := range arms {
			el, m, b := timed(bodies, per)
			ns[i] = append(ns[i], el/float64(len(bodies)*per))
			mallocs[i] += m
			bytes[i] += b
		}
	}
	cells := make([]Cell, len(arms))
	for i, bodies := range arms {
		ops := int64(len(bodies) * per * Rounds)
		lat := latencies(bodies, per)
		cells[i] = Cell{
			Workload:    s.Workload,
			Config:      s.Arms[i],
			Rules:       s.Rules,
			Goroutines:  len(bodies),
			Rounds:      Rounds,
			Ops:         ops,
			NsPerOp:     quantile(ns[i], 0.5),
			IQRNs:       quantile(ns[i], 0.75) - quantile(ns[i], 0.25),
			P50Ns:       quantile(lat, 0.5),
			P99Ns:       quantile(lat, 0.99),
			AllocsPerOp: float64(mallocs[i]) / float64(ops),
			BytesPerOp:  float64(bytes[i]) / float64(ops),
		}
		if i > 0 {
			pct := make([]float64, Rounds)
			for r := range pct {
				pct[r] = (ns[i][r] - ns[0][r]) / ns[0][r] * 100
			}
			cells[i].OverheadPct = quantile(pct, 0.5)
			cells[i].BestRoundPct = slices.Min(pct)
		}
	}
	return cells
}

// timed runs per calls of every body, one goroutine each, inside a
// GC-fenced MemStats interval, and returns the wall time in ns with the
// interval's allocation count and bytes. The interval opens with a forced
// GC, so the cycle's own bookkeeping lands before the snapshot, and closes
// with a plain read (Mallocs and TotalAlloc are monotonic; a second forced
// GC would charge its internal allocations to the interval). A
// single-goroutine cell runs inline under GOMAXPROCS(1), as
// testing.AllocsPerRun does, which keeps background goroutines out of the
// delta.
func timed(bodies []func(), per int) (ns float64, mallocs, bytes uint64) {
	if len(bodies) == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	run := func(i int) {
		body := bodies[i]
		for n := 0; n < per; n++ {
			body()
		}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fan(len(bodies), run)
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()), m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// latencies times up to latencySamples calls individually, split across
// the bodies; the clock reads add a fixed cost to every sample but leave
// the tail's shape intact.
func latencies(bodies []func(), per int) []float64 {
	n := max(min(per, latencySamples/len(bodies)), 1)
	lat := make([]float64, n*len(bodies))
	fan(len(bodies), func(i int) {
		body, out := bodies[i], lat[i*n:(i+1)*n]
		for k := range out {
			t0 := time.Now()
			body()
			out[k] = float64(time.Since(t0).Nanoseconds())
		}
	})
	return lat
}

// fan runs f(0..g-1) on g goroutines and waits; one runs inline.
func fan(g int, f func(i int)) {
	if g == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// quantile interpolates the q-quantile of xs (unsorted; xs is not
// modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
