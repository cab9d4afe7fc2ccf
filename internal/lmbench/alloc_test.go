package lmbench

import (
	"testing"

	"pfirewall/internal/kernel"
)

// TestZeroAllocHotPath is the allocation regression tripwire: on a fully
// armed world (Optimized engine, deployment-scale rule base) the mediated
// open+close and stat paths must not allocate at all in steady state. Any
// new heap traffic on these paths — a request built outside the pool, an
// escape in the resolver, a formatted string in a context module — fails
// this test before it ever shows up as a latency regression.
func TestZeroAllocHotPath(t *testing.T) {
	w := World(config("EPTSPC"), SyntheticRuleBase(FullRuleBaseSize))
	p := BenchProc(w)

	bodies := []struct {
		name string
		body func()
	}{
		{"open+close", func() {
			fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
			if err != nil {
				panic(err)
			}
			p.Close(fd)
		}},
		{"stat", func() {
			if _, err := p.Stat("/etc/passwd"); err != nil {
				panic(err)
			}
		}},
	}
	for _, b := range bodies {
		// Warm the scratch pools, the dcache, and the entrypoint cache.
		for i := 0; i < 64; i++ {
			b.body()
		}
		if avg := testing.AllocsPerRun(200, b.body); avg != 0 {
			t.Errorf("%s: %.2f allocs/op on the armed hot path, want 0", b.name, avg)
		}
	}
}

// TestZeroAllocTracingDisabled pins the decision-provenance gate's cheap
// side: with the metrics layer attached but TraceEvery zero, the span
// machinery must cost nothing on the armed open+close path — the only
// admissible residue is the single tracer-nil branch per filter site.
func TestZeroAllocTracingDisabled(t *testing.T) {
	w := World(config("METRICS"), SyntheticRuleBase(FullRuleBaseSize))
	p := BenchProc(w)
	body := func() {
		fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
		if err != nil {
			panic(err)
		}
		p.Close(fd)
	}
	for i := 0; i < 64; i++ {
		body()
	}
	if avg := testing.AllocsPerRun(200, body); avg != 0 {
		t.Errorf("open+close with tracing disabled: %.2f allocs/op, want 0", avg)
	}
}

// TestSampledTracingAllocBounded keeps the sampled side honest: with every
// mediated syscall carrying a provenance span (TraceEvery 1, the most
// expensive setting), steady-state span capture must stay allocation-free
// — the span lives by value in the mediation scratch state and the flight
// ring is preallocated.
func TestSampledTracingAllocBounded(t *testing.T) {
	cfg := config("TRACE")
	cfg.TraceEvery = 1
	w := World(cfg, SyntheticRuleBase(FullRuleBaseSize))
	p := BenchProc(w)
	body := func() {
		fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
		if err != nil {
			panic(err)
		}
		p.Close(fd)
	}
	for i := 0; i < 64; i++ {
		body()
	}
	if avg := testing.AllocsPerRun(200, body); avg != 0 {
		t.Errorf("open+close with TraceEvery=1: %.2f allocs/op, want 0", avg)
	}
}
