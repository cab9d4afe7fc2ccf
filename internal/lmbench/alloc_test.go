package lmbench

import (
	"errors"
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

// TestZeroAllocTracingDisabled pins the counters-only side of the obs
// gate: observability attached at a period no run reaches, so no syscall
// is sampled — the exact counters and one nil check per filter site are
// the whole cost, and none of it allocates on the armed open+close path.
func TestZeroAllocTracingDisabled(t *testing.T) {
	w := World(config("COUNTERS"), SyntheticRuleBase(FullRuleBaseSize))
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
		t.Errorf("open+close with counters only: %.2f allocs/op, want 0", avg)
	}
}

// TestSampledTracingAllocBounded keeps the sampled side honest: the OBS
// arm at the default period and at period 1 (every mediated syscall
// carrying timed spans that feed the histograms, the most expensive
// setting) must stay allocation-free — the span lives by value in the
// mediation scratch state and the tracer ring is preallocated.
func TestSampledTracingAllocBounded(t *testing.T) {
	for _, every := range []int{obsEvery, 1} {
		cfg := config("OBS")
		cfg.ObsEvery = every
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
			t.Errorf("open+close with OBS at period %d: %.2f allocs/op, want 0", every, avg)
		}
	}
}

// TestZeroAllocDeniedOpen: a denied open publishes its DROP as a span —
// timed when its syscall is sampled, untimed otherwise — and allocates
// nothing doing so, at the default period and at period 1.
func TestZeroAllocDeniedOpen(t *testing.T) {
	for _, every := range []int{obsEvery, 1} {
		cfg := config("OBS")
		cfg.ObsEvery = every
		w := World(cfg, SyntheticRuleBase(FullRuleBaseSize))
		p := BenchProc(w)
		fd, err := p.Open("/tmp/denied", kernel.O_CREAT|kernel.O_RDWR, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		p.Close(fd)
		if _, err := w.InstallRules([]string{"pftables -o FILE_OPEN -d tmp_t -s sshd_t -j DROP"}); err != nil {
			t.Fatal(err)
		}
		body := func() {
			if _, err := p.Open("/tmp/denied", kernel.O_RDONLY, 0); !errors.Is(err, kernel.ErrPFDenied) {
				panic(err)
			}
		}
		for i := 0; i < 64; i++ {
			body()
		}
		if avg := testing.AllocsPerRun(200, body); avg != 0 {
			t.Errorf("denied open with OBS at period %d: %.2f allocs/op, want 0", every, avg)
		}
		if drops := w.Engine.Stats.Drops.Load(); w.K.Tracer().Total() < drops {
			t.Errorf("%d DROPs published only %d spans", drops, w.K.Tracer().Total())
		}
	}
}
