package pfverify

import (
	"testing"

	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/worldgen"
)

// BenchmarkRefinesChurnWorld times a two-program Refines on the world the
// policy-churn workload gates: worldgen's small spec, MAC enforcing, its
// tenant invariant, and a candidate compiled separately from the same
// chains. Run it with -benchmem; the sweep's allocations are part of the
// number.
func BenchmarkRefinesChurnWorld(b *testing.B) {
	cfg := pf.Optimized()
	gw := worldgen.Build(worldgen.Small, programs.WorldOpts{PF: &cfg, MACEnforcing: true})
	e := gw.World.Engine
	tbl := e.Policy().SIDs()
	invs, err := ParseInvariants("<worldgen>", worldgen.Invariants())
	if err != nil {
		b.Fatal(err)
	}
	cur := FromEngine(e)
	cand := NewEvaluator(e.Policy(), e.Program().Chains(), e.Config())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if regs := Refines(cur, cand, tbl, invs); len(regs) > 0 {
			b.Fatalf("the live base does not refine itself: %s", regs[0].Invariant)
		}
	}
}
