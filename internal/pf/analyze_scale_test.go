package pf_test

import (
	"fmt"
	"testing"

	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
	"pfirewall/internal/worldgen"
)

// TestShadowLanesMatchReferenceAtScale holds the shadow lanes to the O(n²)
// reference on the rule bases the analysis meets in practice: rulegen's
// scale bases (SYSHIGH entrypoint denies, negated and repeated-SID
// subjects, multi-op masks) and the worldgen bases the benchmark's worlds
// install, each compiled on a pf.Optimized engine.
func TestShadowLanesMatchReferenceAtScale(t *testing.T) {
	cfg := pf.Optimized()
	type base struct {
		name  string
		build func() *pf.Engine
	}
	var bases []base
	for _, n := range rulegen.ScaleSizes {
		bases = append(bases, base{fmt.Sprintf("scale-%d", n), func() *pf.Engine {
			w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
			if _, err := w.InstallRules(rulegen.ScaleRuleBase(1, n)); err != nil {
				t.Fatal(err)
			}
			return w.Engine
		}})
	}
	for _, spec := range []worldgen.Spec{worldgen.Small, worldgen.Medium} {
		bases = append(bases, base{"worldgen-" + spec.Name, func() *pf.Engine {
			return worldgen.Build(spec, programs.WorldOpts{PF: &cfg}).Engine
		}})
	}
	for _, b := range bases {
		name, chains := b.name, b.build().Program().Chains()
		an := pf.AnalyzeChains(chains)
		if diff := pf.AnalysisDiff(an, pf.ReferenceAnalysis(chains, an)); diff != "" {
			t.Errorf("%s: %s", name, diff)
			continue
		}
		shadowed := 0
		for _, u := range an.Unreachable {
			if u.Kind == pf.UnreachShadowed {
				shadowed++
			}
		}
		t.Logf("%s: %d findings (%d shadowed), identical to the reference", name, len(an.Unreachable), shadowed)
	}
}
