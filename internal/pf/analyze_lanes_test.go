package pf

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// --- shadow-lane differential --------------------------------------------
//
// AnalyzeChains looks for a rule's shadower only in the lanes that can hold
// one (shadowSearch.probe). The contract is that the lanes lose no
// candidate: referenceAnalysis tests every earlier live terminal rule of the
// chain, in chain order, and every finding must come out identical —
// shadowed rule, kind, shadower, its index and the same-verdict flag. The
// external tests (analyze_scale_test.go) hold the lanes to the same
// reference over rulegen's scale bases and the worldgen rule bases.

// referenceAnalysis recomputes an's per-rule findings with the O(n²)
// shadow search. The jump-graph results (op contexts, cycles) are an's:
// the lanes do not touch them.
func referenceAnalysis(chains map[string]*Chain, an *RulesetAnalysis) *RulesetAnalysis {
	ref := &RulesetAnalysis{Cycles: an.Cycles, OpContext: an.OpContext}
	names := make([]string, 0, len(chains))
	for name := range chains {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		c, cctx := chains[name], an.OpContext[name]
		if cctx == 0 {
			if _, builtin := builtinOpContext[name]; !builtin {
				ref.DeadChains = append(ref.DeadChains, name)
				for i, r := range c.Rules {
					ref.Unreachable = append(ref.Unreachable, Unreachable{Chain: name, Index: i, Rule: r, Kind: UnreachDeadChain, ByIndex: -1})
				}
			}
			continue
		}
		var s shadowSearch
		mutBetween := s.mutations(c)
		var cands []shadowCand
	rules:
		for j, r := range c.Rules {
			if kind := neverMatches(r, cctx); kind != 0 {
				ref.Unreachable = append(ref.Unreachable, Unreachable{Chain: name, Index: j, Rule: r, Kind: kind, ByIndex: -1})
				continue
			}
			for _, a := range cands {
				if coverageShadows(a, r, mutBetween, j) {
					ref.Unreachable = append(ref.Unreachable, Unreachable{
						Chain: name, Index: j, Rule: r, Kind: UnreachShadowed,
						By: a.r, ByIndex: a.idx, SameVerdict: sameOutcome(a.r.Target, r.Target),
					})
					continue rules
				}
			}
			if cand, ok := candidateOf(j, r); ok {
				cands = append(cands, cand)
			}
		}
	}
	return ref
}

// analysisDiff describes the first difference between two analyses, or
// returns "" when they are identical (rules compared by identity).
func analysisDiff(got, want *RulesetAnalysis) string {
	for i := range max(len(got.Unreachable), len(want.Unreachable)) {
		var g, w Unreachable
		if i < len(got.Unreachable) {
			g = got.Unreachable[i]
		}
		if i < len(want.Unreachable) {
			w = want.Unreachable[i]
		}
		if g != w {
			return fmt.Sprintf("finding %d: got %s#%d %v by #%d (same=%v), want %s#%d %v by #%d (same=%v)",
				i, g.Chain, g.Index, g.Kind, g.ByIndex, g.SameVerdict, w.Chain, w.Index, w.Kind, w.ByIndex, w.SameVerdict)
		}
	}
	switch {
	case !slices.Equal(got.DeadChains, want.DeadChains):
		return fmt.Sprintf("dead chains %v, want %v", got.DeadChains, want.DeadChains)
	case !reflect.DeepEqual(got.Cycles, want.Cycles):
		return fmt.Sprintf("cycles %v, want %v", got.Cycles, want.Cycles)
	case !maps.Equal(got.OpContext, want.OpContext):
		return fmt.Sprintf("op contexts %v, want %v", got.OpContext, want.OpContext)
	}
	return ""
}

// TestShadowLanesMatchReference runs the lanes against the reference over
// the rulesets TestAnalyzeUnreachableSoundness draws: 350 seeds of 1-14
// rules with jumps, returns, negated and repeated-SID sets, entrypoint
// rules, empty op masks and STATE matches.
func TestShadowLanesMatchReference(t *testing.T) {
	pol := testPolicy()
	shadowed := 0
	for iter := 0; iter < 350; iter++ {
		rng := &diffRNG{s: uint64(iter)*2654435761 + 1}
		chains := []string{"input", "input", "input", "syscallbegin", "mangle/input", "u0", "u1"}
		userChains := []string{"u0", "u1"}
		nRules := 1 + rng.intn(14)
		specs := make([]*ruleSpec, 0, nRules)
		for i := 0; i < nRules; i++ {
			s := genRuleSpec(rng, pol, chains, userChains, false)
			if s.chain == "u0" || s.chain == "u1" {
				s = genRuleSpec(rng, pol, []string{s.chain}, userChains, true)
			}
			specs = append(specs, s)
		}
		d := newDiffEngine(t, pol, Optimized(), specs, userChains)
		chainMap := d.e.rs.Load().chains
		an := AnalyzeChains(chainMap)
		if diff := analysisDiff(an, referenceAnalysis(chainMap, an)); diff != "" {
			t.Fatalf("iter %d: %s", iter, diff)
		}
		for _, u := range an.Unreachable {
			if u.Kind == UnreachShadowed {
				shadowed++
			}
		}
	}
	if shadowed == 0 {
		t.Fatal("no ruleset had a shadowed rule — the differential is vacuous")
	}
	t.Logf("%d shadowed findings, all identical to the reference", shadowed)
}
