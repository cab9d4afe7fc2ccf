// verifyscale.go measures the symbolic policy verifier — the
// BENCH_verify.json artifact. The question: how does a full invariant
// sweep (pfverify.Check over every abstract point in scope) scale with
// the installed rule-base size? The verifier interprets the engine's own
// compiled decision program, whose buckets are keyed by op and subject
// SID, so sweep cost should grow with the label universe, not the raw
// rule count — at deployment scale (10k rules) the whole proof must still
// land under a CI-friendly wall-clock budget.
package lmbench

import (
	"time"

	"pfirewall/internal/pf"
	"pfirewall/internal/pfverify"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
)

// verifyGuardRules are prepended to the synthetic base so the bench
// invariants have something to prove: a subjectless unlink guard on the
// secret label (swept against every interned subject label — the wide
// cell) and a per-subject open guard across the scale objects.
var verifyGuardRules = []string{
	`pftables -I input -d {vrf_secret_t} -o FILE_UNLINK -j DROP`,
	`pftables -I input -s {vrf_guard_t} -d {scl_obj00_t|scl_obj01_t|scl_obj02_t|scl_obj03_t|scl_obj04_t|scl_obj05_t|scl_obj06_t|scl_obj07_t|scl_obj08_t|scl_obj09_t|scl_obj10_t|scl_obj11_t|scl_obj12_t|scl_obj13_t|scl_obj14_t|scl_obj15_t|scl_obj16_t|scl_obj17_t|scl_obj18_t|scl_obj19_t|scl_obj20_t|scl_obj21_t|scl_obj22_t|scl_obj23_t} -o FILE_OPEN -j DROP`,
}

// verifyInvariants are the properties swept at every size. The wide cell
// enumerates every subject label the rule base interned (so its point
// count grows with the base), the narrow cell pins one subject across
// the 24 scale objects.
const verifyInvariants = `
invariant scale-secret-unlink {
    require DROP
    op FILE_UNLINK
    subject any
    object vrf_secret_t
}

invariant scale-guard-open {
    require DROP
    op FILE_OPEN
    subject vrf_guard_t
    object scl_obj??_t
}
`

// sweepCell sweeps the bench invariants over a synthetic scale base of
// s.Rules rules and times the full Check pass (after one warm-up sweep, so
// lazily derived engine state is settled). One op is one abstract point;
// the cell counts the invariants, those not proven definitely (the bench
// seeds no violations, so any is a verifier regression), the interned
// labels and the sweep's wall clock.
func sweepCell(s Spec, _ Opts) []Cell {
	invs := must(pfverify.ParseInvariants("<verifyscale>", verifyInvariants))
	cfg := pf.Optimized()
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
	must(w.InstallRules(append(append([]string{}, verifyGuardRules...), rulegen.ScaleRuleBase(1, s.Rules)...)))
	tbl := w.K.Policy.SIDs()
	pfverify.Check(pfverify.FromEngine(w.Engine), tbl, invs) // warm-up
	t0 := time.Now()
	chk := pfverify.Check(pfverify.FromEngine(w.Engine), tbl, invs)
	elapsed := float64(time.Since(t0).Nanoseconds())
	unproved := 0
	for _, res := range chk.Results {
		if !res.Holds || !res.Definitely {
			unproved++
		}
	}
	return []Cell{{
		Workload: "sweep",
		Rules:    w.Engine.RuleCount(),
		Ops:      int64(chk.Points),
		NsPerOp:  elapsed / float64(max(chk.Points, 1)),
		Counts: map[string]float64{
			"labels":     float64(len(tbl.Labels())),
			"invariants": float64(len(chk.Results)),
			"unproved":   float64(unproved),
			"total_ns":   elapsed,
		},
	}}
}
