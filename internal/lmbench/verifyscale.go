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
	"fmt"
	"strings"
	"time"

	"pfirewall/internal/pf"
	"pfirewall/internal/pfverify"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
)

// VerifyScaleSizes is the standard sweep: small, the paper-scale base,
// and deployment scale.
var VerifyScaleSizes = []int{100, 1200, 10000}

// VerifyBudget is the wall-clock budget for one full invariant sweep at
// the largest standard size; the gate (pfbench -verify-gate) enforces it.
const VerifyBudget = 10 * time.Second

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

// VerifyScaleCell is one rule-base size's sweep measurement.
type VerifyScaleCell struct {
	Rules      int `json:"rules"`
	Labels     int `json:"labels"`
	Invariants int `json:"invariants"`
	Points     int `json:"points"`
	// Holds: every invariant proven (the bench seeds no violations, so
	// anything else is a verifier regression).
	Holds      bool    `json:"holds"`
	TotalNs    int64   `json:"total_ns"`
	NsPerPoint float64 `json:"ns_per_point"`
}

// VerifyScaleReport is the full verifier-scale measurement.
type VerifyScaleReport struct {
	BenchEnv
	BudgetNs int64             `json:"budget_ns"`
	Cells    []VerifyScaleCell `json:"cells"`
}

// WithinBudget reports whether the largest swept cell finished inside
// VerifyBudget.
func (rep *VerifyScaleReport) WithinBudget() bool {
	for _, c := range rep.Cells {
		if c.TotalNs > rep.BudgetNs {
			return false
		}
	}
	return true
}

// RunVerifyScale sweeps the bench invariants over synthetic rule bases of
// each size and times the full Check pass (one warm-up sweep per cell, so
// lazily-derived engine state is settled before the measured run).
func RunVerifyScale(sizes []int) VerifyScaleReport {
	if len(sizes) == 0 {
		sizes = VerifyScaleSizes
	}
	rep := VerifyScaleReport{BenchEnv: Env(), BudgetNs: VerifyBudget.Nanoseconds()}
	invs, err := pfverify.ParseInvariants("<verifyscale>", verifyInvariants)
	if err != nil {
		panic(err)
	}
	for _, n := range sizes {
		cfg := pf.Optimized()
		w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
		lines := append(append([]string{}, verifyGuardRules...), rulegen.ScaleRuleBase(1, n)...)
		if _, err := w.InstallRules(lines); err != nil {
			panic(err)
		}
		tbl := w.K.Policy.SIDs()
		ev := pfverify.FromEngine(w.Engine)
		pfverify.Check(ev, tbl, invs) // warm-up
		t0 := time.Now()
		chk := pfverify.Check(pfverify.FromEngine(w.Engine), tbl, invs)
		elapsed := time.Since(t0).Nanoseconds()
		cell := VerifyScaleCell{
			Rules:      w.Engine.RuleCount(),
			Labels:     len(tbl.Labels()),
			Invariants: len(chk.Results),
			Points:     chk.Points,
			Holds:      true,
			TotalNs:    elapsed,
		}
		for _, res := range chk.Results {
			if !res.Holds || !res.Definitely {
				cell.Holds = false
			}
		}
		if chk.Points > 0 {
			cell.NsPerPoint = float64(elapsed) / float64(chk.Points)
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep
}

// FormatVerifyScale renders the sweep.
func FormatVerifyScale(rep VerifyScaleReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Verifier scaling: full invariant sweep vs rule-base size (budget %s, NumCPU=%d GOMAXPROCS=%d)\n",
		time.Duration(rep.BudgetNs), rep.NumCPU, rep.GOMAXPROCS)
	fmt.Fprintf(&b, "%8s %8s %6s %8s %6s %12s %10s\n", "rules", "labels", "invs", "points", "holds", "sweep", "ns/point")
	for _, c := range rep.Cells {
		fmt.Fprintf(&b, "%8d %8d %6d %8d %6v %12s %10.0f\n",
			c.Rules, c.Labels, c.Invariants, c.Points, c.Holds,
			time.Duration(c.TotalNs).Round(time.Microsecond), c.NsPerPoint)
	}
	return b.String()
}
