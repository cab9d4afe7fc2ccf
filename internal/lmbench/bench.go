// bench.go names the benches: each is a grid of cell specs (a full grid
// and the trimmed -smoke grid CI runs), the runner that measures one spec,
// and the gate its report must pass.
package lmbench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pfirewall/internal/rulegen"
)

// Bench is one named bench.
type Bench struct {
	Name string
	// Iters is the default op count per goroutine and arm of a full run
	// and of a -smoke run (split over the runner's rounds).
	Iters [2]int
	Grid  func(smoke bool) []Spec
	// Cell measures one spec; nil selects the paired-round runner.
	Cell func(s Spec, o Opts) []Cell
	// Gate fails a report that breaks the bench's budget; nil: no gate.
	Gate func(Report) error
}

// Opts are the run-time choices of one bench run.
type Opts struct {
	Iters int  // ops per goroutine and arm; 0 selects the bench's default
	Smoke bool // run the trimmed grid
}

// The sendmmsg-8 allocation budget the alloc gate enforces: the data plane
// hands each received message out as a fresh byte slice. The recorded
// figure (BENCH_alloc.json) is the ceiling; lower these when the row
// improves, never raise them.
const (
	sendmmsgAllocs = 6
	sendmmsgBytes  = 208
)

// VerifyBudget is the wall-clock budget for one full invariant sweep; the
// verify gate enforces it on every cell.
const VerifyBudget = 10 * time.Second

// Benches returns every bench in run order.
func Benches() []Bench {
	armed := func(workloads []string, fanout []int, arms ...string) []Spec {
		var specs []Spec
		for _, wl := range workloads {
			for _, g := range fanout {
				specs = append(specs, Spec{Workload: wl, Arms: arms, Rules: FullRuleBaseSize, Goroutines: g})
			}
		}
		return specs
	}
	fanout := []int{1, 4, 8}
	return []Bench{
		// One row's six columns run back to back in every round.
		{Name: "table6", Iters: [2]int{20000, 2000}, Grid: func(bool) []Spec {
			var rows, cols []string
			for _, wl := range Workloads() {
				rows = append(rows, wl.Name)
			}
			for _, c := range Configs() {
				cols = append(cols, c.Name)
			}
			return armed(rows, []int{1}, cols...)
		}},
		{Name: "hotpath", Iters: [2]int{20000, 2000}, Grid: func(bool) []Spec {
			return armed([]string{"open+close", "stat"}, fanout, "EPTSPC")
		}},
		{Name: "ipc", Iters: [2]int{20000, 2000}, Grid: func(bool) []Spec {
			return armed([]string{"ipc/fs", "ipc/abstract", "ipc/port"}, fanout, "EPTSPC")
		}},
		// Observability off vs on (the full cost, reported), then
		// counters only vs on (the sampled spans, gated).
		{Name: "obs", Iters: [2]int{100000, 40000}, Grid: func(bool) []Spec {
			wls := []string{"open+stat+close", "ipc/abstract"}
			return append(armed(wls, fanout, "EPTSPC", "OBS"), armed(wls, fanout, "COUNTERS", "OBS")...)
		}, Gate: obsGate},
		{Name: "rulescale", Iters: [2]int{50000, 4000}, Grid: func(smoke bool) []Spec {
			var specs []Spec
			for _, n := range sizes(smoke) {
				specs = append(specs, Spec{Workload: "open+close", Arms: []string{"EPTSPC"}, Rules: n, Scale: true, Goroutines: 1})
			}
			return specs
		}},
		{Name: "alloc", Iters: [2]int{20000, 4000}, Grid: func(bool) []Spec {
			return armed([]string{"null", "stat", "open+close", "fstat", "sendmmsg-8"}, []int{1}, "EPTSPC")
		}, Gate: allocGate},
		{Name: "policy", Iters: [2]int{20000, 6000}, Grid: policyGrid, Cell: policyCell, Gate: policyGate},
		{Name: "verify", Grid: func(smoke bool) []Spec {
			var specs []Spec
			for _, n := range sizes(smoke) {
				specs = append(specs, Spec{Workload: "sweep", Rules: n})
			}
			return specs
		}, Cell: sweepCell, Gate: verifyGate},
		{Name: "worldscale", Grid: worldGrid, Cell: fleetCell},
	}
}

// sizes is the rule-base sweep of the rulescale, policy and verify
// benches; -smoke drops the 10k-rule cells.
func sizes(smoke bool) []int {
	if smoke {
		return []int{100, 1200}
	}
	return rulegen.ScaleSizes
}

// Lookup finds a bench by name.
func Lookup(name string) (Bench, bool) {
	for _, b := range Benches() {
		if b.Name == name {
			return b, true
		}
	}
	return Bench{}, false
}

// Run measures b over its grid.
func Run(b Bench, o Opts) Report {
	if o.Iters <= 0 {
		o.Iters = b.Iters[0]
		if o.Smoke {
			o.Iters = b.Iters[1]
		}
	}
	return runGrid(b, b.Grid(o.Smoke), o)
}

// runGrid measures b over grid.
func runGrid(b Bench, grid []Spec, o Opts) Report {
	rep := Report{Bench: b.Name, Smoke: o.Smoke, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Iters: o.Iters}
	cell := b.Cell
	if cell == nil {
		cell = runPaired
	}
	for _, s := range grid {
		rep.Cells = append(rep.Cells, cell(s, o)...)
	}
	return rep
}

// FileName is where pfbench -json writes a bench's report.
func FileName(bench string, smoke bool) string {
	if smoke {
		return "BENCH_" + bench + "_smoke.json"
	}
	return "BENCH_" + bench + ".json"
}

// find returns the first cell matching workload, config and goroutines
// (zero matches any), or nil.
func find(rep Report, workload, config string, goroutines int) *Cell {
	for i, c := range rep.Cells {
		if c.Workload == workload && (config == "" || c.Config == config) && (goroutines == 0 || c.Goroutines == goroutines) {
			return &rep.Cells[i]
		}
	}
	return nil
}

// allocGate: the single-syscall file rows allocate nothing on the armed
// hot path, and sendmmsg-8 stays inside its recorded budget.
func allocGate(rep Report) error {
	for _, wl := range []string{"open+close", "stat"} {
		c := find(rep, wl, "", 0)
		if c == nil {
			return fmt.Errorf("no %s cell", wl)
		}
		if c.AllocsPerOp != 0 {
			return fmt.Errorf("%s allocates %.3f/op on the armed hot path, want 0", wl, c.AllocsPerOp)
		}
	}
	c := find(rep, "sendmmsg-8", "", 0)
	if c == nil {
		return fmt.Errorf("no sendmmsg-8 cell")
	}
	if math.Round(c.AllocsPerOp) > sendmmsgAllocs || math.Round(c.BytesPerOp) > sendmmsgBytes {
		return fmt.Errorf("sendmmsg-8 allocates %.3f/op, %.1f B/op; budget %d/op, %d B/op",
			c.AllocsPerOp, c.BytesPerOp, sendmmsgAllocs, sendmmsgBytes)
	}
	return nil
}

// obsGate reads the single-goroutine file cell that runs OBS against
// COUNTERS, which isolates the cost of the sampled spans and the
// histograms they feed (the fan-out cells on a small box mostly measure
// scheduler interference), and judges its best paired round: interference
// inflates both sides of a round and cancels in the ratio, so only a cost
// present in every round fails.
func obsGate(rep Report) error {
	for i := 1; i < len(rep.Cells); i++ {
		base, c := rep.Cells[i-1], rep.Cells[i]
		if base.Config != "COUNTERS" || c.Config != "OBS" || c.Workload != "open+stat+close" ||
			base.Workload != c.Workload || c.Goroutines != 1 || base.Goroutines != 1 {
			continue
		}
		if c.BestRoundPct > 10 {
			return fmt.Errorf("sampled spans cost %.1f%% on the open path in every round, budget 10%%", c.BestRoundPct)
		}
		return nil
	}
	return fmt.Errorf("no single-goroutine open+stat+close OBS cell paired with COUNTERS")
}

// policyGate: at deployment scale (10k rules) incremental publish beats a
// full rebuild by 10x, a trimmed sweep still by 1.5x; no probe sees a
// stale verdict after its publish round trip; every request resolves to
// a verdict; the open path's best-round p99 degrades at most 10% while
// churning; and the analysis grows about linearly: from the next size to
// the largest, its ns/op grows at most 3x the rule count's growth.
func policyGate(rep Report) error {
	var inc *Cell
	for i, c := range rep.Cells {
		if c.Workload == "publish" && c.Config == "incremental" && (inc == nil || c.Rules > inc.Rules) {
			inc = &rep.Cells[i]
		}
	}
	prop, churn := find(rep, "propagation", "", 0), find(rep, "disturbance", "churn", 0)
	if inc == nil || prop == nil || churn == nil {
		return fmt.Errorf("report lacks a publish, propagation or churn cell")
	}
	need := 10.0
	if inc.Rules < 10000 {
		need = 1.5
	}
	if s := inc.Counts["speedup"]; s < need {
		return fmt.Errorf("incremental publish only %.1fx faster than full rebuild at %d rules, want >=%.1fx", s, inc.Rules, need)
	}
	if n := prop.Counts["stale"]; n != 0 {
		return fmt.Errorf("%.0f probes saw a stale verdict after a completed publish", n)
	}
	if k := churn.Counts; k["requests"] != k["accepts"]+k["drops"] {
		return fmt.Errorf("verdicts not conserved under churn: %.0f requests vs %.0f accepts + %.0f drops",
			k["requests"], k["accepts"], k["drops"])
	}
	if churn.BestRoundPct > 10 {
		return fmt.Errorf("open-path p99 degrades %.1f%% in every churning round, budget 10%%", churn.BestRoundPct)
	}
	var analyzed []Cell
	for _, c := range rep.Cells {
		if c.Workload == "analyze" {
			analyzed = append(analyzed, c)
		}
	}
	if len(analyzed) < 2 {
		return fmt.Errorf("report lacks analyze cells at two sizes")
	}
	prev, last := analyzed[len(analyzed)-2], analyzed[len(analyzed)-1]
	if g, bound := last.Counts["growth"], 3*float64(last.Rules)/float64(prev.Rules); g > bound {
		return fmt.Errorf("analysis grows %.1fx from %d to %d rules, bound %.1fx", g, prev.Rules, last.Rules, bound)
	}
	return nil
}

// verifyGate: every invariant proves definitely at every size, and every
// sweep lands inside VerifyBudget.
func verifyGate(rep Report) error {
	if len(rep.Cells) == 0 {
		return fmt.Errorf("no sweep cells")
	}
	for _, c := range rep.Cells {
		if c.Counts["unproved"] != 0 || c.Counts["invariants"] == 0 {
			return fmt.Errorf("invariants not proven at %d rules", c.Rules)
		}
		if c.Counts["total_ns"] > float64(VerifyBudget.Nanoseconds()) {
			return fmt.Errorf("the %d-rule sweep took %s, budget %s", c.Rules,
				time.Duration(c.Counts["total_ns"]), VerifyBudget)
		}
	}
	return nil
}
