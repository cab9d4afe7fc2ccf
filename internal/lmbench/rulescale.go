// rulescale.go measures how per-mediation cost scales with the size of the
// installed rule base — the BENCH_rulescale.json trajectory — under the
// fully optimized configuration (pf.Optimized). The compiled decision
// program should hold ns/op nearly flat as the rule count grows; the
// linear walk it replaced survives only as the test oracle.
package lmbench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
)

// RuleScaleCell is one rule-count measurement.
type RuleScaleCell struct {
	Rules   int     `json:"rules"`
	Ops     int     `json:"ops"`
	NsPerOp float64 `json:"ns_per_op"`
	// Allocation rate over the measured interval (MemStats deltas).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// RuleScaleReport is the full sweep.
type RuleScaleReport struct {
	BenchEnv
	Workload string          `json:"workload"`
	Cells    []RuleScaleCell `json:"cells"`
}

// RunRuleScale sweeps the generated rule base over sizes, timing the
// mediated open+close pair (two PF hooks plus directory-search mediation
// per component — the workload most sensitive to rule-base size).
func RunRuleScale(iters int, sizes []int) RuleScaleReport {
	if iters < 1 {
		iters = 1
	}
	rep := RuleScaleReport{
		BenchEnv: Env(),
		Workload: "open+close",
	}
	for _, n := range sizes {
		cfg := pf.Optimized()
		w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
		if _, err := w.InstallRules(rulegen.ScaleRuleBase(1, n)); err != nil {
			panic(err)
		}
		p := parallelProc(w)
		body := func() {
			fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
			if err != nil {
				panic(err)
			}
			p.Close(fd)
		}
		for i := 0; i < iters/10+1; i++ {
			body()
		}
		runtime.GC()
		m0 := readMem()
		start := time.Now()
		for i := 0; i < iters; i++ {
			body()
		}
		el := time.Since(start)
		m1 := readMemNow()
		rep.Cells = append(rep.Cells, RuleScaleCell{
			Rules:       n,
			Ops:         iters,
			NsPerOp:     float64(el.Nanoseconds()) / float64(iters),
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(iters),
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters),
		})
	}
	return rep
}

// FormatRuleScale renders the sweep as a table with growth factors
// relative to the smallest size.
func FormatRuleScale(rep RuleScaleReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rule-base scaling, %s (ns/op; NumCPU=%d GOMAXPROCS=%d)\n",
		rep.Workload, rep.NumCPU, rep.GOMAXPROCS)
	fmt.Fprintf(&b, "%10s %12s %8s %10s\n", "rules", "ns/op", "vs min", "allocs/op")
	for _, c := range rep.Cells {
		fmt.Fprintf(&b, "%10d %12.1f %7.2fx %10.2f\n",
			c.Rules, c.NsPerOp, c.NsPerOp/rep.Cells[0].NsPerOp, c.AllocsPerOp)
	}
	return b.String()
}
