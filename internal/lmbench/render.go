// render.go prints any report as one Markdown table: pfbench prints it
// for every bench it runs, and EXPERIMENTS.md quotes it for every
// checked-in BENCH_*.json (TestExperimentsQuoteBenchFiles).
package lmbench

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// column is one field of Cell as a table column; text returns "" when the
// cell leaves the field at zero, and the row prints zero instead: "0" for
// allocs/op and B/op, where a zero is the measurement the alloc gate
// reads, and nothing elsewhere.
type column struct {
	head, zero string
	text       func(c Cell) string
}

var columns = []column{
	{"workload", "", func(c Cell) string { return c.Workload }},
	{"config", "", func(c Cell) string { return c.Config }},
	{"rules", "", func(c Cell) string { return num(float64(c.Rules)) }},
	{"world", "", func(c Cell) string { return c.World }},
	{"goroutines", "", func(c Cell) string { return num(float64(c.Goroutines)) }},
	{"rounds", "", func(c Cell) string { return num(float64(c.Rounds)) }},
	{"ops", "", func(c Cell) string { return num(float64(c.Ops)) }},
	{"ns/op", "", func(c Cell) string { return num(c.NsPerOp) }},
	{"IQR ns", "", func(c Cell) string { return num(c.IQRNs) }},
	{"ops/s", "", func(c Cell) string { return num(c.OpsPerSec) }},
	{"p50 ns", "", func(c Cell) string { return num(c.P50Ns) }},
	{"p99 ns", "", func(c Cell) string { return num(c.P99Ns) }},
	{"p99.9 ns", "", func(c Cell) string { return num(c.P999Ns) }},
	{"allocs/op", "0", func(c Cell) string { return num(c.AllocsPerOp) }},
	{"B/op", "0", func(c Cell) string { return num(c.BytesPerOp) }},
	{"overhead", "", func(c Cell) string { return pct(c.OverheadPct) }},
	{"best round", "", func(c Cell) string { return pct(c.BestRoundPct) }},
	{"counts", "", func(c Cell) string {
		var kv []string
		for k, v := range c.Counts {
			kv = append(kv, k+"="+cmp.Or(num(v), "0"))
		}
		slices.Sort(kv)
		return strings.Join(kv, " ")
	}},
}

// Markdown renders rep: a caption naming its file and environment, then
// one row per cell and one column per field any cell sets.
func Markdown(rep Report) string {
	var cols []column
	for _, col := range columns {
		for _, c := range rep.Cells {
			if col.text(c) != "" {
				cols = append(cols, col)
				break
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "`%s`: num_cpu %d, gomaxprocs %d", FileName(rep.Bench, rep.Smoke), rep.NumCPU, rep.GOMAXPROCS)
	if rep.Iters > 0 {
		fmt.Fprintf(&b, ", iters %d", rep.Iters)
	}
	b.WriteString("\n\n|")
	for _, col := range cols {
		b.WriteString(" " + col.head + " |")
	}
	b.WriteString("\n|" + strings.Repeat("---|", len(cols)) + "\n")
	for _, c := range rep.Cells {
		b.WriteString("|")
		for _, col := range cols {
			b.WriteString(" " + cmp.Or(col.text(c), col.zero) + " |")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// num prints whole numbers and anything from 100 up without decimals, and
// smaller fractions to three significant digits.
func num(v float64) string {
	switch {
	case v == 0:
		return ""
	case v == math.Trunc(v) || math.Abs(v) >= 100:
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}

func pct(v float64) string {
	if v == 0 {
		return ""
	}
	return fmt.Sprintf("%+.1f%%", v)
}
