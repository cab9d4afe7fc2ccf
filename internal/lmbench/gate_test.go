package lmbench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot holds the checked-in BENCH_*.json files and EXPERIMENTS.md.
const repoRoot = "../.."

// loadReport decodes a checked-in report, refusing any field outside the
// shared schema.
func loadReport(t *testing.T, path string) Report {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return rep
}

// clone deep-copies rep.
func clone(t *testing.T, rep Report) Report {
	t.Helper()
	buf, _ := json.Marshal(rep)
	var cp Report
	if err := json.Unmarshal(buf, &cp); err != nil {
		t.Fatal(err)
	}
	return cp
}

// edit returns a copy of rep with f applied to the first cell matching
// workload, config and goroutines.
func edit(t *testing.T, rep Report, workload, config string, goroutines int, f func(c *Cell)) Report {
	t.Helper()
	cp := clone(t, rep)
	c := find(cp, workload, config, goroutines)
	if c == nil {
		t.Fatalf("no %s/%s/%d cell", workload, config, goroutines)
	}
	f(c)
	return cp
}

// drop returns rep without the cells reject names.
func drop(rep Report, reject func(c Cell) bool) Report {
	cp := rep
	cp.Cells = nil
	for _, c := range rep.Cells {
		if !reject(c) {
			cp.Cells = append(cp.Cells, c)
		}
	}
	return cp
}

// withSpeedup returns a copy of rep whose largest incremental publish cell
// counts the given speedup.
func withSpeedup(t *testing.T, rep Report, speedup float64) Report {
	cp := clone(t, rep)
	var inc *Cell
	for i, c := range cp.Cells {
		if c.Config == "incremental" && (inc == nil || c.Rules > inc.Rules) {
			inc = &cp.Cells[i]
		}
	}
	inc.Counts["speedup"] = speedup
	return cp
}

// gated returns a copy of rep whose gated cell — single-goroutine
// open+stat+close OBS against COUNTERS — has the given best round.
func gated(t *testing.T, rep Report, best float64) Report {
	t.Helper()
	cp := clone(t, rep)
	for i := 1; i < len(cp.Cells); i++ {
		if c := &cp.Cells[i]; c.Config == "OBS" && c.Workload == "open+stat+close" && c.Goroutines == 1 && cp.Cells[i-1].Config == "COUNTERS" {
			c.BestRoundPct = best
			return cp
		}
	}
	t.Fatal("no gated obs cell")
	return cp
}

// TestGates runs every gate on its checked-in report, which must pass, and
// on synthetic reports that each break one budget, which must fail.
func TestGates(t *testing.T) {
	load := func(name string) Report { return loadReport(t, filepath.Join(repoRoot, FileName(name, false))) }
	alloc, obs, policy, verify := load("alloc"), load("obs"), load("policy"), load("verify")
	trimmed := drop(policy, func(c Cell) bool { return c.Workload == "publish" && c.Rules == 10000 })
	cases := []struct {
		name string
		gate func(Report) error
		rep  Report
		pass bool
	}{
		{"alloc checked in", allocGate, alloc, true},
		{"alloc open+close allocates", allocGate, edit(t, alloc, "open+close", "", 0, func(c *Cell) { c.AllocsPerOp = 0.0005 }), false},
		{"alloc stat allocates", allocGate, edit(t, alloc, "stat", "", 0, func(c *Cell) { c.AllocsPerOp = 1 }), false},
		{"alloc sendmmsg over count", allocGate, edit(t, alloc, "sendmmsg-8", "", 0, func(c *Cell) { c.AllocsPerOp = 7 }), false},
		{"alloc sendmmsg over bytes", allocGate, edit(t, alloc, "sendmmsg-8", "", 0, func(c *Cell) { c.BytesPerOp = 216 }), false},
		{"alloc without open+close", allocGate, drop(alloc, func(c Cell) bool { return c.Workload == "open+close" }), false},

		{"obs checked in", obsGate, obs, true},
		{"obs over budget", obsGate, gated(t, obs, 10.5), false},
		{"obs at budget", obsGate, gated(t, obs, 10), true},
		{"obs full cost over budget", obsGate, edit(t, obs, "open+stat+close", "OBS", 1, func(c *Cell) { c.BestRoundPct = 50 }), true},
		{"obs without counters arm", obsGate, drop(obs, func(c Cell) bool { return c.Config == "COUNTERS" }), false},
		{"obs without OBS arm", obsGate, drop(obs, func(c Cell) bool { return c.Config == "OBS" }), false},

		{"policy checked in", policyGate, policy, true},
		{"policy 9.9x at 10k", policyGate, withSpeedup(t, policy, 9.9), false},
		{"policy 10x at 10k", policyGate, withSpeedup(t, policy, 10), true},
		{"policy trimmed", policyGate, trimmed, true},
		{"policy trimmed 1.4x", policyGate, withSpeedup(t, trimmed, 1.4), false},
		{"policy trimmed 1.5x", policyGate, withSpeedup(t, trimmed, 1.5), true},
		{"policy stale verdict", policyGate, edit(t, policy, "propagation", "", 0, func(c *Cell) { c.Counts["stale"] = 1 }), false},
		{"policy verdict lost", policyGate, edit(t, policy, "disturbance", "churn", 0, func(c *Cell) { c.Counts["requests"]++ }), false},
		{"policy disturbed", policyGate, edit(t, policy, "disturbance", "churn", 0, func(c *Cell) { c.BestRoundPct = 10.1 }), false},
		{"policy without propagation", policyGate, drop(policy, func(c Cell) bool { return c.Workload == "propagation" }), false},

		{"verify checked in", verifyGate, verify, true},
		{"verify unproved", verifyGate, edit(t, verify, "sweep", "", 0, func(c *Cell) { c.Counts["unproved"] = 1 }), false},
		{"verify over budget", verifyGate, edit(t, verify, "sweep", "", 0, func(c *Cell) { c.Counts["total_ns"] = 11e9 }), false},
		{"verify empty", verifyGate, drop(verify, func(Cell) bool { return true }), false},
	}
	for _, c := range cases {
		err := c.gate(c.rep)
		if (err == nil) != c.pass {
			t.Errorf("%s: gate error %v, want pass=%v", c.name, err, c.pass)
		}
	}
}

// TestExperimentsQuoteBenchFiles: every table EXPERIMENTS.md quotes from a
// checked-in BENCH_*.json is the renderer's output for that file, so the
// document cannot drift from the artifacts. On a mismatch, paste the
// printed rendering over the stale table.
func TestExperimentsQuoteBenchFiles(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(repoRoot, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range files {
		if strings.HasSuffix(f, "_smoke.json") {
			continue // untracked CI artifacts
		}
		n++
		rep := loadReport(t, f)
		if md := Markdown(rep); !strings.Contains(string(doc), md) {
			t.Errorf("EXPERIMENTS.md does not quote %s; its rendering is:\n%s", filepath.Base(f), md)
		}
	}
	if n == 0 {
		t.Fatal("no checked-in BENCH_*.json files")
	}
}
