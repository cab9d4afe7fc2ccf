package lmbench

import "testing"

func TestConfigsMatchPaperColumns(t *testing.T) {
	want := []string{"DISABLED", "BASE", "FULL", "CONCACHE", "LAZYCON", "EPTSPC"}
	cfgs := Configs()
	if len(cfgs) != len(want) {
		t.Fatalf("configs = %d, want %d", len(cfgs), len(want))
	}
	for i, c := range cfgs {
		if c.Name != want[i] {
			t.Errorf("config %d = %q, want %q", i, c.Name, want[i])
		}
	}
	// Monotone optimization flags, as in the paper: "each column except
	// the last incorporates optimizations of the previous column".
	if cfgs[3].Engine.CtxCache != true || cfgs[4].Engine.LazyCtx != true || cfgs[5].Engine.EptChains != true {
		t.Error("optimization flags not cumulative")
	}
}

func TestWorkloadsMatchPaperRows(t *testing.T) {
	want := []string{"null", "stat", "read", "write", "fstat", "open+close",
		"fork+exit", "fork+execve", "fork+sh -c"}
	wls := Workloads()
	if len(wls) != len(want) {
		t.Fatalf("workloads = %d, want %d", len(wls), len(want))
	}
	for i, wl := range wls {
		if wl.Name != want[i] {
			t.Errorf("workload %d = %q, want %q", i, wl.Name, want[i])
		}
	}
}

func TestSyntheticRuleBaseSizeAndValidity(t *testing.T) {
	rules := SyntheticRuleBase(FullRuleBaseSize)
	if len(rules) != 1218 {
		t.Fatalf("rule base = %d, want 1218 (the paper's deployment size)", len(rules))
	}
	// Every rule must install (World panics otherwise).
	w := World(Config{Name: "FULL", Attach: true, Rules: true}, rules)
	if got := w.Engine.RuleCount(); got != 1218 {
		t.Errorf("installed = %d, want 1218", got)
	}
}

func TestEveryWorkloadRunsUnderEveryConfig(t *testing.T) {
	// Smoke: each cell completes a few iterations without error and
	// reports a positive latency.
	b, _ := Lookup("table6")
	rep := Run(b, Opts{Iters: 20})
	if len(rep.Cells) != len(Workloads())*len(Configs()) {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), len(Workloads())*len(Configs()))
	}
	for i, c := range rep.Cells {
		wl, cfg := Workloads()[i/len(Configs())], Configs()[i%len(Configs())]
		if c.NsPerOp <= 0 {
			t.Errorf("%s/%s: ns/op = %v", wl.Name, cfg.Name, c.NsPerOp)
		}
		if c.Workload != wl.Name || c.Config != cfg.Name {
			t.Errorf("cell labels wrong: %+v", c)
		}
	}
}

func TestFormatTable6Layout(t *testing.T) {
	rep := Report{Bench: "table6", NumCPU: 2, GOMAXPROCS: 2, Iters: 100, Cells: []Cell{
		{Workload: "stat", Config: "DISABLED", Ops: 100, NsPerOp: 100},
		{Workload: "stat", Config: "BASE", Ops: 100, NsPerOp: 110, OverheadPct: 10},
		{Workload: "stat", Config: "FULL", Ops: 100, NsPerOp: 200, OverheadPct: 100, Counts: map[string]float64{"stale": 0}},
	}}
	want := "`BENCH_table6.json`: num_cpu 2, gomaxprocs 2, iters 100\n\n" +
		"| workload | config | ops | ns/op | overhead | counts |\n" +
		"|---|---|---|---|---|---|\n" +
		"| stat | DISABLED | 100 | 100 |  |  |\n" +
		"| stat | BASE | 100 | 110 | +10.0% |  |\n" +
		"| stat | FULL | 100 | 200 | +100.0% | stale=0 |\n"
	if got := Markdown(rep); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestEptspcBeatsFullScan(t *testing.T) {
	// The core Table 6 claim, asserted as an inequality rather than a
	// number: with the 1218-rule base, the fully optimized engine is much
	// cheaper per open than the unoptimized one.
	cells := runPaired(Spec{Workload: "open+close", Arms: []string{"FULL", "EPTSPC"}, Rules: FullRuleBaseSize}, Opts{Iters: 400})
	full, ept := cells[0], cells[1]
	if ept.NsPerOp*5 > full.NsPerOp {
		t.Errorf("EPTSPC (%v ns) should be at least 5x cheaper than FULL (%v ns)",
			ept.NsPerOp, full.NsPerOp)
	}
}
