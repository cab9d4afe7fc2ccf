package lmbench

import "testing"

// TestPolicyChurnSmoke runs the whole control-plane measurement at tiny
// parameters and checks the structural invariants the policy gate reads.
func TestPolicyChurnSmoke(t *testing.T) {
	b, _ := Lookup("policy")
	grid := []Spec{
		{Workload: "publish", Arms: []string{"full", "incremental"}, Rules: 100},
		{Workload: "publish", Arms: []string{"full", "incremental"}, Rules: 400},
		{Workload: "propagation"},
		{Workload: "disturbance", Arms: []string{"quiet", "churn"}, Rules: 1200},
	}
	// 1,000 iterations: 20 publishes per cell, 1,000 opens per side.
	rep := runGrid(b, grid, Opts{Iters: 1000})
	publish := 0
	for _, c := range rep.Cells {
		if c.Workload != "publish" {
			continue
		}
		publish++
		if c.NsPerOp <= 0 || c.Ops != 20 {
			t.Errorf("degenerate cell %+v", c)
		}
	}
	if publish != 4 {
		t.Fatalf("publish sweep has %d cells, want 4", publish)
	}
	if c := rep.Cells[3]; c.Config != "incremental" || c.Rules != 400 || c.Counts["speedup"] <= 0 {
		t.Errorf("no speedup computable at max size: %+v", c)
	}
	prop := find(rep, "propagation", "", 0)
	if prop.Counts["stale"] != 0 {
		t.Errorf("%v stale verdicts after synchronous publishes", prop.Counts["stale"])
	}
	if prop.Counts["max_ns"] <= 0 {
		t.Error("propagation measured nothing")
	}
	quiet, churn := find(rep, "disturbance", "quiet", 0), find(rep, "disturbance", "churn", 0)
	if k := churn.Counts; k["requests"] != k["accepts"]+k["drops"] {
		t.Errorf("verdicts not conserved: %v != %v + %v", k["requests"], k["accepts"], k["drops"])
	}
	if k := churn.Counts; k["publishes"] == 0 || k["delta_compiles"] == 0 {
		t.Errorf("churn side published nothing (%v publishes, %v delta)", k["publishes"], k["delta_compiles"])
	}
	if quiet.P99Ns <= 0 || churn.P99Ns <= 0 {
		t.Error("disturbance percentiles degenerate")
	}
	_ = Markdown(rep)
}
