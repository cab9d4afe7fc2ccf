package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark lacks", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestOpListHash(t *testing.T) {
	for _, wl := range workloads {
		a := opListHash(wl.plan(1).inputs())
		if b := opListHash(wl.plan(1).inputs()); a != b {
			t.Errorf("%s: seed 1 hashed %s then %s", wl.name, a, b)
		}
		if c := opListHash(wl.plan(2).inputs()); a == c {
			t.Errorf("%s: seeds 1 and 2 both hash to %s", wl.name, a)
		}
	}
}

// checkRun runs one short invocation and checks it printed exactly the
// declared metrics, with their units, and no failed op.
func checkRun(t *testing.T, cfg config, want map[string]string) metricSet {
	t.Helper()
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", cfg.workload, res.Correct, res.Attempted, res.Failed)
	}
	for name, unit := range want {
		got, ok := res.Metrics[name]
		if !ok {
			t.Errorf("%s: metric %s missing", cfg.workload, name)
			continue
		}
		if got.Unit != unit {
			t.Errorf("%s: %s in %q, declared %q", cfg.workload, name, got.Unit, unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, declared %d", cfg.workload, len(res.Metrics), len(want))
	}
	return res.Metrics
}

func TestShortRuns(t *testing.T) {
	endToEnd, _ := declared(t)
	for _, wl := range workloads {
		m := checkRun(t, config{workload: wl.name, seed: 3, seconds: 0.5}, endToEnd)
		for name, v := range m {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wl.name, name, v.Value)
			}
		}
	}
}

func TestTracedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs build every layer's probes")
	}
	_, perLayer := declared(t)
	if _, ok := perLayer["trace.overhead_pct"]; !ok {
		t.Fatal("trace.overhead_pct not declared")
	}
	for _, wl := range workloads {
		checkRun(t, config{workload: wl.name, seed: 3, seconds: 0.5, trace: true, spans: t.TempDir()}, perLayer)
	}
}
