package lmbench

import (
	"reflect"
	"testing"
)

// TestBenchGrids pins every bench's full and -smoke grid — workloads,
// configs, goroutine fan-outs, rule sizes and worlds — and its default
// iterations, so that a change to what a BENCH_*.json measures is a
// deliberate edit here, never a side effect.
func TestBenchGrids(t *testing.T) {
	t6 := []string{"DISABLED", "BASE", "FULL", "CONCACHE", "LAZYCON", "EPTSPC"}
	ept := []string{"EPTSPC"}
	full := []string{"EPTSPC", "OBS"}
	sampled := []string{"COUNTERS", "OBS"}
	publish := []string{"full", "incremental"}
	table6 := []Spec{
		{Workload: "null", Arms: t6, Rules: 1218, Goroutines: 1},
		{Workload: "stat", Arms: t6, Rules: 1218, Goroutines: 1},
		{Workload: "read", Arms: t6, Rules: 1218, Goroutines: 1},
		{Workload: "write", Arms: t6, Rules: 1218, Goroutines: 1},
		{Workload: "fstat", Arms: t6, Rules: 1218, Goroutines: 1},
		{Workload: "open+close", Arms: t6, Rules: 1218, Goroutines: 1},
		{Workload: "fork+exit", Arms: t6, Rules: 1218, Goroutines: 1},
		{Workload: "fork+execve", Arms: t6, Rules: 1218, Goroutines: 1},
		{Workload: "fork+sh -c", Arms: t6, Rules: 1218, Goroutines: 1},
	}
	hotpath := []Spec{
		{Workload: "open+close", Arms: ept, Rules: 1218, Goroutines: 1},
		{Workload: "open+close", Arms: ept, Rules: 1218, Goroutines: 4},
		{Workload: "open+close", Arms: ept, Rules: 1218, Goroutines: 8},
		{Workload: "stat", Arms: ept, Rules: 1218, Goroutines: 1},
		{Workload: "stat", Arms: ept, Rules: 1218, Goroutines: 4},
		{Workload: "stat", Arms: ept, Rules: 1218, Goroutines: 8},
	}
	ipc := []Spec{
		{Workload: "ipc/fs", Arms: ept, Rules: 1218, Goroutines: 1},
		{Workload: "ipc/fs", Arms: ept, Rules: 1218, Goroutines: 4},
		{Workload: "ipc/fs", Arms: ept, Rules: 1218, Goroutines: 8},
		{Workload: "ipc/abstract", Arms: ept, Rules: 1218, Goroutines: 1},
		{Workload: "ipc/abstract", Arms: ept, Rules: 1218, Goroutines: 4},
		{Workload: "ipc/abstract", Arms: ept, Rules: 1218, Goroutines: 8},
		{Workload: "ipc/port", Arms: ept, Rules: 1218, Goroutines: 1},
		{Workload: "ipc/port", Arms: ept, Rules: 1218, Goroutines: 4},
		{Workload: "ipc/port", Arms: ept, Rules: 1218, Goroutines: 8},
	}
	obs := []Spec{
		{Workload: "open+stat+close", Arms: full, Rules: 1218, Goroutines: 1},
		{Workload: "open+stat+close", Arms: full, Rules: 1218, Goroutines: 4},
		{Workload: "open+stat+close", Arms: full, Rules: 1218, Goroutines: 8},
		{Workload: "ipc/abstract", Arms: full, Rules: 1218, Goroutines: 1},
		{Workload: "ipc/abstract", Arms: full, Rules: 1218, Goroutines: 4},
		{Workload: "ipc/abstract", Arms: full, Rules: 1218, Goroutines: 8},
		{Workload: "open+stat+close", Arms: sampled, Rules: 1218, Goroutines: 1},
		{Workload: "open+stat+close", Arms: sampled, Rules: 1218, Goroutines: 4},
		{Workload: "open+stat+close", Arms: sampled, Rules: 1218, Goroutines: 8},
		{Workload: "ipc/abstract", Arms: sampled, Rules: 1218, Goroutines: 1},
		{Workload: "ipc/abstract", Arms: sampled, Rules: 1218, Goroutines: 4},
		{Workload: "ipc/abstract", Arms: sampled, Rules: 1218, Goroutines: 8},
	}
	alloc := []Spec{
		{Workload: "null", Arms: ept, Rules: 1218, Goroutines: 1},
		{Workload: "stat", Arms: ept, Rules: 1218, Goroutines: 1},
		{Workload: "open+close", Arms: ept, Rules: 1218, Goroutines: 1},
		{Workload: "fstat", Arms: ept, Rules: 1218, Goroutines: 1},
		{Workload: "sendmmsg-8", Arms: ept, Rules: 1218, Goroutines: 1},
	}
	want := []struct {
		name        string
		iters       [2]int
		full, smoke []Spec
	}{
		{"table6", [2]int{20000, 2000}, table6, table6},
		{"hotpath", [2]int{20000, 2000}, hotpath, hotpath},
		{"ipc", [2]int{20000, 2000}, ipc, ipc},
		// Five rounds of 20,000 (8,000 under -smoke) ops per goroutine
		// and arm.
		{"obs", [2]int{100000, 40000}, obs, obs},
		{"rulescale", [2]int{50000, 4000}, []Spec{
			{Workload: "open+close", Arms: ept, Rules: 100, Scale: true, Goroutines: 1},
			{Workload: "open+close", Arms: ept, Rules: 1200, Scale: true, Goroutines: 1},
			{Workload: "open+close", Arms: ept, Rules: 10000, Scale: true, Goroutines: 1},
		}, []Spec{
			{Workload: "open+close", Arms: ept, Rules: 100, Scale: true, Goroutines: 1},
			{Workload: "open+close", Arms: ept, Rules: 1200, Scale: true, Goroutines: 1},
		}},
		{"alloc", [2]int{20000, 4000}, alloc, alloc},
		{"policy", [2]int{20000, 6000}, []Spec{
			{Workload: "publish", Arms: publish, Rules: 100},
			{Workload: "publish", Arms: publish, Rules: 1200},
			{Workload: "publish", Arms: publish, Rules: 10000},
			{Workload: "propagation"},
			{Workload: "disturbance", Arms: []string{"quiet", "churn"}, Rules: 1200},
		}, []Spec{
			{Workload: "publish", Arms: publish, Rules: 100},
			{Workload: "publish", Arms: publish, Rules: 1200},
			{Workload: "propagation"},
			{Workload: "disturbance", Arms: []string{"quiet", "churn"}, Rules: 1200},
		}},
		{"verify", [2]int{}, []Spec{
			{Workload: "sweep", Rules: 100},
			{Workload: "sweep", Rules: 1200},
			{Workload: "sweep", Rules: 10000},
		}, []Spec{
			{Workload: "sweep", Rules: 100},
			{Workload: "sweep", Rules: 1200},
		}},
		{"worldscale", [2]int{}, []Spec{
			{Workload: "fleet", World: "small", Goroutines: 4},
			{Workload: "fleet", World: "small", Goroutines: 8},
			{Workload: "fleet", World: "medium", Goroutines: 4},
			{Workload: "fleet", World: "medium", Goroutines: 8},
			{Workload: "fleet", World: "large", Goroutines: 4},
			{Workload: "fleet", World: "large", Goroutines: 8},
		}, []Spec{
			{Workload: "fleet", World: "tiny", Goroutines: 2},
			{Workload: "fleet", World: "small", Goroutines: 2},
		}},
	}
	benches := Benches()
	if len(benches) != len(want) {
		t.Fatalf("%d benches, want %d", len(benches), len(want))
	}
	for i, w := range want {
		b := benches[i]
		if b.Name != w.name || b.Iters != w.iters {
			t.Errorf("bench %d = %s %v, want %s %v", i, b.Name, b.Iters, w.name, w.iters)
		}
		if got := b.Grid(false); !reflect.DeepEqual(got, w.full) {
			t.Errorf("%s full grid:\n got %+v\nwant %+v", w.name, got, w.full)
		}
		if got := b.Grid(true); !reflect.DeepEqual(got, w.smoke) {
			t.Errorf("%s smoke grid:\n got %+v\nwant %+v", w.name, got, w.smoke)
		}
	}
}
