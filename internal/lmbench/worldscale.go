// worldscale.go sweeps the fleet stress bed across world sizes and fleet
// sizes: for each (world, fleet) cell a deployment-scale world is built
// from scratch (fresh engine, fresh counters), a mixed daemon fleet
// serves traffic against it for a fixed wall-clock budget with live
// process churn, concurrent rule mutation, and adversary filesystem
// noise, and the cell records throughput, mediation-path latency
// percentiles, and the churn/conservation accounting. BENCH_worldscale.json
// is this report; every later performance PR runs against it.
package lmbench

import (
	"time"

	"pfirewall/internal/fleet"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/worldgen"
)

// worldScaleSeed drives both world generation and fleet schedules.
const worldScaleSeed = 1

// worldGrid: small, medium and large worlds (the large preset crosses a
// million inodes) × 4- and 8-instance fleets; -smoke runs the tiny and
// small worlds under a 2-instance fleet.
func worldGrid(smoke bool) []Spec {
	worlds, fleets := []string{"small", "medium", "large"}, []int{4, 8}
	if smoke {
		worlds, fleets = []string{"tiny", "small"}, []int{2}
	}
	var specs []Spec
	for _, w := range worlds {
		for _, f := range fleets {
			specs = append(specs, Spec{Workload: "fleet", World: w, Goroutines: f})
		}
	}
	return specs
}

// fleetCell serves s.Goroutines fleet instances on a fresh s.World world
// for 2 s of churned traffic (0.3 s under -smoke). One op is a full
// persona operation — page serve, include, login session, bus round trip.
// lost_verdicts is requests minus accepts and drops over the cell: zero
// when every request resolved to exactly one verdict.
func fleetCell(s Spec, o Opts) []Cell {
	spec, ok := worldgen.SpecByName(s.World)
	if !ok {
		panic("worldscale: unknown world size " + s.World)
	}
	spec.Seed = worldScaleSeed
	secs := 2.0
	if o.Smoke {
		secs = 0.3
	}
	// Fresh world per cell: the engine's verdict counters start at zero, so
	// conservation and throughput are cell-local.
	cfg := pf.Optimized()
	w := worldgen.Build(spec, programs.WorldOpts{PF: &cfg, MACEnforcing: true})
	r := fleet.New(w, fleet.Config{
		Seed:      worldScaleSeed,
		Instances: s.Goroutines,
		Duration:  time.Duration(secs * float64(time.Second)),
		RuleChurn: true, ProcChurn: true, AdversaryChurn: true,
	}).Run()
	return []Cell{{
		Workload:   "fleet",
		World:      spec.Name,
		Rules:      w.Stats.Rules,
		Goroutines: s.Goroutines,
		Ops:        r.Ops,
		OpsPerSec:  r.OpsPerSec,
		P50Ns:      r.P50Ns,
		P99Ns:      r.P99Ns,
		P999Ns:     r.P999Ns,
		Counts: map[string]float64{
			"inodes":            float64(w.Stats.Inodes),
			"users":             float64(w.Stats.Users),
			"labels":            float64(w.Stats.Labels),
			"build_ms":          w.Stats.BuildMs,
			"seconds":           r.Seconds,
			"crashes":           float64(r.Crashes),
			"restarts":          float64(r.Restarts),
			"rule_mutations":    float64(r.RuleMutations),
			"adversary_ops":     float64(r.AdversaryOps),
			"expected_denies":   float64(r.ExpectedDenies),
			"unexpected_allows": float64(r.UnexpectedAllows),
			"unexpected_errors": float64(r.UnexpectedErrors),
			"lost_verdicts":     float64(r.Requests) - float64(r.Accepts) - float64(r.Drops),
		},
	}}
}
