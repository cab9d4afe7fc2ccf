// policychurn.go measures the policy control plane — the
// BENCH_policy.json artifact. Four questions:
//
//   - publish latency: how long one rule change takes to land, a
//     from-scratch pf.Compile of the changed chains vs the engine's
//     incremental bucket-level delta compile, across rule-base sizes — the
//     claim is that the incremental path makes publish cost independent of
//     base size;
//   - propagation: how long one canary DROP takes to reach every engine
//     of a small fleet when streamed through policyd publishers, with the
//     verdict flip verified in-world after every round;
//   - disturbance: what churning the rule base through the control plane
//     does to the mediated open path's p99, measured as paired
//     quiet/churning rounds (interleaved so drift inflates both sides and
//     cancels in the ratio — only a cost present in every round counts);
//   - analysis: how the pfcheck pass every gated apply runs grows with
//     the rule base, timed at every size back to back in each round so
//     that a change of host speed between cells cannot pass for growth.
package lmbench

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pf"
	"pfirewall/internal/pfcheck"
	"pfirewall/internal/pftables"
	"pfirewall/internal/policyd"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
)

// policyWorlds is the propagation fleet size.
const policyWorlds = 4

// policyRounds is the paired-round count for propagation and disturbance.
const policyRounds = 4

// policyGrid: full vs incremental publish at each rule-base size, the
// propagation fleet, the quiet vs churning open path over the paper-scale
// base, and the analysis at every rule-base size (its arms are the sizes).
func policyGrid(smoke bool) []Spec {
	var specs []Spec
	var analyzed []string
	for _, n := range sizes(smoke) {
		specs = append(specs, Spec{Workload: "publish", Arms: []string{"full", "incremental"}, Rules: n})
		analyzed = append(analyzed, strconv.Itoa(n))
	}
	return append(specs,
		Spec{Workload: "propagation"},
		Spec{Workload: "disturbance", Arms: []string{"quiet", "churn"}, Rules: 1200},
		Spec{Workload: "analyze", Arms: analyzed})
}

// policyCell measures one spec of policyGrid. The publish count per cell
// is o.Iters/50 (400 at the default 20,000), a disturbance side runs
// o.Iters opens, and each analysis round analyzes about 10×o.Iters rules
// per size.
func policyCell(s Spec, o Opts) []Cell {
	switch s.Workload {
	case "publish":
		return runPolicyPublish(max(o.Iters/50, 2)&^1, s.Rules)
	case "propagation":
		return []Cell{runPolicyPropagation()}
	case "disturbance":
		return runPolicyDisturbance(max(o.Iters, 1), s.Rules)
	case "analyze":
		return runPolicyAnalyze(10*max(o.Iters, 1), s.Arms)
	}
	panic("lmbench: unknown policy workload " + s.Workload)
}

// policyProbeRule renders the inert probe rule used for publish timing:
// non-entrypoint (so it lands in the input chain's own index, which the
// delta compiler patches), with a subject label no process carries.
const policyProbeRule = `pftables -A input -s {policy_probe_t} -d {tmp_t} -o FILE_UNLINK -j DROP`

// runPolicyPublish times single-rule publishes against an installed base
// of n rules: one append and one remove per pair, so the base size is
// stable across the measured window. The "incremental" cell times the
// engine's publish, a delta compile; the "full" cell times a from-scratch
// pf.Compile of the same chains after each change — what every publish
// would cost without the delta compiler. The incremental cell counts its
// speedup over the full one.
func runPolicyPublish(publishes, n int) []Cell {
	var cells []Cell
	for _, mode := range []string{"full", "incremental"} {
		cfg := pf.Optimized()
		w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
		must(w.InstallRules(rulegen.ScaleRuleBase(1, n)))
		probe := must(pftables.Parse(w.Env, policyProbeRule)).Rule
		eng := w.Engine
		match := func(r *pf.Rule) bool { return r == probe }
		publish := func(change func() error) float64 {
			if mode == "incremental" {
				t0 := time.Now()
				mustDo(change())
				return float64(time.Since(t0).Nanoseconds())
			}
			mustDo(change())
			chains := eng.Program().Chains()
			t0 := time.Now()
			pf.Compile(chains, cfg)
			return float64(time.Since(t0).Nanoseconds())
		}
		appendProbe := func() error { return eng.Append("input", probe) }
		removeProbe := func() error { return eng.Remove("input", match) }
		// Warm both paths (and let lazy derived state settle).
		for i := 0; i < 4; i++ {
			publish(appendProbe)
			publish(removeProbe)
		}
		st0 := eng.PublishStats()
		samples := make([]float64, 0, publishes)
		for i := 0; i < publishes/2; i++ {
			samples = append(samples, publish(appendProbe), publish(removeProbe))
		}
		st1 := eng.PublishStats()
		if mode == "incremental" && st1.DeltaCompiles == st0.DeltaCompiles {
			panic("policychurn: incremental cell never took the delta-compile path")
		}
		var total float64
		for _, s := range samples {
			total += s
		}
		cells = append(cells, Cell{
			Workload: "publish",
			Config:   mode,
			Rules:    n,
			Ops:      int64(len(samples)),
			NsPerOp:  total / float64(len(samples)),
			P50Ns:    quantile(samples, 0.50),
			P99Ns:    quantile(samples, 0.99),
		})
	}
	cells[1].Counts = map[string]float64{"speedup": cells[0].NsPerOp / cells[1].NsPerOp}
	return cells
}

// runPolicyPropagation streams a canary DROP to a small fleet of worlds
// through policyd publishers and measures until every engine's verdict
// actually flipped, verified by an in-world probe each round. It counts
// the probes that saw a stale verdict after their publish round trip
// completed: the "zero dropped/blocked requests" gate.
func runPolicyPropagation() Cell {
	cfg := pf.Optimized()
	var (
		probes  []*kernel.Proc
		names   []string
		clients []*policyd.Client
	)
	for i := 0; i < policyWorlds; i++ {
		w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
		// A base rule so opens are mediated at all (MayFilter gating).
		must(w.InstallRules([]string{`pftables -A input -s user_t -d shadow_t -o FILE_OPEN -j DROP`}))
		name := fmt.Sprintf("pfpolicy-bench-%d", i)
		srv := must(policyd.Serve(w.K, w.Env, w.Engine, name, nil))
		defer srv.Close()
		probes = append(probes, w.NewProc(kernel.ProcSpec{UID: 1000, Label: "user_t"}))
		names = append(names, name)
		clients = append(clients, must(policyd.Dial(w.K, name)))
	}
	pub := policyd.NewPublisher(names, clients)
	defer pub.Close()

	apply := func(file string, lines []string) {
		for _, r := range pub.Apply(file, lines, 0) {
			if r.Err != "" || !r.Resp.OK {
				panic(fmt.Sprintf("policychurn: %s to %s: %s %s", file, r.Name, r.Err, r.Resp.Err))
			}
		}
	}
	// opens counts the probes whose open succeeds.
	opens := func() (n int) {
		for _, p := range probes {
			if fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0); err == nil {
				p.Close(fd)
				n++
			}
		}
		return n
	}
	stale := 0
	var samples []float64
	for round := 0; round < policyRounds*2; round++ {
		t0 := time.Now()
		apply("canary.pft", []string{`pftables -A input -s user_t -o FILE_OPEN -j DROP`})
		// The publish responses are back, so every engine must already
		// answer with the canary verdict: a stale accept is a lost update.
		stale += opens()
		samples = append(samples, float64(time.Since(t0).Nanoseconds()))
		apply("drain.pft", []string{`pftables -D input --tag canary.pft`})
		// And the drain must restore the accept.
		stale += len(probes) - opens()
	}
	return Cell{
		Workload: "propagation",
		Rounds:   len(samples),
		Ops:      int64(len(samples)),
		P50Ns:    quantile(samples, 0.50),
		Counts:   map[string]float64{"worlds": policyWorlds, "stale": float64(stale), "max_ns": slices.Max(samples)},
	}
}

// churnWaveLines builds one inert non-entrypoint wave batch (input-chain
// index rules, so every publish exercises the bucket delta compiler).
func churnWaveLines(tag int) []string {
	lines := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		lines = append(lines, fmt.Sprintf(
			`pftables -A input -s {policy_probe_t} -d {scl_obj%02d_t} -o FILE_UNLINK -j DROP`, (tag+i)%24))
	}
	return lines
}

// runPolicyDisturbance measures mediated open+close p99 in paired
// quiet/churning rounds on one world carrying a scale base of n rules.
// Each cell's p99 is the median of its rounds'; the churn cell adds the
// median and best per-round disturbance, the publishes that landed while
// its sides ran, and the engine's verdict accounting over its lifetime.
func runPolicyDisturbance(iters, n int) []Cell {
	cfg := pf.Optimized()
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
	must(w.InstallRules(rulegen.ScaleRuleBase(1, n)))
	srv := must(policyd.Serve(w.K, w.Env, w.Engine, "pfpolicy-disturb", nil))
	defer srv.Close()

	body := workload("open+close").Setup(w, BenchProc(w))
	p99 := func() float64 {
		samples := make([]float64, iters)
		for i := range samples {
			t0 := time.Now()
			body()
			samples[i] = float64(time.Since(t0).Nanoseconds())
		}
		return quantile(samples, 0.99)
	}

	// The streamer client is dialed once; rounds hand it to one goroutine
	// at a time (measure joins the churner before the next round), so the
	// kernel's single-flow invariant holds.
	cl := must(policyd.Dial(w.K, "pfpolicy-disturb"))
	defer cl.Close()

	st0 := w.Engine.PublishStats()
	var quiet, churn, pct []float64
	for round := 0; round < policyRounds; round++ {
		quiet = append(quiet, p99())

		// Churning side: a background streamer drives wave applies and
		// tag-drains through the daemon for the whole measured window. The
		// round only starts measuring once the first wave landed, so every
		// churn side overlaps at least one real publish.
		var stop atomic.Bool
		done := make(chan struct{})
		ready := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				resp, err := cl.Apply("bench-wave.pft", churnWaveLines(i), 0)
				if err != nil || !resp.OK {
					panic(fmt.Sprintf("policychurn: wave apply: %v %s", err, resp.Err))
				}
				resp, err = cl.Apply("bench-drain.pft",
					[]string{`pftables -D input --tag bench-wave.pft`}, 0)
				if err != nil || !resp.OK {
					panic(fmt.Sprintf("policychurn: wave drain: %v %s", err, resp.Err))
				}
				if i == 0 {
					close(ready)
				}
				if stop.Load() {
					return
				}
			}
		}()
		<-ready
		churn = append(churn, p99())
		stop.Store(true)
		<-done
		pct = append(pct, (churn[round]-quiet[round])/quiet[round]*100)
	}
	st1 := w.Engine.PublishStats()
	side := func(config string, p99s []float64) Cell {
		return Cell{Workload: "disturbance", Config: config, Rules: n, Rounds: policyRounds,
			Ops: int64(iters * policyRounds), P99Ns: quantile(p99s, 0.5)}
	}
	c := side("churn", churn)
	c.OverheadPct, c.BestRoundPct = quantile(pct, 0.5), slices.Min(pct)
	c.Counts = map[string]float64{
		"publishes":      float64(st1.Publishes - st0.Publishes),
		"delta_compiles": float64(st1.DeltaCompiles - st0.DeltaCompiles),
		"requests":       float64(w.Engine.Stats.Requests.Load()),
		"accepts":        float64(w.Engine.Stats.Accepts.Load()),
		"drops":          float64(w.Engine.Stats.Drops.Load()),
	}
	return []Cell{side("quiet", quiet), c}
}

// runPolicyAnalyze times pfcheck.AnalyzeRuleset — the pass policyd's gate
// runs over every candidate — over a scale base of each size in arms,
// installed on a pf.Optimized engine, about budget analyzed rules per size
// in each of Rounds rounds with the sizes back to back. Each cell counts
// the pass's allocations per call (in Counts: the table's allocs/op column
// would print a zero for every other policy cell) and, after the first,
// its growth: the median over rounds of its ns/op over the previous
// size's.
func runPolicyAnalyze(budget int, arms []string) []Cell {
	cfg := pf.Optimized()
	rules := make([]int, len(arms))
	calls := make([]int, len(arms))
	bodies := make([][]func(), len(arms))
	for i, arm := range arms {
		rules[i] = must(strconv.Atoi(arm))
		calls[i] = max(budget/rules[i], 1)
		w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
		must(w.InstallRules(rulegen.ScaleRuleBase(1, rules[i])))
		tbl, chains := w.K.Policy.SIDs(), w.Engine.Program().Chains()
		body := func() { pfcheck.AnalyzeRuleset(tbl, chains, nil) }
		body() // warm
		bodies[i] = []func(){body}
	}
	ns := make([][]float64, len(arms))
	mallocs := make([]uint64, len(arms))
	for r := 0; r < Rounds; r++ {
		for i := range arms {
			el, m, _ := timed(bodies[i], calls[i])
			ns[i] = append(ns[i], el/float64(calls[i]))
			mallocs[i] += m
		}
	}
	cells := make([]Cell, len(arms))
	for i := range arms {
		ops := int64(calls[i] * Rounds)
		cells[i] = Cell{
			Workload: "analyze",
			Rules:    rules[i],
			Rounds:   Rounds,
			Ops:      ops,
			NsPerOp:  quantile(ns[i], 0.5),
			IQRNs:    quantile(ns[i], 0.75) - quantile(ns[i], 0.25),
			Counts:   map[string]float64{"allocs_per_op": float64(mallocs[i]) / float64(ops)},
		}
		if i > 0 {
			growth := make([]float64, Rounds)
			for r := range growth {
				growth[r] = ns[i][r] / ns[i-1][r]
			}
			cells[i].Counts["growth"] = quantile(growth, 0.5)
		}
	}
	return cells
}
