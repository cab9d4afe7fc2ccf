// policychurn.go measures the policy control plane — the
// BENCH_policy.json artifact. Three questions:
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
//     cancels in the ratio — only a cost present in every round counts).
package lmbench

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
	"pfirewall/internal/policyd"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
)

// PolicyChurnSizes is the standard publish-latency sweep: small, the
// paper-scale base, and deployment scale.
var PolicyChurnSizes = []int{100, 1200, 10000}

// policyWorlds is the propagation fleet size.
const policyWorlds = 4

// policyRounds is the paired-round count for propagation and disturbance.
const policyRounds = 4

// PolicyPublishCell is one (mode, rule-count) publish-latency measurement.
type PolicyPublishCell struct {
	Mode         string  `json:"mode"` // "full" or "incremental"
	Rules        int     `json:"rules"`
	Publishes    int     `json:"publishes"`
	NsPerPublish float64 `json:"ns_per_publish"`
	P50Ns        float64 `json:"p50_ns"`
	P99Ns        float64 `json:"p99_ns"`
}

// PolicyPropagation is the fleet fan-out measurement.
type PolicyPropagation struct {
	Worlds int `json:"worlds"`
	Rounds int `json:"rounds"`
	// P50Ns/MaxNs: time from publish start until every world's engine
	// answered with the new verdict (client round trip + verified probe).
	P50Ns float64 `json:"p50_ns"`
	MaxNs float64 `json:"max_ns"`
	// Lost counts probes that saw a stale verdict after their publish
	// round-trip completed — the "zero dropped/blocked requests" gate.
	Lost int `json:"lost"`
}

// PolicyDisturbance is the paired quiet/churning open-path comparison.
type PolicyDisturbance struct {
	Rounds     int     `json:"rounds"`
	OpsPerSide int     `json:"ops_per_side"`
	QuietP99Ns float64 `json:"quiet_p99_ns"`
	ChurnP99Ns float64 `json:"churn_p99_ns"`
	// Pct is the mean-of-rounds p99 disturbance; BestRoundPct the minimum
	// paired round, the gate's number.
	Pct          float64 `json:"p99_disturbance_pct"`
	BestRoundPct float64 `json:"best_round_p99_disturbance_pct"`
	// Publishes landed while the churning sides ran, and verdict
	// conservation over the whole engine lifetime.
	Publishes         uint64 `json:"publishes"`
	DeltaCompiles     uint64 `json:"delta_compiles"`
	Requests          uint64 `json:"requests"`
	Accepts           uint64 `json:"accepts"`
	Drops             uint64 `json:"drops"`
	VerdictsConserved bool   `json:"verdicts_conserved"`
}

// PolicyChurnReport is the full control-plane measurement.
type PolicyChurnReport struct {
	BenchEnv
	Publish     []PolicyPublishCell `json:"publish"`
	Propagation PolicyPropagation   `json:"propagation"`
	Disturbance PolicyDisturbance   `json:"disturbance"`
}

// SpeedupAt reports full/incremental ns-per-publish at the given size
// (zero when either cell is missing).
func (rep *PolicyChurnReport) SpeedupAt(rules int) float64 {
	var full, inc float64
	for _, c := range rep.Publish {
		if c.Rules != rules {
			continue
		}
		switch c.Mode {
		case "full":
			full = c.NsPerPublish
		case "incremental":
			inc = c.NsPerPublish
		}
	}
	if full == 0 || inc == 0 {
		return 0
	}
	return full / inc
}

// MaxPublishSize is the largest size in the publish sweep.
func (rep *PolicyChurnReport) MaxPublishSize() int {
	max := 0
	for _, c := range rep.Publish {
		if c.Rules > max {
			max = c.Rules
		}
	}
	return max
}

// policyProbeRule renders the inert probe rule used for publish timing:
// non-entrypoint (so it lands in the input chain's own index, which the
// delta compiler patches), with a subject label no process carries.
const policyProbeRule = `pftables -A input -s {policy_probe_t} -d {tmp_t} -o FILE_UNLINK -j DROP`

// RunPolicyChurn runs the three control-plane measurements. publishes is
// the per-cell publish count for the latency sweep; iters the per-side op
// count for the disturbance rounds.
func RunPolicyChurn(publishes, iters int, sizes []int) PolicyChurnReport {
	if publishes < 2 {
		publishes = 2
	}
	publishes -= publishes % 2 // append/remove pairs
	if iters < 1 {
		iters = 1
	}
	if len(sizes) == 0 {
		sizes = PolicyChurnSizes
	}
	rep := PolicyChurnReport{BenchEnv: Env()}
	rep.Publish = runPolicyPublish(publishes, sizes)
	rep.Propagation = runPolicyPropagation()
	rep.Disturbance = runPolicyDisturbance(iters)
	return rep
}

// runPolicyPublish times single-rule publishes against installed bases of
// each size: one append and one remove per pair, so the base size is
// stable across the measured window. The "incremental" cell times the
// engine's publish, a delta compile; the "full" cell times a from-scratch
// pf.Compile of the same chains after each change — what every publish
// would cost without the delta compiler.
func runPolicyPublish(publishes int, sizes []int) []PolicyPublishCell {
	var cells []PolicyPublishCell
	for _, mode := range []string{"full", "incremental"} {
		for _, n := range sizes {
			cfg := pf.Optimized()
			w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
			if _, err := w.InstallRules(rulegen.ScaleRuleBase(1, n)); err != nil {
				panic(err)
			}
			cmd, err := pftables.Parse(w.Env, policyProbeRule)
			if err != nil {
				panic(err)
			}
			probe := cmd.Rule
			eng := w.Engine
			match := func(r *pf.Rule) bool { return r == probe }
			publish := func(change func() error) int64 {
				if mode == "incremental" {
					t0 := time.Now()
					mustPolicy(change())
					return time.Since(t0).Nanoseconds()
				}
				mustPolicy(change())
				chains := eng.Program().Chains()
				t0 := time.Now()
				pf.Compile(chains, cfg)
				return time.Since(t0).Nanoseconds()
			}
			appendProbe := func() error { return eng.Append("input", probe) }
			removeProbe := func() error { return eng.Remove("input", match) }
			// Warm both paths (and let lazy derived state settle).
			for i := 0; i < 4; i++ {
				publish(appendProbe)
				publish(removeProbe)
			}
			st0 := eng.PublishStats()
			samples := make([]int64, 0, publishes)
			for i := 0; i < publishes/2; i++ {
				samples = append(samples, publish(appendProbe), publish(removeProbe))
			}
			st1 := eng.PublishStats()
			if mode == "incremental" && st1.DeltaCompiles == st0.DeltaCompiles {
				panic("policychurn: incremental cell never took the delta-compile path")
			}
			var total int64
			for _, s := range samples {
				total += s
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			cells = append(cells, PolicyPublishCell{
				Mode:         mode,
				Rules:        n,
				Publishes:    len(samples),
				NsPerPublish: float64(total) / float64(len(samples)),
				P50Ns:        percentileNs(samples, 0.50),
				P99Ns:        percentileNs(samples, 0.99),
			})
		}
	}
	return cells
}

// runPolicyPropagation streams a canary DROP to a small fleet of worlds
// through policyd publishers and measures until every engine's verdict
// actually flipped, verified by an in-world probe each round.
func runPolicyPropagation() PolicyPropagation {
	cfg := pf.Optimized()
	type target struct {
		w     *programs.World
		probe *kernel.Proc
	}
	var (
		targets []target
		names   []string
		clients []*policyd.Client
	)
	for i := 0; i < policyWorlds; i++ {
		w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
		// A base rule so opens are mediated at all (MayFilter gating).
		if _, err := w.InstallRules([]string{
			`pftables -A input -s user_t -d shadow_t -o FILE_OPEN -j DROP`,
		}); err != nil {
			panic(err)
		}
		name := fmt.Sprintf("pfpolicy-bench-%d", i)
		srv, err := policyd.Serve(w.K, w.Env, w.Engine, name, nil)
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		cl, err := policyd.Dial(w.K, name)
		if err != nil {
			panic(err)
		}
		targets = append(targets, target{
			w:     w,
			probe: w.NewProc(kernel.ProcSpec{UID: 1000, Label: "user_t"}),
		})
		names = append(names, name)
		clients = append(clients, cl)
	}
	pub := policyd.NewPublisher(names, clients)
	defer pub.Close()

	canary := []string{`pftables -A input -s user_t -o FILE_OPEN -j DROP`}
	drain := []string{`pftables -D input --tag canary.pft`}
	res := PolicyPropagation{Worlds: policyWorlds, Rounds: policyRounds * 2}
	var samples []int64
	for round := 0; round < policyRounds*2; round++ {
		t0 := time.Now()
		for _, r := range pub.Apply("canary.pft", canary, 0) {
			if r.Err != "" || !r.Resp.OK {
				panic(fmt.Sprintf("policychurn: canary publish to %s: %s %s", r.Name, r.Err, r.Resp.Err))
			}
		}
		// The publish responses are back, so every engine must already
		// answer with the canary verdict: a stale accept is a lost update.
		for _, tg := range targets {
			if fd, err := tg.probe.Open("/etc/passwd", kernel.O_RDONLY, 0); err == nil {
				tg.probe.Close(fd)
				res.Lost++
			}
		}
		samples = append(samples, time.Since(t0).Nanoseconds())
		for _, r := range pub.Apply("drain.pft", drain, 0) {
			if r.Err != "" || !r.Resp.OK {
				panic(fmt.Sprintf("policychurn: canary drain to %s: %s %s", r.Name, r.Err, r.Resp.Err))
			}
		}
		// And the drain must restore the accept.
		for _, tg := range targets {
			fd, err := tg.probe.Open("/etc/passwd", kernel.O_RDONLY, 0)
			if err != nil {
				res.Lost++
				continue
			}
			tg.probe.Close(fd)
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	res.P50Ns = percentileNs(samples, 0.50)
	res.MaxNs = float64(samples[len(samples)-1])
	return res
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
// quiet/churning rounds on one world whose rule base is the paper-scale
// 1200 rules.
func runPolicyDisturbance(iters int) PolicyDisturbance {
	cfg := pf.Optimized()
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
	if _, err := w.InstallRules(rulegen.ScaleRuleBase(1, 1200)); err != nil {
		panic(err)
	}
	srv, err := policyd.Serve(w.K, w.Env, w.Engine, "pfpolicy-disturb", nil)
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	p := parallelProc(w)
	measure := func() []int64 {
		samples := make([]int64, iters)
		for i := range samples {
			t0 := time.Now()
			fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
			if err != nil {
				panic(err)
			}
			p.Close(fd)
			samples[i] = time.Since(t0).Nanoseconds()
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return samples
	}

	// The streamer client is dialed once; rounds hand it to one goroutine
	// at a time (measure joins the churner before the next round), so the
	// kernel's single-flow invariant holds.
	cl, err := policyd.Dial(w.K, "pfpolicy-disturb")
	if err != nil {
		panic(err)
	}
	defer cl.Close()

	st0 := w.Engine.PublishStats()
	res := PolicyDisturbance{Rounds: policyRounds, OpsPerSide: iters}
	var quietSum, churnSum, pctSum float64
	for round := 0; round < policyRounds; round++ {
		quiet := percentileNs(measure(), 0.99)

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
		churn := percentileNs(measure(), 0.99)
		stop.Store(true)
		<-done

		quietSum += quiet
		churnSum += churn
		pct := (churn - quiet) / quiet * 100
		pctSum += pct
		if round == 0 || pct < res.BestRoundPct {
			res.BestRoundPct = pct
		}
	}
	st1 := w.Engine.PublishStats()
	res.QuietP99Ns = quietSum / float64(policyRounds)
	res.ChurnP99Ns = churnSum / float64(policyRounds)
	res.Pct = pctSum / float64(policyRounds)
	res.Publishes = st1.Publishes - st0.Publishes
	res.DeltaCompiles = st1.DeltaCompiles - st0.DeltaCompiles
	res.Requests = w.Engine.Stats.Requests.Load()
	res.Accepts = w.Engine.Stats.Accepts.Load()
	res.Drops = w.Engine.Stats.Drops.Load()
	res.VerdictsConserved = res.Requests == res.Accepts+res.Drops
	return res
}

// percentileNs reads the q-quantile from sorted samples (nearest-rank).
func percentileNs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i])
}

func mustPolicy(err error) {
	if err != nil {
		panic(err)
	}
}

// FormatPolicyChurn renders the three measurements.
func FormatPolicyChurn(rep PolicyChurnReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Policy publish latency: full compile vs incremental delta (NumCPU=%d GOMAXPROCS=%d)\n",
		rep.NumCPU, rep.GOMAXPROCS)
	fmt.Fprintf(&b, "%-12s %8s %12s %12s %12s %9s\n", "mode", "rules", "ns/publish", "p50 ns", "p99 ns", "speedup")
	for _, c := range rep.Publish {
		speed := ""
		if c.Mode == "incremental" {
			speed = fmt.Sprintf("%8.1fx", rep.SpeedupAt(c.Rules))
		}
		fmt.Fprintf(&b, "%-12s %8d %12.0f %12.0f %12.0f %9s\n",
			c.Mode, c.Rules, c.NsPerPublish, c.P50Ns, c.P99Ns, speed)
	}
	pr := rep.Propagation
	fmt.Fprintf(&b, "Propagation: %d worlds, %d rounds: p50=%.0fns max=%.0fns, %d stale verdicts\n",
		pr.Worlds, pr.Rounds, pr.P50Ns, pr.MaxNs, pr.Lost)
	d := rep.Disturbance
	fmt.Fprintf(&b, "Open p99 disturbance while churning: quiet=%.0fns churn=%.0fns (%+.1f%%, best round %+.1f%%)\n",
		d.QuietP99Ns, d.ChurnP99Ns, d.Pct, d.BestRoundPct)
	fmt.Fprintf(&b, "  churn window: %d publishes (%d incremental); verdicts %d = %d + %d (conserved=%v)\n",
		d.Publishes, d.DeltaCompiles, d.Requests, d.Accepts, d.Drops, d.VerdictsConserved)
	return b.String()
}
