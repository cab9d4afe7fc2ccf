// Command pfctl is the userspace rule tool: it parses pftables rule files
// against the standard simulated world, validates them, installs them into
// an engine, and prints the compiled form — the workflow of the paper's
// pftables process (Section 5.2). It doubles as the observability
// front-end: -stats and -stats-prom export the internal/obs metrics
// registry (counters, latency histograms, the span ring) after
// exercising a canned deterministic workload, and -listen serves the same
// registry over HTTP.
//
// Usage:
//
//	pfctl -f rules.pft        # compile and validate a rule file
//	pfctl -standard           # print and validate the paper's Table 5 rules
//	pfctl -e 'pftables ...'   # compile one rule from the command line
//	pfctl -check -f rules.pft # static analysis only: shadowing, dead
//	                          # chains, jump cycles, unknown symbols
//	pfctl -check -json -f rules.pft  # same, findings as a JSON document
//	pfctl -check -scale 10000 # analyze a synthetic deployment-scale base
//	pfctl -verify -standard -inv examples/rules/standard.inv
//	                          # symbolically prove invariants over the
//	                          # compiled ruleset; violations are replayed
//	                          # as concrete witnesses and exit non-zero
//	pfctl -verify -world tiny # prove the tenant non-interference invariant
//	                          # over a generated deployment's rule base
//	pfctl -standard -L        # list chains with hits, traversals, verdicts
//	pfctl -stats              # run the demo workload, dump metrics as JSON
//	pfctl -stats-prom         # same, Prometheus text exposition format
//	pfctl -listen :9090       # serve /metrics and /vars over HTTP
//
// -world swaps the canned demo for the deployment-scale stress bed: it
// builds a seeded worldgen world (tiny/small/medium/large) and drives a
// supervised daemon fleet against it with live process churn, rule
// mutation, and adversary noise, then prints the fleet report. The
// fleet's rule churn flows through an in-world policyd control plane
// (internal/policyd: streamed pftables batches over abstract sockets,
// pfcheck-gated, versioned hitless publishes with rollback), so the
// report's "policy:" line shows publish/delta/rollback/veto counts.
// -fleet, -duration and -seed shape the run; combined with
// -stats/-listen the fleet traffic populates the exported metrics
// instead:
//
//	pfctl -world small -fleet 8 -duration 5s   # interactive stress run
//	pfctl -world tiny -stats                   # fleet-fed metrics dump
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"pfirewall/internal/audit"
	"pfirewall/internal/fleet"
	"pfirewall/internal/kernel"
	"pfirewall/internal/mac"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/pfcheck"
	"pfirewall/internal/pftables"
	"pfirewall/internal/pfverify"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
	"pfirewall/internal/trace"
	"pfirewall/internal/worldgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fatal(err)
	}
}

// statsTopDenials caps the denial summary embedded in -stats output.
const statsTopDenials = 10

// run is the whole tool behind a testable seam: args are the command line
// without the program name, out receives everything the user sees.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pfctl", flag.ContinueOnError)
	file := fs.String("f", "", "rule file to compile")
	standard := fs.Bool("standard", false, "compile the paper's Table 5 rule set")
	expr := fs.String("e", "", "compile a single rule")
	list := fs.Bool("L", false, "list installed chains and rules with hit, traversal and verdict counters")
	save := fs.Bool("S", false, "print the installed rule base as re-loadable pftables lines")
	workload := fs.Bool("workload", false, "exercise the canned deterministic workload after installing rules (implied by -stats/-stats-prom/-listen)")
	stats := fs.Bool("stats", false, "run the workload and print the metrics registry and denial summary as JSON")
	statsProm := fs.Bool("stats-prom", false, "run the workload and print the metrics registry in Prometheus text format")
	listen := fs.String("listen", "", "serve /metrics (Prometheus) and /vars (JSON) on this address after running the workload")
	checkOnly := fs.Bool("check", false, "statically analyze the ruleset (shadowing, reachability, symbols) without installing it; exit non-zero on error findings")
	jsonOut := fs.Bool("json", false, "with -check: print the analyzer report as JSON instead of compiler-style lines")
	verify := fs.Bool("verify", false, "symbolically verify invariants over the installed ruleset; exit non-zero on definite violations")
	invFile := fs.String("inv", "", "with -verify: invariant file (.inv); defaults to the built-in tenant invariants with -world")
	scale := fs.Int("scale", 0, "with -check: analyze a deterministic synthetic rule base of this many rules")
	world := fs.String("world", "", "run the fleet stress bed against this worldgen preset (tiny/small/medium/large) instead of the canned demo")
	fleetSize := fs.Int("fleet", 4, "with -world: number of fleet instances")
	duration := fs.Duration("duration", 2*time.Second, "with -world: how long the fleet serves traffic")
	seed := fs.Uint64("seed", 1, "with -world: seed for the world tree and fleet schedule")
	traceFlag := fs.Bool("trace", false, "tail sampled decision-provenance spans from the running workload over the in-simulation span stream")
	topFlag := fs.Bool("top", false, "live fleet-wide span aggregation per tenant/persona/op (implies the workload; best with -world)")
	traceEvery := fs.Int("trace-every", 1, "sample one syscall in N into timed spans and the latency histograms (every DROP is a span regardless)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	exporting := *stats || *statsProm || *listen != ""
	tracing := *traceFlag || *topFlag
	if exporting || tracing || *world != "" {
		*workload = true
	}

	cfg := pf.Optimized()
	wopts := programs.WorldOpts{PF: &cfg}
	var reg *obs.Registry
	if *workload || exporting {
		// Sampling every syscall (the default) lets the short
		// deterministic workload populate the latency histograms and time
		// every span, not just count.
		reg = obs.New()
		wopts.Obs = reg
		wopts.ObsEvery = *traceEvery
	}
	var w *programs.World
	var gw *worldgen.World
	if *world != "" {
		spec, ok := worldgen.SpecByName(*world)
		if !ok {
			return fmt.Errorf("unknown world preset %q (want tiny/small/medium/large)", *world)
		}
		spec.Seed = *seed
		wopts.MACEnforcing = true
		gw = worldgen.Build(spec, wopts)
		w = gw.World
	} else {
		w = programs.NewWorld(wopts)
	}

	var store *trace.Store
	if exporting {
		store = trace.NewStore()
		w.Engine.Logger = store.Collector(w.K.Policy.SIDs())
		w.Engine.LogDenials = true
	}

	var lines []string
	srcName := "<input>"
	switch {
	case *world != "":
		// worldgen.Build installed the world's own rule base (standard
		// rules + per-tenant guards + scale filler) during construction.
		srcName = "<worldgen>"
	case *scale > 0:
		if !*checkOnly {
			return fmt.Errorf("-scale requires -check")
		}
		lines = rulegen.ScaleRuleBase(1, *scale)
		srcName = fmt.Sprintf("<scale-%d>", *scale)
	case *standard:
		lines = programs.StandardRules()
		srcName = "<standard>"
	case *expr != "":
		lines = []string{*expr}
		srcName = "<expr>"
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		if err := sc.Err(); err != nil {
			return err
		}
		srcName = *file
	case exporting || tracing:
		// Pure stats and trace runs default to the standard rule base so
		// the workload has something to traverse.
		lines = programs.StandardRules()
		srcName = "<standard>"
	default:
		fs.Usage()
		os.Exit(2)
	}

	// Known-label snapshot for symbol validation: taken before any parsing,
	// because the SID table interns every label a rule mentions.
	knownLabel := pfcheck.LabelSnapshot(w.Env.Policy)
	sym := &pfcheck.Symbols{
		KnownLabel: knownLabel,
		KnownProgram: func(p string) bool {
			_, ok := w.Env.LookupPath(p)
			return ok
		},
		Entrypoints: programs.KnownEntrypoints(),
	}
	if *scale > 0 {
		// The synthetic base draws labels and programs from its own
		// namespace; only the semantic checks apply to it.
		sym = &pfcheck.Symbols{KnownLabel: func(mac.Label) bool { return true }}
	}

	if *checkOnly {
		return runCheck(out, w, srcName, lines, sym, *jsonOut)
	}
	if *verify {
		return runVerify(out, w, gw, srcName, lines, *invFile)
	}

	// In export mode the compiled-rule chatter would corrupt the JSON or
	// Prometheus stream, so keep stdout for the exposition only.
	installed := 0
	for n, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cmd, err := pftables.InstallAt(w.Env, w.Engine, line, pf.Pos{File: srcName, Line: n + 1})
		if err != nil {
			return fmt.Errorf("%s\n  -> %w", line, err)
		}
		installed++
		if exporting {
			continue
		}
		if cmd.NewChainName != "" {
			fmt.Fprintf(out, "chain %s created\n", cmd.NewChainName)
			continue
		}
		fmt.Fprintf(out, "[%s/%s] %s\n", cmd.Table, cmd.Chain, cmd.Rule.String(w.K.Policy.SIDs()))
	}
	if !exporting {
		if gw != nil {
			fmt.Fprintf(out, "# world %s: %d inodes, %d users, %d labels, %d rules (built in %.0fms)\n",
				gw.Spec.Name, gw.Stats.Inodes, gw.Stats.Users, gw.Stats.Labels, gw.Stats.Rules, gw.Stats.BuildMs)
		} else {
			fmt.Fprintf(out, "# %d rules installed; chains: %s\n", installed, strings.Join(w.Engine.Chains(), ", "))
		}
	}

	// Load-time analysis: in export mode the installed ruleset is analyzed
	// and the finding tallies ride along with the other metrics, so a
	// scraper can alert on rulesets that loaded with analyzer errors.
	var checks *pfcheck.Summary
	if exporting {
		rep := pfcheck.AnalyzeEngine(w.Engine, sym)
		rep.Export(reg)
		s := rep.Summary()
		checks = &s
	}

	if *workload {
		switch {
		case tracing:
			if err := runTraced(out, w, gw, *fleetSize, *duration, *seed, *topFlag, exporting); err != nil {
				return err
			}
		case gw != nil:
			runFleet(out, gw, *fleetSize, *duration, *seed, exporting)
		default:
			runWorkload(w)
		}
	}
	if *list {
		listRules(w.Engine, out)
	}
	if *save {
		for _, line := range pftables.Save(w.Engine) {
			fmt.Fprintln(out, line)
		}
	}
	if *stats {
		if err := writeStats(out, reg, store, checks); err != nil {
			return err
		}
	}
	if *statsProm {
		if err := reg.WritePrometheus(out); err != nil {
			return err
		}
	}
	if *listen != "" {
		fmt.Fprintf(os.Stderr, "pfctl: serving /metrics and /vars on %s\n", *listen)
		return http.ListenAndServe(*listen, reg.Handler())
	}
	return nil
}

// runWorkload drives a canned, deterministic slice of the simulated world
// through the firewall so every exported metric family has data: trusted
// file opens (FILE_OPEN accepts), an abstract-socket echo session
// (SOCKET_SENDMSG / RECVMSG), and an adversary link-following attack that
// the rule base drops (populating the span ring's DROPs and denial log).
func runWorkload(w *programs.World) {
	sshd := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
	for i := 0; i < 8; i++ {
		if fd, err := sshd.Open("/etc/passwd", kernel.O_RDONLY, 0); err == nil {
			sshd.ReadAll(fd)
			sshd.Close(fd)
		}
	}

	srv := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
	cli := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
	if lfd, err := srv.BindAbstract("pfctl-demo"); err == nil {
		if srv.Listen(lfd, 4) == nil {
			if cfd, err := cli.ConnectAbstract("pfctl-demo"); err == nil {
				if sfd, err := srv.Accept(lfd); err == nil {
					for i := 0; i < 4; i++ {
						cli.Send(cfd, []byte("ping"))
						srv.Recv(sfd, -1)
						srv.Send(sfd, []byte("pong"))
						cli.Recv(cfd, -1)
					}
					srv.Close(sfd)
				}
				cli.Close(cfd)
			}
		}
		srv.Close(lfd)
	}

	adv := w.NewUser()
	adv.Symlink("/etc/shadow", "/tmp/trap")
	if fd, err := sshd.Open("/tmp/trap", kernel.O_RDONLY, 0); err == nil {
		// Only reached when the installed rules lack a link-walk guard.
		sshd.Close(fd)
	}
}

// runFleet is pfctl -world: the deployment-scale stress bed. A supervised
// mixed fleet (apache, sshd, dbus, php personas) serves traffic against
// the worldgen tree for the given duration with process churn, rule
// mutation, and adversary filesystem noise all live. In export mode the
// report is suppressed — the traffic exists to feed the metrics registry,
// and stdout must stay a clean JSON/Prometheus stream.
func runFleet(out io.Writer, gw *worldgen.World, instances int, d time.Duration, seed uint64, exporting bool) {
	fl := fleet.New(gw, fleet.Config{
		Seed:      seed,
		Instances: instances,
		Duration:  d,
		RuleChurn: true, ProcChurn: true, AdversaryChurn: true,
	})
	rep := fl.Run()
	if !exporting {
		fmt.Fprint(out, fleet.Format(rep))
	}
}

// runTraced is pfctl -trace / -top: start the in-simulation span stream
// (server and tailing client are processes inside the world, talking over
// the mediated abstract-socket transport), run the workload or fleet in
// the background, and consume the stream live — printing each span
// (-trace) or aggregating a fleet-wide per-tenant/persona/op view (-top).
func runTraced(out io.Writer, w *programs.World, gw *worldgen.World, instances int, d time.Duration, seed uint64, top, exporting bool) error {
	srv, err := trace.ServeSpans(w.K, "")
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := trace.DialSpans(w.K, "")
	if err != nil {
		return err
	}
	defer cl.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if gw != nil {
			runFleet(io.Discard, gw, instances, d, seed, true)
		} else {
			runWorkload(w)
		}
	}()

	agg := newTopAgg()
	start := time.Now()
	lastFrame := start
	finished := false
	for {
		sp, err := cl.Next(50 * time.Millisecond)
		switch {
		case err == nil:
			if top {
				agg.add(&sp)
			} else {
				fmt.Fprintln(out, formatSpan(&sp))
			}
		case errors.Is(err, trace.ErrStreamTimeout):
			if finished {
				// Workload done and the stream has gone quiet: drained.
				if top {
					agg.render(out, w, time.Since(start))
				}
				return nil
			}
		default:
			return err
		}
		if top && time.Since(lastFrame) >= time.Second {
			agg.render(out, w, time.Since(start))
			lastFrame = time.Now()
		}
		select {
		case <-done:
			finished = true
		default:
		}
	}
}

// formatSpan renders one provenance span as a human-readable -trace line:
// identity, decision, the deciding rule's source position, and — for a
// timed span — the per-layer latency split.
func formatSpan(sp *obs.Span) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d pid=%d %s %s %s", sp.Seq, sp.PID, sp.Subject, sp.Syscall, sp.Op)
	if sp.Path != "" {
		fmt.Fprintf(&b, " %s", sp.Path)
	}
	fmt.Fprintf(&b, " -> %s", sp.Verdict)
	if src := sp.RuleSrc(); src != "" {
		fmt.Fprintf(&b, " rule=%s(%s)", src, sp.RuleTarget)
	}
	if sp.Flags&obs.SpanUntimed == 0 {
		fmt.Fprintf(&b, " kernel=%s check=%s gauntlet=%s total=%s",
			time.Duration(sp.KernelNs), time.Duration(sp.CheckNs),
			time.Duration(sp.GauntletNs), time.Duration(sp.TotalNs))
	}
	if names := sp.Flags.Names(); len(names) > 0 {
		fmt.Fprintf(&b, " [%s]", strings.Join(names, ","))
	}
	return b.String()
}

// topKey is one -top aggregation bucket.
type topKey struct {
	Tenant  string
	Persona string
	Op      string
}

// topRow accumulates spans for one key: every span counts, every DROP
// span is a deny, and the latency quantiles aggregate the timed spans,
// reusing the obs histogram bucketing so -top and -stats agree on the
// estimate.
type topRow struct {
	count uint64
	drops uint64
	hist  obs.HistSnapshot
}

type topAgg struct {
	rows map[topKey]*topRow
}

func newTopAgg() *topAgg { return &topAgg{rows: map[topKey]*topRow{}} }

// tenantOf maps an object path to its worldgen tenant (the component
// under /srv/tenants), or "-" for shared infrastructure.
func tenantOf(path string) string {
	prefix := worldgen.TenantRoot + "/"
	if !strings.HasPrefix(path, prefix) {
		return "-"
	}
	rest := path[len(prefix):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "-"
	}
	return rest
}

func (a *topAgg) add(sp *obs.Span) {
	k := topKey{Tenant: tenantOf(sp.Path), Persona: sp.Subject, Op: sp.Op}
	r := a.rows[k]
	if r == nil {
		r = &topRow{}
		a.rows[k] = r
	}
	r.count++
	if sp.Verdict == "DROP" {
		r.drops++
	}
	if sp.Flags&obs.SpanUntimed != 0 {
		return
	}
	r.hist.Count++
	r.hist.Sum += sp.TotalNs
	r.hist.Buckets[obs.BucketIndex(sp.TotalNs)]++
}

// topRows caps one -top frame.
const topRows = 24

// render prints one -top frame: header with stream health, then the
// busiest tenant/persona/op buckets with deny counts and latency
// quantiles.
func (a *topAgg) render(out io.Writer, w *programs.World, elapsed time.Duration) {
	t := w.K.Tracer()
	keys := make([]topKey, 0, len(a.rows))
	var total uint64
	for k, r := range a.rows {
		keys = append(keys, k)
		total += r.count
	}
	sort.Slice(keys, func(i, j int) bool {
		ri, rj := a.rows[keys[i]], a.rows[keys[j]]
		if ri.count != rj.count {
			return ri.count > rj.count
		}
		if keys[i].Tenant != keys[j].Tenant {
			return keys[i].Tenant < keys[j].Tenant
		}
		if keys[i].Persona != keys[j].Persona {
			return keys[i].Persona < keys[j].Persona
		}
		return keys[i].Op < keys[j].Op
	})
	fmt.Fprintf(out, "pfctl top — %d spans streamed, %d published, %d subscriber drops, elapsed %s\n",
		total, t.Total(), t.Dropped(), elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "%-12s %-18s %-20s %8s %6s %10s %10s\n",
		"TENANT", "PERSONA", "OP", "SPANS", "DENY", "P50", "P99")
	shown := keys
	if len(shown) > topRows {
		shown = shown[:topRows]
	}
	for _, k := range shown {
		r := a.rows[k]
		fmt.Fprintf(out, "%-12s %-18s %-20s %8d %6d %10s %10s\n",
			k.Tenant, k.Persona, k.Op, r.count, r.drops,
			time.Duration(r.hist.Quantile(0.50)), time.Duration(r.hist.Quantile(0.99)))
	}
	if len(keys) > len(shown) {
		fmt.Fprintf(out, "… %d more buckets\n", len(keys)-len(shown))
	}
}

// runCheck is pfctl -check: run the static analyzer over the ruleset
// source, print every finding compiler-style plus a summary line, and fail
// (non-zero exit) exactly when an error-class finding exists. Timing goes
// to stderr so stdout stays byte-deterministic.
func runCheck(out io.Writer, w *programs.World, name string, lines []string, sym *pfcheck.Symbols, jsonOut bool) error {
	start := time.Now()
	rep := pfcheck.Analyze(w.Env, name, lines, sym)
	elapsed := time.Since(start)
	s := rep.Summary()
	if jsonOut {
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", enc)
	} else {
		for _, f := range rep.Findings {
			fmt.Fprintln(out, f.String())
		}
		fmt.Fprintf(out, "# pfcheck: %d rules, %d chains: %d errors, %d warnings, %d infos\n",
			s.Rules, s.Chains, s.Errors, s.Warnings, s.Infos)
	}
	fmt.Fprintf(os.Stderr, "pfcheck: analyzed %s (%d rules) in %s\n",
		name, s.Rules, elapsed.Round(time.Microsecond))
	if rep.HasErrors() {
		return fmt.Errorf("pfcheck: %d error finding(s)", s.Errors)
	}
	return nil
}

// runVerify is pfctl -verify: install the ruleset (worldgen worlds arrive
// with theirs already in place), sweep the invariant file's properties over
// the compiled dispatch index, print each invariant's outcome, and replay
// every definite violation's witness in a fresh world so the finding is
// backed by a concrete denied-or-allowed request, not just the abstraction.
func runVerify(out io.Writer, w *programs.World, gw *worldgen.World, name string, lines []string, invFile string) error {
	if _, err := pftables.InstallAllFrom(w.Env, w.Engine, name, lines); err != nil {
		return err
	}
	invName, invSrc := invFile, ""
	switch {
	case invFile != "":
		data, err := os.ReadFile(invFile)
		if err != nil {
			return err
		}
		invSrc = string(data)
	case gw != nil:
		invName, invSrc = "<worldgen>", worldgen.Invariants()
	default:
		return fmt.Errorf("pfverify: -verify needs -inv FILE (or -world for the built-in tenant invariants)")
	}
	invs, err := pfverify.ParseInvariants(invName, invSrc)
	if err != nil {
		return err
	}
	start := time.Now()
	rep := pfverify.Check(pfverify.FromEngine(w.Engine), w.K.Policy.SIDs(), invs)
	elapsed := time.Since(start)
	for _, res := range rep.Results {
		status := "holds"
		switch {
		case !res.Holds:
			status = "VIOLATED"
		case !res.Definitely:
			status = "holds (potential violations under widening)"
		}
		fmt.Fprintf(out, "invariant %s: %s (%d points", res.Invariant.Name, status, res.Points)
		if res.ViolationCount > 0 {
			fmt.Fprintf(out, ", %d violating", res.ViolationCount)
		}
		fmt.Fprintln(out, ")")
		for i := range res.Violations {
			fmt.Fprintln(out, "  "+res.Violations[i].String())
		}
	}
	if rep.Violated() && len(lines) > 0 {
		// Counterexample replay: every definite violation must reproduce
		// concretely; one that does not is a verifier bug.
		reproduced, skipped, failures := pfverify.ReplayAll(rep, lines)
		fmt.Fprintf(out, "# witness replay: %d reproduced, %d skipped, %d failed\n",
			reproduced, skipped, len(failures))
		for i := range failures {
			fmt.Fprintln(out, "  REPLAY FAILED: "+failures[i].String())
		}
	}
	fmt.Fprintf(out, "# pfverify: %d invariants over %d points (%d rules)\n",
		len(rep.Results), rep.Points, w.Engine.RuleCount())
	fmt.Fprintf(os.Stderr, "pfverify: swept %s in %s\n", name, elapsed.Round(time.Microsecond))
	if rep.Violated() {
		return fmt.Errorf("pfverify: invariant violation(s)")
	}
	return nil
}

// statsDoc is the -stats JSON document: the full metrics registry, the
// per-op latency quantile summary derived from the gauntlet histograms,
// the operator-facing denial summary (audit.TopN over the trace store),
// and the load-time static-analysis tallies.
type statsDoc struct {
	Metrics json.RawMessage     `json:"metrics"`
	Latency []opLatency         `json:"latency,omitempty"`
	Denials []audit.DenialGroup `json:"denials"`
	Checks  *pfcheck.Summary    `json:"checks,omitempty"`
}

// opLatency is one operation's sampled gauntlet-latency summary. The
// quantiles are bucket upper bounds (power-of-two nanoseconds), the same
// estimate the histograms themselves export.
type opLatency struct {
	Op    string `json:"op"`
	Count uint64 `json:"count"`
	P50Ns uint64 `json:"p50_ns"`
	P99Ns uint64 `json:"p99_ns"`
}

// latencySummary derives the per-op p50/p99 table from the engine's
// already-registered pf_gauntlet_latency_ns series.
func latencySummary(reg *obs.Registry) []opLatency {
	var out []opLatency
	for key, hs := range reg.HistogramSnapshots("pf_gauntlet_latency_ns") {
		if hs.Count == 0 {
			continue
		}
		op := strings.TrimPrefix(key, "op=")
		out = append(out, opLatency{
			Op: op, Count: hs.Count,
			P50Ns: hs.Quantile(0.50), P99Ns: hs.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}

func writeStats(out io.Writer, reg *obs.Registry, store *trace.Store, checks *pfcheck.Summary) error {
	metrics, err := reg.MarshalJSON()
	if err != nil {
		return err
	}
	doc := statsDoc{
		Metrics: metrics,
		Latency: latencySummary(reg),
		Denials: audit.TopN(audit.Denials(store), statsTopDenials),
		Checks:  checks,
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", enc)
	return err
}

// listRules prints every chain with per-rule hit counters and per-chain
// traversal counts, like iptables -L -v, followed by the engine's verdict
// totals.
func listRules(engine *pf.Engine, out io.Writer) {
	for _, name := range engine.Chains() {
		c, _ := engine.Chain(name)
		fmt.Fprintf(out, "Chain %s (%d rules, traversals=%d)\n", name, len(c.Rules), c.Traversals.Load())
		for i, r := range c.Rules {
			fmt.Fprintf(out, "  %3d  hits=%-8d %s\n", i+1, r.Hits.Load(), r.String(engine.Policy().SIDs()))
		}
	}
	fmt.Fprintf(out, "Verdict totals: requests=%d accepts=%d drops=%d\n",
		engine.Stats.Requests.Load(), engine.Stats.Accepts.Load(), engine.Stats.Drops.Load())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pfctl:", err)
	os.Exit(1)
}
