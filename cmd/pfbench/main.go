// Command pfbench regenerates the paper's performance tables and figures
// (Section 6.2) in their published layouts:
//
//	pfbench -table6   # lmbench microbenchmarks × PF configuration
//	pfbench -table7   # macrobenchmarks × {Without PF, PF Base, PF Full}
//	pfbench -fig4     # open variants × path length
//	pfbench -fig5     # Apache SymLinksIfOwnerMatch: program vs rule R8
//	pfbench -parallel  # multi-process hot-path scaling at 1/4/8 goroutines
//	pfbench -ipc       # socket round-trip scaling across the three namespaces
//	pfbench -rulescale # ns/op vs rule-base size through the compiled program
//	pfbench -policy    # control-plane publish latency, propagation, disturbance
//	pfbench -alloc     # allocs/op, bytes/op and tail latency on the hot path
//	pfbench -verify    # symbolic invariant-sweep wall clock vs rule-base size
//	pfbench -worldscale # fleet traffic vs world size (worldgen + fleet stress bed)
//	pfbench -all       # everything
//
// -iters and -requests trade precision for runtime. -json writes the
// -parallel results (plus hardware parallelism) to the given file, e.g.
// `pfbench -parallel -json BENCH_hotpath.json`; -ipc-json does the same
// for the -ipc results, e.g. `pfbench -ipc -ipc-json BENCH_ipc.json`.
//
// -obs runs the observability-overhead comparison (hot paths with the
// metrics layer off vs on); -obs-json writes its report, e.g.
// `pfbench -obs -obs-json BENCH_obs.json`. -tracing adds the
// decision-provenance comparison (metrics-on world with tracing disabled
// vs sampling one syscall in -trace-every) to the same report, and
// -tracing-gate fails the run if sampled tracing costs more than 10% on
// the open path. -cpuprofile, -memprofile and -trace capture
// pprof/runtime-trace artifacts of whatever ran.
//
// -worldscale sweeps the standing stress bed: deployment-scale worlds
// (up to a million inodes) under a supervised daemon fleet with live
// process churn and concurrent rule mutation. -worldscale-json writes
// BENCH_worldscale.json; -worldscale-sizes/-fleets/-secs/-seed shape the
// sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"

	"pfirewall/internal/lmbench"
	"pfirewall/internal/rulegen"
	"pfirewall/internal/safeopen"
	"pfirewall/internal/webbench"
)

// The sendmmsg-8 allocation budget the alloc gate enforces: the data
// plane hands each received message out as a fresh byte slice. The
// recorded figure (BENCH_alloc.json) is the ceiling; lower these when the
// row improves, never raise them.
const (
	sendmmsgAllocs = 6
	sendmmsgBytes  = 208
)

func main() {
	t6 := flag.Bool("table6", false, "run the Table 6 microbenchmarks")
	t7 := flag.Bool("table7", false, "run the Table 7 macrobenchmarks")
	f4 := flag.Bool("fig4", false, "run the Figure 4 open-variant comparison")
	f5 := flag.Bool("fig5", false, "run the Figure 5 Apache comparison")
	par := flag.Bool("parallel", false, "run the multi-process hot-path scaling measurement")
	ipc := flag.Bool("ipc", false, "run the socket round-trip scaling measurement")
	obsRun := flag.Bool("obs", false, "run the observability-overhead comparison (metrics off vs on)")
	tracingRun := flag.Bool("tracing", false, "run the decision-provenance overhead comparison (tracing off vs sampled)")
	tracingGate := flag.Bool("tracing-gate", false, "with -tracing: fail if sampled tracing exceeds 10% overhead on the open path")
	traceEvery := flag.Int("trace-every", 0, "span sampling period for -tracing (0: the default)")
	ruleScale := flag.Bool("rulescale", false, "run the rule-base scaling sweep (compiled decision program, 100 to 10k rules)")
	policyRun := flag.Bool("policy", false, "run the policy control-plane measurement (publish latency, propagation, open-path disturbance)")
	policyGate := flag.Bool("policy-gate", false, "with -policy: fail on slow incremental publish, stale verdicts, or >10% open-path p99 disturbance")
	policyJSONPath := flag.String("policy-json", "", "write -policy results as JSON to this file")
	policyPublishes := flag.Int("policy-publishes", 400, "publishes per -policy latency cell")
	policyMax := flag.Int("policy-max", 0, "largest -policy rule-base size (0: all standard sizes)")
	allocRun := flag.Bool("alloc", false, "run the hot-path allocation profile (allocs/op, bytes/op, p99)")
	allocGate := flag.Bool("alloc-gate", false, "with -alloc: fail if the open+close or stat workload allocates at all, or sendmmsg-8 exceeds its allocation budget")
	verifyRun := flag.Bool("verify", false, "run the symbolic-verifier scaling sweep (invariant proof wall clock vs rule-base size)")
	verifyGate := flag.Bool("verify-gate", false, "with -verify: fail if any invariant fails to prove or any sweep exceeds the wall-clock budget")
	verifyJSONPath := flag.String("verify-json", "", "write -verify results as JSON to this file")
	verifyMax := flag.Int("verify-max", 0, "largest -verify rule-base size (0: all standard sizes)")
	worldScale := flag.Bool("worldscale", false, "run the fleet stress bed across world sizes and fleet sizes")
	all := flag.Bool("all", false, "run everything")
	iters := flag.Int("iters", 20000, "iterations per microbenchmark cell")
	requests := flag.Int("requests", 300, "requests per client per web cell")
	scale := flag.Int("scale", 50, "macrobenchmark scale (build units)")
	sampleEvery := flag.Int("obs-sample", 0, "latency sampling period for -obs (0: the default)")
	jsonPath := flag.String("json", "", "write -parallel results as JSON to this file")
	ipcJSONPath := flag.String("ipc-json", "", "write -ipc results as JSON to this file")
	obsJSONPath := flag.String("obs-json", "", "write -obs results as JSON to this file")
	ruleScaleJSONPath := flag.String("rulescale-json", "", "write -rulescale results as JSON to this file")
	allocJSONPath := flag.String("alloc-json", "", "write -alloc results as JSON to this file")
	ruleScaleMax := flag.Int("rulescale-max", 0, "largest -rulescale rule-base size (0: all standard sizes)")
	worldScaleJSONPath := flag.String("worldscale-json", "", "write -worldscale results as JSON to this file")
	worldScaleSizes := flag.String("worldscale-sizes", "", "comma-separated worldgen presets for -worldscale (default small,medium,large)")
	worldScaleFleets := flag.String("worldscale-fleets", "", "comma-separated fleet sizes for -worldscale (default 4,8)")
	worldScaleSecs := flag.Float64("worldscale-secs", 2, "traffic seconds per -worldscale cell")
	worldScaleSeed := flag.Uint64("worldscale-seed", 1, "seed for -worldscale worlds and fleet schedules")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	if !*t6 && !*t7 && !*f4 && !*f5 && !*par && !*ipc && !*obsRun && !*tracingRun && !*ruleScale && !*policyRun && !*allocRun && !*verifyRun && !*worldScale && !*all {
		flag.Usage()
		return
	}
	if *all {
		// -worldscale stays opt-in: the full sweep builds million-inode
		// worlds and holds each cell under traffic for -worldscale-secs.
		*t6, *t7, *f4, *f5, *par, *ipc, *obsRun, *tracingRun, *ruleScale, *policyRun, *allocRun, *verifyRun = true, true, true, true, true, true, true, true, true, true, true, true
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("cpuprofile:", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile:", err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal("trace:", err)
		}
		if err := trace.Start(f); err != nil {
			fatal("trace:", err)
		}
		defer func() { trace.Stop(); f.Close() }()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal("memprofile:", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("memprofile:", err)
			}
		}()
	}

	if *t6 {
		fmt.Println("Table 6: microbenchmarks (ns/op, % overhead vs DISABLED)")
		fmt.Print(lmbench.FormatTable6(lmbench.Run(*iters)))
		fmt.Println()
	}
	if *t7 {
		fmt.Println("Table 7: macrobenchmarks (elapsed, % overhead vs Without PF)")
		fmt.Print(webbench.FormatTable7(webbench.RunTable7(*scale, lmbench.SyntheticRuleBase(lmbench.FullRuleBaseSize))))
		fmt.Println()
	}
	if *f4 {
		fmt.Println("Figure 4: open variants vs path length (ns/op, % over bare open)")
		fmt.Print(safeopen.Format(safeopen.Run(*iters)))
		fmt.Println()
	}
	if *f5 {
		fmt.Println("Figure 5: Apache SymLinksIfOwnerMatch — program checks vs PF rule R8 (req/s)")
		fmt.Print(webbench.FormatFigure5(webbench.RunFigure5(*requests)))
		fmt.Println()
	}
	if *par {
		rep := lmbench.RunParallel(*iters, lmbench.ParallelFanout)
		emit("Hot-path scaling: mediated syscalls across concurrent processes",
			lmbench.FormatParallel(rep), *jsonPath, rep)
	}
	if *ipc {
		rep := lmbench.RunIPC(*iters, lmbench.ParallelFanout)
		emit("IPC scaling: socket round trips across concurrent daemon/client pairs",
			lmbench.FormatIPC(rep), *ipcJSONPath, rep)
	}
	if *ruleScale {
		sizes := rulegen.ScaleSizes
		if *ruleScaleMax > 0 {
			var trimmed []int
			for _, n := range sizes {
				if n <= *ruleScaleMax {
					trimmed = append(trimmed, n)
				}
			}
			sizes = trimmed
		}
		rep := lmbench.RunRuleScale(*iters, sizes)
		emit("Rule-base scaling: the compiled decision program",
			lmbench.FormatRuleScale(rep), *ruleScaleJSONPath, rep)
	}
	if *policyRun {
		sizes := lmbench.PolicyChurnSizes
		if *policyMax > 0 {
			var trimmed []int
			for _, n := range sizes {
				if n <= *policyMax {
					trimmed = append(trimmed, n)
				}
			}
			sizes = trimmed
		}
		rep := lmbench.RunPolicyChurn(*policyPublishes, *iters, sizes)
		emit("Policy control plane: hitless publish latency, fleet propagation, open-path disturbance",
			lmbench.FormatPolicyChurn(rep), *policyJSONPath, rep)
		if *policyGate {
			// The speedup gate reads the largest swept size: at deployment
			// scale (>=10k rules) incremental publish must beat the full
			// rebuild by 10x; a trimmed smoke sweep still has to show a
			// clear win. The hitless gates are absolute: no probe may see
			// a stale verdict after its publish round-trip, every request
			// must resolve to a verdict, and the open path's best-round
			// p99 may not degrade more than 10% while churning.
			maxSize := rep.MaxPublishSize()
			need := 10.0
			if maxSize < 10000 {
				need = 1.5
			}
			if s := rep.SpeedupAt(maxSize); s < need {
				fatal("policy gate:", fmt.Errorf(
					"incremental publish only %.1fx faster than full rebuild at %d rules, want >=%.1fx", s, maxSize, need))
			}
			if rep.Propagation.Lost != 0 {
				fatal("policy gate:", fmt.Errorf(
					"%d probes saw a stale verdict after a completed publish", rep.Propagation.Lost))
			}
			if !rep.Disturbance.VerdictsConserved {
				fatal("policy gate:", fmt.Errorf(
					"verdicts not conserved under churn: %d requests vs %d accepts + %d drops",
					rep.Disturbance.Requests, rep.Disturbance.Accepts, rep.Disturbance.Drops))
			}
			if rep.Disturbance.BestRoundPct > 10 {
				fatal("policy gate:", fmt.Errorf(
					"open-path p99 degrades %.1f%% in every churning round, budget 10%%", rep.Disturbance.BestRoundPct))
			}
			fmt.Printf("policy gate: ok (%.0fx at %d rules, 0 stale verdicts, conserved, best-round disturbance %+.1f%%)\n",
				rep.SpeedupAt(maxSize), maxSize, rep.Disturbance.BestRoundPct)
		}
	}
	if *allocRun {
		rep := lmbench.RunAlloc(*iters)
		emit("Hot-path allocation profile: per-op heap traffic and tail latency",
			lmbench.FormatAlloc(rep), *allocJSONPath, rep)
		if *allocGate {
			for _, c := range rep.Cells {
				if (c.Workload == "open+close" || c.Workload == "stat") && c.AllocsPerOp != 0 {
					fatal("alloc gate:", fmt.Errorf("%s allocates %.3f/op on the armed hot path, want 0", c.Workload, c.AllocsPerOp))
				}
				if c.Workload == "sendmmsg-8" && (math.Round(c.AllocsPerOp) > sendmmsgAllocs || math.Round(c.BytesPerOp) > sendmmsgBytes) {
					fatal("alloc gate:", fmt.Errorf("sendmmsg-8 allocates %.3f/op, %.1f B/op; budget %d/op, %d B/op",
						c.AllocsPerOp, c.BytesPerOp, sendmmsgAllocs, sendmmsgBytes))
				}
			}
			fmt.Printf("alloc gate: ok (open+close and stat allocation-free, sendmmsg-8 within %d allocs / %d B per op)\n",
				sendmmsgAllocs, sendmmsgBytes)
		}
	}
	if *obsRun || *tracingRun {
		// Both comparisons share the BENCH_obs.json artifact: the metrics
		// off/on cells and the tracing off/sampled cells land in one report
		// so the observability cost story stays in one place.
		var rep lmbench.ObsReport
		var text string
		if *obsRun {
			rep = lmbench.RunObsOverhead(*iters, *sampleEvery, lmbench.ParallelFanout)
			text += lmbench.FormatObsOverhead(rep)
		}
		if *tracingRun {
			trep := lmbench.RunTraceOverhead(*iters, *sampleEvery, *traceEvery, lmbench.ParallelFanout)
			if !*obsRun {
				rep = trep
			} else {
				rep.TraceEvery, rep.TraceCells = trep.TraceEvery, trep.TraceCells
			}
			text += lmbench.FormatTraceOverhead(trep)
		}
		emit("Observability overhead: metrics off vs on; provenance tracing off vs sampled",
			text, *obsJSONPath, rep)
		if *tracingGate {
			// The gate reads the single-goroutine file cell: it isolates
			// per-request span cost, where the fan-out cells on a small CI
			// box mostly measure scheduler interference. It judges the best
			// *paired* round — off and on run back-to-back each round, so
			// interference (a throttled cgroup, a stray daemon) inflates
			// both sides of a pair and cancels in the ratio; only a cost
			// present in every round fails the gate.
			for _, c := range rep.TraceCells {
				if c.Workload == "open+stat+close" && c.Goroutines == 1 && c.BestRoundPct > 10 {
					fatal("tracing gate:", fmt.Errorf(
						"sampled tracing costs %.1f%% on the open path in every round, budget 10%%", c.BestRoundPct))
				}
			}
			fmt.Println("tracing gate: ok (sampled spans within 10% on the open path)")
		}
	}
	if *verifyRun {
		sizes := lmbench.VerifyScaleSizes
		if *verifyMax > 0 {
			var trimmed []int
			for _, n := range sizes {
				if n <= *verifyMax {
					trimmed = append(trimmed, n)
				}
			}
			sizes = trimmed
		}
		rep := lmbench.RunVerifyScale(sizes)
		emit("Verifier scaling: symbolic invariant sweep vs rule-base size",
			lmbench.FormatVerifyScale(rep), *verifyJSONPath, rep)
		if *verifyGate {
			for _, c := range rep.Cells {
				if !c.Holds {
					fatal("verify gate:", fmt.Errorf("invariants not proven at %d rules", c.Rules))
				}
			}
			if !rep.WithinBudget() {
				fatal("verify gate:", fmt.Errorf("a sweep exceeded the %s budget", lmbench.VerifyBudget))
			}
			fmt.Printf("verify gate: ok (all invariants proven, every sweep under %s)\n", lmbench.VerifyBudget)
		}
	}
	if *worldScale {
		sizes := lmbench.WorldScaleSizes
		if *worldScaleSizes != "" {
			sizes = splitList(*worldScaleSizes)
		}
		fleets := lmbench.WorldScaleFleets
		if *worldScaleFleets != "" {
			fleets = nil
			for _, s := range splitList(*worldScaleFleets) {
				n, err := strconv.Atoi(s)
				if err != nil || n < 1 {
					fatal("worldscale-fleets:", fmt.Errorf("bad fleet size %q", s))
				}
				fleets = append(fleets, n)
			}
		}
		rep := lmbench.RunWorldScale(sizes, fleets, *worldScaleSecs, *worldScaleSeed)
		emit("World scaling: fleet traffic under churn vs world size and fleet size",
			lmbench.FormatWorldScale(rep), *worldScaleJSONPath, rep)
	}
}

// emit prints one benchmark section — header, formatted table, blank
// separator — and writes the report as JSON when a path was given. Every
// bench funnels through here so the console and JSON shapes stay uniform.
func emit(header, text, jsonPath string, rep any) {
	fmt.Println(header)
	fmt.Print(text)
	fmt.Println()
	if jsonPath != "" {
		writeJSON(jsonPath, rep)
	}
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(prefix string, err error) {
	fmt.Fprintln(os.Stderr, "pfbench:", prefix, err)
	os.Exit(1)
}

func writeJSON(path string, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "json:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
}
