// Command pfbench regenerates the paper's performance tables and figures
// (Section 6.2) and the beyond-the-paper benches. Benches are named
// arguments:
//
//	pfbench table6      # lmbench microbenchmarks × PF configuration
//	pfbench table7      # macrobenchmarks × {Without PF, PF Base, PF Full}
//	pfbench fig4        # open variants × path length
//	pfbench fig5        # Apache SymLinksIfOwnerMatch: program vs rule R8
//	pfbench hotpath     # mediated syscalls at 1/4/8 goroutines
//	pfbench ipc         # socket round trips across the three namespaces
//	pfbench obs         # metrics off vs on, tracing off vs sampled (gated)
//	pfbench rulescale   # ns/op vs rule-base size through the compiled program
//	pfbench alloc       # allocs/op, bytes/op and tail latency (gated)
//	pfbench policy      # publish latency, propagation, disturbance (gated)
//	pfbench verify      # invariant-sweep wall clock vs rule-base size (gated)
//	pfbench worldscale  # fleet traffic vs world size under churn
//	pfbench all         # every bench, in that order
//
// Every bench but table7, fig4 and fig5 runs through internal/lmbench's
// cell runner and prints its report as a Markdown table; a gated bench
// whose report breaks its budget fails the run once every named bench
// has run. -json writes each such
// report to BENCH_<name>.json, -smoke runs each bench's trimmed CI grid
// (written to BENCH_<name>_smoke.json), and -iters overrides every bench's
// default op count per goroutine and arm. -cpuprofile, -memprofile and
// -trace capture pprof/runtime-trace artifacts of whatever ran.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"

	"pfirewall/internal/lmbench"
	"pfirewall/internal/safeopen"
	"pfirewall/internal/webbench"
)

// Fixed parameters of the paper benches: Table 7's build units and
// Figure 5's requests per client.
const (
	macroScale       = 50
	fig5Requests     = 300
	defaultFig4Iters = 20000
)

// paper runs the benches whose packages keep their own table layouts.
var paper = map[string]func(iters int){
	"table7": func(int) {
		fmt.Println("Table 7: macrobenchmarks (elapsed, % overhead vs Without PF)")
		fmt.Print(webbench.FormatTable7(webbench.RunTable7(macroScale, lmbench.SyntheticRuleBase(lmbench.FullRuleBaseSize))))
	},
	"fig4": func(iters int) {
		fmt.Println("Figure 4: open variants vs path length (ns/op, % over bare open)")
		fmt.Print(safeopen.Format(safeopen.Run(cmp.Or(iters, defaultFig4Iters))))
	},
	"fig5": func(int) {
		fmt.Println("Figure 5: Apache SymLinksIfOwnerMatch — program checks vs PF rule R8 (req/s)")
		fmt.Print(webbench.FormatFigure5(webbench.RunFigure5(fig5Requests)))
	},
}

func main() {
	iters := flag.Int("iters", 0, "ops per goroutine and arm (0: each bench's default)")
	smoke := flag.Bool("smoke", false, "run each bench's trimmed CI grid")
	writeJSON := flag.Bool("json", false, "write each report to BENCH_<name>.json (BENCH_<name>_smoke.json with -smoke)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	all := []string{"table6", "table7", "fig4", "fig5"}
	for _, b := range lmbench.Benches() {
		if !slices.Contains(all, b.Name) {
			all = append(all, b.Name)
		}
	}
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pfbench [flags] bench...\nbenches: %v, all\n", all)
		flag.PrintDefaults()
	}
	flag.Parse()

	names := flag.Args()
	if len(names) == 0 {
		flag.Usage()
		return
	}
	if slices.Contains(names, "all") {
		names = all
	}
	for _, name := range names {
		if !slices.Contains(all, name) {
			fatal(fmt.Errorf("unknown bench %q", name))
		}
	}

	if *cpuprofile != "" {
		f := create(*cpuprofile)
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *tracePath != "" {
		f := create(*tracePath)
		if err := trace.Start(f); err != nil {
			fatal(err)
		}
		defer func() { trace.Stop(); f.Close() }()
	}
	if *memprofile != "" {
		defer func() {
			f := create(*memprofile)
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	failed := false
	for _, name := range names {
		if run := paper[name]; run != nil {
			run(*iters)
			fmt.Println()
			continue
		}
		b, _ := lmbench.Lookup(name)
		rep := lmbench.Run(b, lmbench.Opts{Iters: *iters, Smoke: *smoke})
		fmt.Print(lmbench.Markdown(rep))
		fmt.Println()
		if *writeJSON {
			path := lmbench.FileName(rep.Bench, rep.Smoke)
			buf, err := json.MarshalIndent(rep, "", "  ")
			if err == nil {
				err = os.WriteFile(path, append(buf, '\n'), 0o644)
			}
			if err != nil {
				fatal(err)
			}
			fmt.Println("wrote", path)
		}
		if b.Gate != nil {
			if err := b.Gate(rep); err != nil {
				fmt.Fprintf(os.Stderr, "pfbench: %s gate: %v\n", name, err)
				failed = true
				continue
			}
			fmt.Println(name, "gate: ok")
		}
	}
	if failed {
		os.Exit(1)
	}
}

func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pfbench:", err)
	os.Exit(1)
}
