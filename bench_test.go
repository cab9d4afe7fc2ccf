// bench_test.go regenerates every performance table and figure of the
// paper's evaluation (Section 6.2) as Go benchmarks:
//
//	BenchmarkTable6   — lmbench-style syscall latency × PF configuration
//	BenchmarkTable7   — macrobenchmarks × {Without PF, PF Base, PF Full}
//	BenchmarkFigure4  — open variants × path length
//	BenchmarkFigure5  — Apache SymLinksIfOwnerMatch: program checks vs rule R8
//	BenchmarkRuleBaseScaling — ablation: entrypoint chains vs linear scan
//
// Run with: go test -bench=. -benchmem
// The lmbench-backed benchmarks time the same cells cmd/pfbench runs: one
// arm of an lmbench.Spec, built by lmbench.Bodies.
package pfirewall_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"pfirewall/internal/kernel"
	"pfirewall/internal/lmbench"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
	"pfirewall/internal/safeopen"
	"pfirewall/internal/webbench"
)

// benchCell times one arm of a pfbench cell, splitting b.N across the
// cell's goroutines, each driving its own bench process.
func benchCell(b *testing.B, s lmbench.Spec, arm string) {
	b.Helper()
	bodies := lmbench.Bodies(s, arm)
	per := max(b.N/len(bodies), 1)
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < per; n++ {
				body()
			}
		}()
	}
	wg.Wait()
}

// parallelArm is the armed EPTSPC world the parallel benchmarks run on.
// PFBENCH_OBS=1 selects the same world with the metrics layer attached,
// so `PFBENCH_OBS=1 go test -bench=BenchmarkParallel` measures the
// observability-enabled hot path against the same baseline.
func parallelArm() string {
	if os.Getenv("PFBENCH_OBS") == "1" {
		return "OBS"
	}
	return "EPTSPC"
}

// BenchmarkTable6 measures each syscall workload under each firewall
// configuration; compare ns/op across configs to reproduce Table 6's
// overhead columns.
func BenchmarkTable6(b *testing.B) {
	for _, wl := range lmbench.Workloads() {
		for _, cfg := range lmbench.Configs() {
			b.Run(fmt.Sprintf("%s/%s", wl.Name, cfg.Name), func(b *testing.B) {
				benchCell(b, lmbench.Spec{Workload: wl.Name, Rules: lmbench.FullRuleBaseSize}, cfg.Name)
			})
		}
	}
}

// BenchmarkTable7 measures the macrobenchmarks. Apache-build units and
// boot services are fixed per iteration so ns/op is comparable across
// configurations.
func BenchmarkTable7(b *testing.B) {
	fullRules := lmbench.SyntheticRuleBase(lmbench.FullRuleBaseSize)
	for _, cfg := range webbench.MacroConfigs() {
		b.Run("ApacheBuild/"+cfg.Name, func(b *testing.B) {
			w := webbench.NewMacroWorld(cfg, fullRules)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := webbench.ApacheBuild(w, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("Boot/"+cfg.Name, func(b *testing.B) {
			w := webbench.NewMacroWorld(cfg, fullRules)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := webbench.Boot(w, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, clients := range []int{1, 100} {
			b.Run(fmt.Sprintf("Web%d/%s", clients, cfg.Name), func(b *testing.B) {
				w := webbench.NewMacroWorld(cfg, fullRules)
				a := programs.NewApache(w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := webbench.RunWeb(w, a, clients, 200, "/index.html")
					if res.Errors > 0 {
						b.Fatalf("%d errors", res.Errors)
					}
				}
			})
		}
	}
}

// BenchmarkFigure4 measures each open variant at each path length.
func BenchmarkFigure4(b *testing.B) {
	for _, n := range safeopen.PaperPathLens {
		for _, v := range safeopen.Variants() {
			b.Run(fmt.Sprintf("%s/n=%d", v.Name, n), func(b *testing.B) {
				_, p, path := safeopen.Figure4World(n, v.NeedsPF)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fd, err := v.Open(p, path)
					if err != nil {
						b.Fatal(err)
					}
					p.Close(fd)
				}
			})
		}
	}
}

// BenchmarkFigure5 measures Apache request handling with the symlink-owner
// checks in the program versus in the firewall, across client counts and
// path lengths.
func BenchmarkFigure5(b *testing.B) {
	for _, mode := range []string{"program", "pf-rules"} {
		for _, c := range webbench.Figure5Clients {
			for _, n := range webbench.Figure5PathLens {
				b.Run(fmt.Sprintf("%s/c=%d/n=%d", mode, c, n), func(b *testing.B) {
					w, a := webbench.NewFigure5World(mode, n)
					_ = w
					path := webbench.DeepPath(n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res := webbench.RunWeb(w, a, c, 100, path)
						if res.Errors > 0 {
							b.Fatalf("%d errors", res.Errors)
						}
					}
				})
			}
		}
	}
}

// BenchmarkRuleBaseScaling is the ablation for design decision 2 of
// DESIGN.md: with entrypoint-specific chains (EPTSPC), per-access cost is
// flat in the rule-base size. Without them ("linear": LAZYCON) the
// synthetic base's entrypoint rules stay in the input chain's index, where
// every one matches the benchmark's op and subject bucket, so each open
// still scans them all and cost grows with the base.
func BenchmarkRuleBaseScaling(b *testing.B) {
	for _, mode := range []struct{ name, arm string }{{"linear", "LAZYCON"}, {"eptchains", "EPTSPC"}} {
		for _, nrules := range []int{10, 100, 1000, 5000} {
			b.Run(fmt.Sprintf("%s/rules=%d", mode.name, nrules), func(b *testing.B) {
				benchCell(b, lmbench.Spec{Workload: "open+close", Rules: nrules}, mode.arm)
			})
		}
	}
}

// BenchmarkRuleScale measures generic-rule scaling: the mediated open+close
// pair against the deployment-scale generated rule base under the fully
// optimized configuration — pfbench rulescale's cells. The compiled
// decision program should stay near flat as the rule count grows. The
// 10,000-rule cell is gated behind PFBENCH_RULESCALE=1 (like the
// PFBENCH_OBS benches) so a blanket `go test -bench .` stays fast;
// `pfbench rulescale` always runs it.
func BenchmarkRuleScale(b *testing.B) {
	for _, nrules := range rulegen.ScaleSizes {
		b.Run(fmt.Sprintf("compiled/rules=%d", nrules), func(b *testing.B) {
			if nrules > 1200 && os.Getenv("PFBENCH_RULESCALE") != "1" {
				b.Skip("set PFBENCH_RULESCALE=1 for the 10k-rule cells")
			}
			benchCell(b, lmbench.Spec{Workload: "open+close", Rules: nrules, Scale: true}, "EPTSPC")
		})
	}
}

// BenchmarkParallelOpen measures the mediated open+close hot path with b.N
// split across g goroutines, each driving its own process (per-process
// syscall state is single-flow by design). The shared read structures —
// dentry cache, MAC adversary snapshot, hook table, PF ruleset — are all
// hit concurrently; because every one of them is published through an
// atomic pointer, ns/op should fall toward 1/cores as g grows on multicore
// hardware (and stay flat on one core).
func BenchmarkParallelOpen(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchCell(b, lmbench.Spec{Workload: "open+close", Rules: lmbench.FullRuleBaseSize, Goroutines: g}, parallelArm())
		})
	}
}

// BenchmarkParallelWeb holds the total request count fixed and varies the
// client concurrency, so ns/op isolates how the mediation stack behaves as
// more simulated Apache workers contend on the shared world.
func BenchmarkParallelWeb(b *testing.B) {
	// 320 requests split evenly at every fan-out in the grid (RunWeb floors
	// at 40 requests per client, so 8 clients is the max even split).
	const totalRequests = 320
	fullRules := lmbench.SyntheticRuleBase(lmbench.FullRuleBaseSize)
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", g), func(b *testing.B) {
			cfg := webbench.MacroConfigs()[len(webbench.MacroConfigs())-1] // PF Full
			w := webbench.NewMacroWorld(cfg, fullRules)
			a := programs.NewApache(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := webbench.RunWeb(w, a, g, totalRequests, "/index.html")
				if res.Errors > 0 {
					b.Fatalf("%d errors", res.Errors)
				}
			}
		})
	}
}

// BenchmarkParallelIPC measures the mediated socket round trip — connect,
// accept, request, reply, close — with b.N split across g goroutines, each
// driving its own daemon/client process pair against a private abstract
// listener. The namespace registry and the PF ruleset are shared across
// all goroutines; both are published through atomic pointers, so the read
// side scales like the open path in BenchmarkParallelOpen.
func BenchmarkParallelIPC(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchCell(b, lmbench.Spec{Workload: "ipc/abstract", Rules: lmbench.FullRuleBaseSize, Goroutines: g}, parallelArm())
		})
	}
}

// BenchmarkAdversaryCache is the ablation for the MAC-layer memoization of
// adversary accessibility, which sits on the PF hot path for every
// ADV_ACCESS and ~{SYSHIGH} evaluation.
func BenchmarkAdversaryCache(b *testing.B) {
	cfg := pf.Optimized()
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
	if _, err := w.InstallRules([]string{
		`pftables -o FILE_OPEN -m ADV_ACCESS --write --is true -j LOG`,
	}); err != nil {
		b.Fatal(err)
	}
	p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
		if err != nil {
			b.Fatal(err)
		}
		p.Close(fd)
	}
}
