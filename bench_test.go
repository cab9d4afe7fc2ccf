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
// The cmd/pfbench tool prints the same data in the paper's table layout.
package pfirewall_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"pfirewall/internal/kernel"
	"pfirewall/internal/lmbench"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
	"pfirewall/internal/safeopen"
	"pfirewall/internal/webbench"
)

// parallelBenchWorld builds the fully optimized world the parallel
// benchmarks run against. PFBENCH_OBS=1 additionally attaches the metrics
// layer, so `PFBENCH_OBS=1 go test -bench=BenchmarkParallel` measures the
// observability-enabled hot path against the same benchmark baseline (the
// `make bench-smoke` comparison).
func parallelBenchWorld(b *testing.B) *programs.World {
	b.Helper()
	cfg := pf.Optimized()
	wopts := programs.WorldOpts{PF: &cfg}
	if os.Getenv("PFBENCH_OBS") == "1" {
		wopts.Obs = obs.New()
	}
	w := programs.NewWorld(wopts)
	if _, err := w.InstallRules(lmbench.SyntheticRuleBase(lmbench.FullRuleBaseSize)); err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkTable6 measures each syscall workload under each firewall
// configuration; compare ns/op across configs to reproduce Table 6's
// overhead columns.
func BenchmarkTable6(b *testing.B) {
	for _, wl := range lmbench.Workloads() {
		for _, cfg := range lmbench.Configs() {
			b.Run(fmt.Sprintf("%s/%s", wl.Name, cfg.Name), func(b *testing.B) {
				w := lmbench.World(cfg)
				p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
				for f := 0; f < 16; f++ {
					p.PushFrame(programs.BinSshd, uint64(0x100+f*0x10))
				}
				p.SyscallSite(programs.BinSshd, 0x300)
				body := wl.Setup(w, p)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					body()
				}
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
// DESIGN.md: with entrypoint-specific chains, per-access cost is flat in
// the rule-base size. Without them ("linear") the synthetic base's
// entrypoint rules stay in the input chain's index, where every one
// matches the benchmark's op and subject bucket, so each open still scans
// them all and cost grows with the base.
func BenchmarkRuleBaseScaling(b *testing.B) {
	for _, indexed := range []bool{false, true} {
		for _, nrules := range []int{10, 100, 1000, 5000} {
			name := "linear"
			if indexed {
				name = "eptchains"
			}
			b.Run(fmt.Sprintf("%s/rules=%d", name, nrules), func(b *testing.B) {
				cfg := pf.Config{CtxCache: true, LazyCtx: true, EptChains: indexed}
				w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
				if _, err := w.InstallRules(lmbench.SyntheticRuleBase(nrules)); err != nil {
					b.Fatal(err)
				}
				p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
				p.SyscallSite(programs.BinSshd, 0x300)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
					if err != nil {
						b.Fatal(err)
					}
					p.Close(fd)
				}
			})
		}
	}
}

// BenchmarkRuleScale measures generic-rule scaling: the mediated open+close
// pair against the deployment-scale generated rule base under the fully
// optimized configuration. The compiled decision program should stay near
// flat as the rule count grows. The 10,000-rule cell is gated behind
// PFBENCH_RULESCALE=1 (like the PFBENCH_OBS benches) so a blanket
// `go test -bench .` stays fast; `pfbench -rulescale` always runs it.
func BenchmarkRuleScale(b *testing.B) {
	for _, nrules := range rulegen.ScaleSizes {
		b.Run(fmt.Sprintf("compiled/rules=%d", nrules), func(b *testing.B) {
			if nrules > 1200 && os.Getenv("PFBENCH_RULESCALE") != "1" {
				b.Skip("set PFBENCH_RULESCALE=1 for the 10k-rule cells")
			}
			cfg := pf.Optimized()
			w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
			if _, err := w.InstallRules(rulegen.ScaleRuleBase(1, nrules)); err != nil {
				b.Fatal(err)
			}
			p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
			p.SyscallSite(programs.BinSshd, 0x300)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
				if err != nil {
					b.Fatal(err)
				}
				p.Close(fd)
			}
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
	for _, g := range lmbench.ParallelFanout {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			w := parallelBenchWorld(b)
			procs := make([]*kernel.Proc, g)
			for i := range procs {
				p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
				for f := 0; f < 16; f++ {
					p.PushFrame(programs.BinSshd, uint64(0x100+f*0x10))
				}
				p.SyscallSite(programs.BinSshd, 0x300)
				// Warm the per-process context caches so the timed region
				// measures steady state.
				fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
				if err != nil {
					b.Fatal(err)
				}
				p.Close(fd)
				procs[i] = p
			}
			per := b.N / g
			if per == 0 {
				per = 1
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func(p *kernel.Proc) {
					defer wg.Done()
					for n := 0; n < per; n++ {
						fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
						if err != nil {
							b.Error(err)
							return
						}
						p.Close(fd)
					}
				}(procs[i])
			}
			wg.Wait()
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
	for _, g := range lmbench.ParallelFanout {
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
	for _, g := range lmbench.ParallelFanout {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			w := parallelBenchWorld(b)
			type pair struct {
				daemon, client *kernel.Proc
				sfd            int
				name           string
			}
			pairs := make([]pair, g)
			for i := range pairs {
				daemon := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "dbusd_t", Exec: programs.BinDbusD})
				client := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
				client.SyscallSite(programs.BinSshd, 0x300)
				name := fmt.Sprintf("bench-ipc-%d", i)
				sfd, err := daemon.BindAbstract(name)
				if err != nil {
					b.Fatal(err)
				}
				if err := daemon.Listen(sfd, 16); err != nil {
					b.Fatal(err)
				}
				pairs[i] = pair{daemon: daemon, client: client, sfd: sfd, name: name}
			}
			req := []byte("GET job\n")
			per := b.N / g
			if per == 0 {
				per = 1
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < g; i++ {
				wg.Add(1)
				go func(pr pair) {
					defer wg.Done()
					for n := 0; n < per; n++ {
						cfd, err := pr.client.ConnectAbstract(pr.name)
						if err != nil {
							b.Error(err)
							return
						}
						afd, err := pr.daemon.Accept(pr.sfd)
						if err != nil {
							b.Error(err)
							return
						}
						if _, err := pr.client.Send(cfd, req); err != nil {
							b.Error(err)
							return
						}
						if _, err := pr.daemon.Recv(afd, 0); err != nil {
							b.Error(err)
							return
						}
						pr.client.Close(cfd)
						pr.daemon.Close(afd)
					}
				}(pairs[i])
			}
			wg.Wait()
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
