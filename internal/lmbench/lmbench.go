// Package lmbench is the benchmark harness behind cmd/pfbench and the
// root package's Go benchmarks. It reproduces the paper's Table 6 — the
// lmbench-style per-syscall latency measurements across Process Firewall
// configurations: DISABLED, BASE (default allow rule only), FULL
// (complete rule base, no optimizations), CONCACHE (+context caching),
// LAZYCON (+lazy context evaluation), and EPTSPC (+entrypoint-specific
// chains) — and runs the beyond-the-paper benches (hot-path scaling, IPC,
// observability overhead, rule-base scaling, allocations, the policy
// control plane, the verifier and the worldscale fleet) through the same
// cell runner, so every BENCH_*.json shares one schema (cell.go) and one
// Markdown renderer (render.go).
package lmbench

import (
	"fmt"
	"math"

	"pfirewall/internal/kernel"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
)

// Config names one arm a cell can run on: a Table 6 column, or the
// armed EPTSPC world with the observability layer attached.
type Config struct {
	Name string
	// PF disabled entirely when Attach is false.
	Attach bool
	// Rules installs the cell's rule base.
	Rules bool
	// Engine optimization flags.
	Engine pf.Config
	// ObsEvery > 0 attaches an obs registry sampling one syscall in
	// ObsEvery into timed spans, which the latency histograms observe.
	ObsEvery int
}

// Sampling periods of the observability arms: OBS samples at the default
// period kernel.AttachObs applies; COUNTERS attaches the same layer at a
// period no run reaches, so it pays the exact counters and no clock.
const (
	obsEvery      = 16
	countersEvery = math.MaxInt
)

// Configs returns the six Table 6 columns in paper order.
func Configs() []Config {
	return []Config{
		{Name: "DISABLED"},
		{Name: "BASE", Attach: true},
		{Name: "FULL", Attach: true, Rules: true},
		{Name: "CONCACHE", Attach: true, Rules: true, Engine: pf.Config{CtxCache: true}},
		{Name: "LAZYCON", Attach: true, Rules: true, Engine: pf.Config{CtxCache: true, LazyCtx: true}},
		{Name: "EPTSPC", Attach: true, Rules: true, Engine: pf.Optimized()},
	}
}

// config looks an arm up by name: a Table 6 column, OBS (EPTSPC with
// observability attached) or COUNTERS (OBS with no syscall sampled).
func config(name string) Config {
	cfgs := append(Configs(),
		Config{Name: "OBS", Attach: true, Rules: true, Engine: pf.Optimized(), ObsEvery: obsEvery},
		Config{Name: "COUNTERS", Attach: true, Rules: true, Engine: pf.Optimized(), ObsEvery: countersEvery},
	)
	for _, c := range cfgs {
		if c.Name == name {
			return c
		}
	}
	panic("lmbench: unknown config " + name)
}

// FullRuleBaseSize is the size of the synthetic rule base, matching the
// paper's "1218 rules ... generated by setting a lower threshold (100) for
// rule suggestion".
const FullRuleBaseSize = 1218

// SyntheticRuleBase builds a deployment-scale rule base: mostly
// entrypoint-specific deny rules across many programs (as rule suggestion
// produces), plus a few generic rules. Only a handful can ever apply to
// the benchmark process, which is exactly the situation the entrypoint
// index exploits.
func SyntheticRuleBase(n int) []string {
	rules := make([]string, 0, n)
	// A few generic (non-entrypoint) rules come first, as in the paper's
	// chain layout.
	rules = append(rules,
		`pftables -o LNK_FILE_READ -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP`,
		`pftables -I input -o PROCESS_SIGNAL_DELIVERY -j SIGNAL_CHAIN`,
		`pftables -I signal_chain -m SIGNAL_MATCH -m STATE --key 'sig' --cmp 1 -j DROP`,
		`pftables -A signal_chain -m SIGNAL_MATCH -j STATE --set --key 'sig' --value 1`,
	)
	for i := 0; len(rules) < n; i++ {
		prog := fmt.Sprintf("/usr/bin/prog%03d", i%331)
		ep := 0x2000 + (i*0x40)%0xffff
		rules = append(rules, fmt.Sprintf(
			"pftables -p %s -i 0x%x -s SYSHIGH -d ~{lib_t|usr_t} -o FILE_OPEN -j DROP", prog, ep))
	}
	return rules[:n]
}

// World builds a benchmark world armed with cfg, installing base when
// cfg.Rules is set.
func World(cfg Config, base []string) *programs.World {
	var opts programs.WorldOpts
	if cfg.Attach {
		e := cfg.Engine
		opts.PF = &e
	}
	if cfg.ObsEvery > 0 {
		opts.Obs = obs.New()
		opts.ObsEvery = cfg.ObsEvery
	}
	w := programs.NewWorld(opts)
	if cfg.Rules {
		if _, err := w.InstallRules(base); err != nil {
			panic(err)
		}
	}
	return w
}

// BenchProc starts the process every cell runs as: sshd_t, sixteen frames
// deep (real servers sit ~15-30 frames deep at syscall time, and
// entrypoint collection has to walk all of them).
func BenchProc(w *programs.World) *kernel.Proc {
	p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
	for i := 0; i < 16; i++ {
		p.PushFrame(programs.BinSshd, uint64(0x100+i*0x10))
	}
	p.SyscallSite(programs.BinSshd, 0x300)
	return p
}

// Workload is a named syscall pattern one bench process repeats.
type Workload struct {
	Name string
	// Setup prepares per-process state and returns the iteration body.
	Setup func(w *programs.World, p *kernel.Proc) func()
}

// Workloads returns the Table 6 rows in paper order.
func Workloads() []Workload {
	return []Workload{
		{Name: "null", Setup: func(w *programs.World, p *kernel.Proc) func() {
			return func() { p.Getpid() }
		}},
		{Name: "stat", Setup: func(w *programs.World, p *kernel.Proc) func() {
			return func() { must(p.Stat("/etc/passwd")) }
		}},
		{Name: "read", Setup: func(w *programs.World, p *kernel.Proc) func() {
			fd := must(p.Open("/etc/passwd", kernel.O_RDONLY, 0))
			return func() { p.Read(fd, 1) }
		}},
		{Name: "write", Setup: func(w *programs.World, p *kernel.Proc) func() {
			fd := must(p.Open("/tmp/bench-write", kernel.O_CREAT|kernel.O_RDWR, 0o600))
			buf := []byte{'x'}
			n := 0
			return func() {
				p.Write(fd, buf)
				// Keep the file bounded, as lmbench's write to /dev/null is.
				if n++; n%64 == 0 {
					p.Ftruncate(fd)
				}
			}
		}},
		{Name: "fstat", Setup: func(w *programs.World, p *kernel.Proc) func() {
			fd := must(p.Open("/etc/passwd", kernel.O_RDONLY, 0))
			return func() { p.Fstat(fd) }
		}},
		{Name: "open+close", Setup: func(w *programs.World, p *kernel.Proc) func() {
			return func() { p.Close(must(p.Open("/etc/passwd", kernel.O_RDONLY, 0))) }
		}},
		{Name: "fork+exit", Setup: func(w *programs.World, p *kernel.Proc) func() {
			return func() { must(p.Fork()).Exit(0) }
		}},
		{Name: "fork+execve", Setup: func(w *programs.World, p *kernel.Proc) func() {
			env := map[string]string{"PATH": "/bin"}
			return func() {
				child := must(p.Fork())
				mustDo(child.Execve(programs.BinSh, env))
				child.Exit(0)
			}
		}},
		{Name: "fork+sh -c", Setup: func(w *programs.World, p *kernel.Proc) func() {
			env := map[string]string{"PATH": "/bin"}
			return func() {
				// sh -c spawns a shell which itself forks and execs the
				// command, then both exit.
				shell := must(p.Fork())
				mustDo(shell.Execve(programs.BinSh, env))
				cmd := must(shell.Fork())
				mustDo(cmd.Execve(programs.BinBash, env))
				cmd.Exit(0)
				shell.Exit(0)
			}
		}},
	}
}

// benchWorkloads are the beyond-the-paper bodies: the three-syscall file
// loop the observability comparisons sample (a two-syscall loop would pin
// the power-of-two sampling slot to one syscall, making the span rate
// bimodal across runs), one IPC round trip per namespace, and a batched
// send/recv burst of eight messages.
var benchWorkloads = []Workload{
	{Name: "open+stat+close", Setup: func(w *programs.World, p *kernel.Proc) func() {
		return func() {
			fd := must(p.Open("/etc/passwd", kernel.O_RDONLY, 0))
			must(p.Stat("/etc/passwd"))
			p.Close(fd)
		}
	}},
	{Name: "ipc/fs", Setup: roundTrip("fs")},
	{Name: "ipc/abstract", Setup: roundTrip("abstract")},
	{Name: "ipc/port", Setup: roundTrip("port")},
	{Name: "sendmmsg-8", Setup: func(w *programs.World, p *kernel.Proc) func() {
		daemon, sfd, connect := listen(w, "abstract", p)
		cfd := must(connect())
		afd := must(daemon.Accept(sfd))
		burst := make([][]byte, 8)
		for i := range burst {
			burst[i] = ipcRequest
		}
		return func() {
			must(p.Sendmmsg(cfd, burst))
			// Drain in one burst so the stream buffer stays bounded.
			must(daemon.Recvmmsg(afd, 8, 0))
		}
	}},
}

// workload looks a body up by name among the Table 6 rows and the bench
// workloads.
func workload(name string) Workload {
	for _, wl := range append(Workloads(), benchWorkloads...) {
		if wl.Name == name {
			return wl
		}
	}
	panic("lmbench: unknown workload " + name)
}

var (
	ipcRequest = []byte("GET job\n")
	ipcReply   = []byte("OK job\n")
)

// listen binds a daemon's listener in namespace ns (fs, abstract or port)
// under a key unique to client, and returns it with the client's connect.
// Filesystem sockets walk the vfs on every connect; the abstract and port
// namespaces only touch the IPC registry.
func listen(w *programs.World, ns string, client *kernel.Proc) (*kernel.Proc, int, func() (int, error)) {
	daemon := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "dbusd_t", Exec: programs.BinDbusD})
	key := client.PID()
	var sfd int
	var err error
	var connect func() (int, error)
	switch ns {
	case "fs":
		path := fmt.Sprintf("/tmp/ipcbench-%d", key)
		sfd, err = daemon.Bind(path, 0o666)
		connect = func() (int, error) { return client.Connect(path) }
	case "abstract":
		name := fmt.Sprintf("ipcbench-%d", key)
		sfd, err = daemon.BindAbstract(name)
		connect = func() (int, error) { return client.ConnectAbstract(name) }
	case "port":
		port := uint16(9000 + key)
		sfd, err = daemon.BindPort(port)
		connect = func() (int, error) { return client.ConnectPort(port) }
	default:
		panic("lmbench: unknown namespace " + ns)
	}
	mustDo(err)
	mustDo(daemon.Listen(sfd, 16))
	return daemon, sfd, connect
}

// roundTrip is one complete client/daemon exchange in namespace ns —
// connect, accept, request, reply, two closes — crossing the firewall at
// the connect, accept, send and recv hooks. Connect enqueues the pending
// pair synchronously, so Accept never spins.
func roundTrip(ns string) func(w *programs.World, p *kernel.Proc) func() {
	return func(w *programs.World, p *kernel.Proc) func() {
		daemon, sfd, connect := listen(w, ns, p)
		return func() {
			cfd := must(connect())
			afd := must(daemon.Accept(sfd))
			must(p.Send(cfd, ipcRequest))
			must(daemon.Recv(afd, 0))
			must(daemon.Send(afd, ipcReply))
			must(p.Recv(cfd, 0))
			p.Close(cfd)
			daemon.Close(afd)
		}
	}
}

// must panics on a failed benchmark syscall: a body that errors would time
// the error path, not the workload.
func must[T any](v T, err error) T {
	mustDo(err)
	return v
}

func mustDo(err error) {
	if err != nil {
		panic(err)
	}
}
