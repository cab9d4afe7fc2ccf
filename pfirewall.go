// Package pfirewall is a faithful, fully simulated reproduction of
// "Process Firewalls: Protecting Processes During Resource Access"
// (Vijayakumar, Schiffman, Jaeger — EuroSys 2013).
//
// The Process Firewall is a kernel mechanism that protects *benign*
// processes from resource access attacks (link following, TOCTTOU races,
// untrusted search paths, PHP file inclusion, signal races, squatting) by
// filtering every resource access against rules that combine process
// context — which instruction is asking, what system calls came before —
// with system context — resource labels and adversary accessibility.
//
// This package is the public facade over a complete user-space simulation:
//
//   - a Unix-like kernel (internal/kernel) with a VFS (internal/vfs),
//     SELinux-style MAC (internal/mac), simulated user stacks
//     (internal/ustack), signals, and deterministic adversary interleaving;
//   - the firewall engine itself (internal/pf) with the paper's match,
//     target and context modules, lazy context collection, caching, and
//     entrypoint-specific chains;
//   - the pftables rule language (internal/pftables);
//   - the paper's simulated programs and exploits E1–E9
//     (internal/programs, internal/attacks);
//   - rule generation from traces and vulnerabilities (internal/trace,
//     internal/rulegen);
//   - the complete evaluation harness (bench_test.go, cmd/pfbench,
//     cmd/attacklab, cmd/rulegen, cmd/pfctl).
//
// # Quick start
//
//	sys := pfirewall.NewSystem(pfirewall.Options{Firewall: true})
//	sys.MustInstallRules(pfirewall.StandardRules())
//
//	adversary := sys.NewAdversary()
//	adversary.Symlink("/etc/shadow", "/tmp/innocent")
//
//	victim := sys.NewProcess(pfirewall.ProcessSpec{
//		UID: 0, Label: "sshd_t", Exec: "/usr/sbin/sshd",
//	})
//	_, err := victim.Open("/tmp/innocent", pfirewall.O_RDONLY, 0)
//	// err == pfirewall.ErrPFDenied: the firewall blocked the link walk.
package pfirewall

import (
	"fmt"

	"pfirewall/internal/kernel"
	"pfirewall/internal/mac"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
	"pfirewall/internal/trace"
)

// Aliases exposing the simulation's core types through the public package.
type (
	// Proc is a simulated process (task structure).
	Proc = kernel.Proc
	// ProcessSpec parameterizes process creation.
	ProcessSpec = kernel.ProcSpec
	// Kernel is the simulated operating system kernel.
	Kernel = kernel.Kernel
	// Engine is the Process Firewall engine.
	Engine = pf.Engine
	// EngineConfig selects the engine's optimizations (Table 6 columns).
	EngineConfig = pf.Config
	// Rule is a compiled firewall rule.
	Rule = pf.Rule
	// Verdict is an ACCEPT/DROP decision.
	Verdict = pf.Verdict
	// Label is a MAC (SELinux-style) type label.
	Label = mac.Label
	// Policy is the MAC policy with adversary accessibility.
	Policy = mac.Policy
	// TraceStore accumulates LOG records for rule generation.
	TraceStore = trace.Store
	// Table8Row is one row of the rule-generation study.
	Table8Row = rulegen.Table8Row
)

// Open flags re-exported for examples and callers.
const (
	O_RDONLY   = kernel.O_RDONLY
	O_WRONLY   = kernel.O_WRONLY
	O_RDWR     = kernel.O_RDWR
	O_CREAT    = kernel.O_CREAT
	O_EXCL     = kernel.O_EXCL
	O_NOFOLLOW = kernel.O_NOFOLLOW
	O_TRUNC    = kernel.O_TRUNC
)

// Signals.
const (
	SIGKILL = kernel.SIGKILL
	SIGALRM = kernel.SIGALRM
	SIGTERM = kernel.SIGTERM
)

// ErrPFDenied is returned by system calls the firewall blocks.
var ErrPFDenied = kernel.ErrPFDenied

// Options parameterizes NewSystem.
type Options struct {
	// Firewall attaches a Process Firewall engine.
	Firewall bool
	// Config overrides the engine configuration; the default is the fully
	// optimized engine (context caching, lazy collection, entrypoint
	// chains). Ignored unless Firewall is set.
	Config *EngineConfig
	// MACEnforcing turns MAC denials into errors (SELinux enforcing mode).
	MACEnforcing bool
	// WebTreeDepth controls the depth of the prebuilt web content tree
	// used by the path-length experiments.
	WebTreeDepth int
	// CollectTrace attaches a trace store and a system-wide LOG rule so
	// every resource access is recorded for rule generation.
	CollectTrace bool
	// Observability attaches the lock-free metrics layer (internal/obs):
	// syscall/mediation counters, latency histograms, cache statistics,
	// and the span ring holding every recent DROP, exportable as
	// Prometheus text or JSON through System.Obs().
	Observability bool
	// ObsSampleEvery overrides the sampling period: one syscall in
	// ObsSampleEvery carries timed spans, which the latency histograms
	// observe (default 16; 1 samples every syscall). Ignored unless
	// Observability is set.
	ObsSampleEvery int
}

// System is one simulated machine: kernel, policy, programs, and
// (optionally) the firewall.
type System struct {
	world *programs.World
	// Trace is non-nil when Options.CollectTrace was set.
	Trace *TraceStore
	obs   *obs.Registry
}

// NewSystem builds the standard Ubuntu-flavoured world of the paper's
// evaluation: trusted system domains, an untrusted user, /tmp with the
// sticky bit, web content, a PHP application, D-Bus, and the program
// binaries at their usual paths.
func NewSystem(opts Options) *System {
	wopts := programs.WorldOpts{
		MACEnforcing: opts.MACEnforcing,
		WebTreeDepth: opts.WebTreeDepth,
	}
	if opts.Firewall {
		cfg := pf.Optimized()
		if opts.Config != nil {
			cfg = *opts.Config
		}
		wopts.PF = &cfg
	}
	if opts.Observability {
		wopts.Obs = obs.New()
		wopts.ObsEvery = opts.ObsSampleEvery
	}
	w := programs.NewWorld(wopts)
	sys := &System{world: w, obs: wopts.Obs}
	if opts.CollectTrace && w.Engine != nil {
		sys.Trace = trace.NewStore()
		w.Engine.Logger = sys.Trace.Collector(w.K.Policy.SIDs())
		w.Engine.Append("input", &pf.Rule{Target: &pf.LogTarget{Prefix: "trace"}})
	}
	return sys
}

// Kernel exposes the simulated kernel.
func (s *System) Kernel() *Kernel { return s.world.K }

// Obs exposes the metrics registry, or nil when Options.Observability was
// not set. Use its WritePrometheus/WriteJSON/Handler methods to export.
func (s *System) Obs() *obs.Registry { return s.obs }

// Firewall exposes the engine, or nil when disabled.
func (s *System) Firewall() *Engine { return s.world.Engine }

// World exposes the program-layer world for advanced scenarios (the
// simulated Apache, PHP, ld.so, D-Bus, sshd models live there).
func (s *System) World() *programs.World { return s.world }

// NewProcess starts a process.
func (s *System) NewProcess(spec ProcessSpec) *Proc { return s.world.NewProc(spec) }

// NewAdversary starts the canonical untrusted local user (uid 1000,
// user_t, home /home/user).
func (s *System) NewAdversary() *Proc { return s.world.NewUser() }

// InstallRules parses and installs pftables rule lines.
func (s *System) InstallRules(lines []string) (int, error) {
	if s.world.Engine == nil {
		return 0, fmt.Errorf("pfirewall: system has no firewall attached")
	}
	return s.world.InstallRules(lines)
}

// MustInstallRules installs rules and panics on error; for examples and
// world setup.
func (s *System) MustInstallRules(lines []string) {
	if _, err := s.InstallRules(lines); err != nil {
		panic(err)
	}
}

// InstallRule installs a single rule line.
func (s *System) InstallRule(line string) error {
	_, err := s.InstallRules([]string{line})
	return err
}

// StandardRules returns the paper's Table 5 rule set (R1–R12 plus the
// system-wide safe_open rule).
func StandardRules() []string { return programs.StandardRules() }

// SafeOpenRules returns the firewall rules equivalent to Chari et al.'s
// safe_open (used by the Figure 4 experiment).
func SafeOpenRules() []string {
	return []string{
		`pftables -o LNK_FILE_READ -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP`,
	}
}

// OptimizedConfig returns the fully optimized engine configuration.
func OptimizedConfig() EngineConfig { return pf.Optimized() }

// RuleEnv returns a pftables compilation environment bound to this system
// (label resolution, path→inode lookup, NR_* syscall names).
func (s *System) RuleEnv() *pftables.Env { return s.world.Env }

// SuggestRules runs the paper's runtime-analysis rule suggestion over the
// system's collected trace (requires Options.CollectTrace).
func (s *System) SuggestRules(threshold int) ([]string, error) {
	if s.Trace == nil {
		return nil, fmt.Errorf("pfirewall: system was not created with CollectTrace")
	}
	var out []string
	for _, sug := range rulegen.SuggestRules(s.Trace, threshold) {
		out = append(out, sug.Rule)
	}
	return out, nil
}
