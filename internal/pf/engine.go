package pf

import (
	"sort"
	"sync"
	"sync/atomic"

	"pfirewall/internal/mac"
	"pfirewall/internal/ustack"
)

// Config selects the engine optimizations, matching the columns of the
// paper's Table 6 microbenchmarks:
//
//	FULL     — Config{} (no optimizations)
//	CONCACHE — Config{CtxCache: true}
//	LAZYCON  — Config{CtxCache: true, LazyCtx: true}
//	EPTSPC   — Config{CtxCache: true, LazyCtx: true, EptChains: true}
//
// Every configuration dispatches through the compiled decision program
// (compile.go); the switches change which context is collected when and
// how entrypoint rules are routed, never which verdict a request gets.
type Config struct {
	// CtxCache caches collected context (entrypoints) across the multiple
	// resource requests of one system call (paper Section 4.2).
	CtxCache bool
	// LazyCtx collects a context field only when a rule under evaluation
	// needs it, instead of collecting everything at hook entry.
	LazyCtx bool
	// EptChains indexes entrypoint-bearing rules into per-entrypoint
	// chains so only applicable rules are traversed (paper Section 4.3).
	EptChains bool
}

// Optimized returns the fully optimized configuration (the deployment mode).
func Optimized() Config {
	return Config{CtxCache: true, LazyCtx: true, EptChains: true}
}

// Stats counts engine activity; read by benchmarks and tests. Counters are
// batched per request and sharded by pid, so concurrent processes can be
// filtered in parallel without cache-line contention.
type Stats struct {
	Requests       Counter
	Accepts        Counter
	Drops          Counter
	RulesEvaluated Counter
	CtxCollections Counter
	CtxCacheHits   Counter
}

// Chain is an ordered rule list. Built-in chains are "input" (resource
// accesses and signal delivery) and "syscallbegin" (evaluated at syscall
// entry, used by rule R12); others are user-defined jump targets.
type Chain struct {
	Name  string
	Rules []*Rule
	// Traversals counts entries into this chain (initial dispatch and
	// jumps). Like Rule.Hits it is shared across copy-on-write ruleset
	// snapshots, so counts survive rule updates.
	Traversals *Counter
	// ords holds each rule's order key, parallel to Rules (compile.go).
	ords []int64
}

// newChain builds a chain with its traversal counter armed.
func newChain(name string) *Chain {
	return &Chain{Name: name, Traversals: &Counter{}}
}

// clone returns a shallow-rule deep-slice copy for copy-on-write updates.
func (c *Chain) clone() *Chain {
	n := &Chain{Name: c.Name, Traversals: c.Traversals}
	n.Rules = append([]*Rule(nil), c.Rules...)
	n.ords = append([]int64(nil), c.ords...)
	return n
}

// rulesetGen issues snapshot generations; see Program.gen.
var rulesetGen atomic.Uint64

// clone returns a shallow copy for transactional copy-on-write updates:
// the chains map is copied but the *Chain values and the compiled indexes
// stay shared with p until a Tx mutation owns them (DESIGN.md §12).
// Cloning is therefore O(chains), not O(rules) — what keeps a one-rule
// publish cheap at 10k rules.
func (p *Program) clone() *Program {
	n := &Program{
		chains:      make(map[string]*Chain, len(p.chains)),
		eptChains:   p.eptChains,
		eptPrograms: p.eptPrograms,
		eptOps:      p.eptOps,
		nrGuard:     p.nrGuard,
		hasEptRules: p.hasEptRules,
		allNeeds:    p.allNeeds,
		totalRules:  p.totalRules,
		opsPresent:  p.opsPresent,
	}
	for name, c := range p.chains {
		n.chains[name] = c
	}
	// The indexes are intentionally not copied: publish derives them after
	// the mutation, and gen/version are reissued at publish time.
	return n
}

// Engine is the Process Firewall proper: the rule base plus the context
// machinery. One engine serves the whole system, like the in-kernel
// firewall; per-process state lives in ProcState.
type Engine struct {
	policy *mac.Policy
	cfg    Config

	// writeMu serializes rule-base writers; readers go through rs.
	writeMu sync.Mutex
	rs      atomic.Pointer[Program]

	// Control-plane state, all under writeMu (see tx.go): versionCtr issues
	// snapshot versions; history is the rollback ring of previously
	// published snapshots.
	versionCtr uint64
	history    []*Program
	// fullRecompile forces every publish to compile from scratch instead
	// of patching the previous snapshot's program. Tests set it to check
	// that incremental publishes are verdict-identical.
	fullRecompile bool

	// Publish-path counters (PublishStats); written under writeMu, read
	// lock-free by benchmarks and the control plane.
	publishes     atomic.Uint64
	fullCompiles  atomic.Uint64
	deltaCompiles atomic.Uint64
	rollbacks     atomic.Uint64

	// Logger receives LOG-target records; nil discards them.
	Logger func(LogRecord)
	// LogDenials additionally emits a record for every DROP verdict, the
	// denial log the paper's operators review ("we noticed it later in our
	// denial logs", Section 6.1.2).
	LogDenials bool

	Stats Stats

	// obs is the attached observability instrumentation; nil (the default)
	// costs the hot path one predictable branch. See AttachObs.
	obs atomic.Pointer[engineObs]
}

// LogRecord is what the LOG target emits (paper Section 5.2: "logs a
// variety of information about the current resource access in JSON
// format"). The trace package serializes it.
type LogRecord struct {
	PID         int
	SubjectSID  mac.SID
	ObjectSID   mac.SID
	Op          Op
	ResourceID  uint64
	Path        string
	Entrypoints []Entrypoint
	AdvWrite    bool
	AdvRead     bool
	Verdict     Verdict
	Prefix      string
}

// New creates an engine over policy with the given optimization config.
func New(policy *mac.Policy, cfg Config) *Engine {
	e := &Engine{policy: policy, cfg: cfg}
	// The mangle table's built-in chain runs before filter/input, mirroring
	// iptables table precedence (paper Table 3 lists tables [filter |
	// mangle]). Mangle rules typically carry side-effecting targets (STATE,
	// LOG) rather than verdicts.
	chains := make(map[string]*Chain, len(builtinChains))
	for _, name := range builtinChains {
		chains[name] = newChain(name)
	}
	rs := Compile(chains, cfg)
	rs.gen = rulesetGen.Add(1)
	rs.version = 1
	e.versionCtr = 1
	e.rs.Store(rs)
	return e
}

// Policy returns the MAC policy the engine consults for adversary context.
func (e *Engine) Policy() *mac.Policy { return e.policy }

// Config returns the engine's optimization configuration.
func (e *Engine) Config() Config { return e.cfg }

// Program returns the currently enforcing decision program, an immutable
// snapshot.
func (e *Engine) Program() *Program { return e.rs.Load() }

// NewChain creates a user-defined chain.
func (e *Engine) NewChain(name string) error {
	return e.Transaction(func(tx *Tx) error { return tx.NewChain(name) })
}

// Chain returns a chain snapshot by name. The returned chain is part of an
// immutable snapshot: inspect it, but install rules through the engine.
func (e *Engine) Chain(name string) (*Chain, bool) {
	c, ok := e.rs.Load().chains[name]
	return c, ok
}

// Chains returns the chain names in sorted order.
func (e *Engine) Chains() []string {
	rs := e.rs.Load()
	out := make([]string, 0, len(rs.chains))
	for n := range rs.chains {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Append adds a rule at the end of chain (pftables -A semantics; the
// paper's listings use -I, which prepends — see Insert).
func (e *Engine) Append(chain string, r *Rule) error {
	return e.Transaction(func(tx *Tx) error { return tx.Append(chain, r) })
}

// Insert adds a rule at the head of chain (pftables -I).
func (e *Engine) Insert(chain string, r *Rule) error {
	return e.Transaction(func(tx *Tx) error { return tx.Insert(chain, r) })
}

// Remove deletes the first rule in chain for which match returns true.
func (e *Engine) Remove(chain string, match func(*Rule) bool) error {
	return e.Transaction(func(tx *Tx) error { return tx.Remove(chain, match) })
}

// Flush removes all rules from every chain.
func (e *Engine) Flush() error {
	return e.Transaction(func(tx *Tx) error { tx.Flush(); return nil })
}

// opsMaskOf returns the opsPresent contribution of one rule: its explicit
// op set, or every operation when the rule omits -o. The union is taken
// over every chain (not just the one dispatched for an op) because jumps
// can route any built-in chain's traversal through user chains.
func opsMaskOf(r *Rule) uint32 {
	if r.Ops == 0 {
		return ^uint32(0)
	}
	return uint32(r.Ops)
}

// MayFilter reports whether any installed rule could apply to op. A false
// answer is a guarantee: Filter would return the default accept without
// consulting any context, so the caller may skip building the request
// entirely. The kernel uses this as its pre-mediation mask; rule updates
// publish a new snapshot and naturally refresh the answer.
func (e *Engine) MayFilter(op Op) bool {
	return e.rs.Load().opsPresent&(1<<op) != 0
}

// RuleCount returns the total number of installed rules.
func (e *Engine) RuleCount() int { return e.rs.Load().totalRules }

// Filter evaluates req against the rule base and returns the verdict.
// This is the PF hook body of paper Figure 3: find the next rule, match it
// against the packet, run its target, until a verdict or the default allow.
// The read path takes no locks: the rule base is an immutable snapshot.
// Filter is a one-request batch; multi-request gauntlets (pathname walks,
// send/recv bursts) use StartBatch directly to amortize setup. The Batch
// value stays on the caller's stack, so the whole steady-state path
// allocates nothing.
func (e *Engine) Filter(req *Request) Verdict {
	var b Batch
	e.StartBatch(&b, req.Proc)
	v := b.Filter(req)
	b.Finish()
	return v
}

// mayMatchEpt reports whether any of proc's executable mappings is named
// by an indexed entrypoint rule. Interpreter processes always may match,
// since script-frame entrypoints are not mappings. The answer is a pure
// function of (address space contents, installed rules), so it is memoized
// in the process's PFState keyed on the mapping generation and the ruleset
// generation — an mmap/execve or a rule update each bump their counter and
// naturally invalidate the memo.
func mayMatchEpt(rs *Program, p Process) bool {
	if lang, _ := p.Interp(); lang != 0 {
		return true
	}
	as := p.AddrSpace()
	ps := p.PFState()
	mapGen := as.Gen()
	if ps.eptMemoValid && ps.eptMemoMapGen == mapGen && ps.eptMemoRSGen == rs.gen {
		return ps.eptMemoMayMatch
	}
	found := false
	as.ForEach(func(m ustack.Mapping) bool {
		if rs.eptPrograms[m.Path] {
			found = true
			return false
		}
		return true
	})
	ps.eptMemoMayMatch = found
	ps.eptMemoMapGen = mapGen
	ps.eptMemoRSGen = rs.gen
	ps.eptMemoValid = true
	return found
}

// evalRule matches one rule and fires its target on success.
func (e *Engine) evalRule(ctx *EvalCtx, r *Rule) Action {
	ctx.rulesEvaluated++
	if !r.matchesDefaults(ctx) {
		return Continue
	}
	for _, m := range r.Matches {
		ctx.Require(m.Needs())
		if !m.Match(ctx) {
			return Continue
		}
	}
	r.Hits.Add(1)
	ctx.Require(r.Target.Needs())
	act := r.Target.Fire(ctx)
	if act.Final {
		ctx.Req.Decider = r
	}
	return act
}

// emitLog sends a record to the engine's logger.
func (e *Engine) emitLog(ctx *EvalCtx, prefix string, v Verdict) {
	if e.Logger == nil {
		return
	}
	if ob := e.obs.Load(); ob != nil {
		ob.logEmissions.Add(ctx.Req.Proc.PID(), 1)
	}
	rec := LogRecord{
		PID:        ctx.Req.Proc.PID(),
		SubjectSID: ctx.Req.Proc.SubjectSID(),
		Op:         ctx.Req.Op,
		Verdict:    v,
		Prefix:     prefix,
	}
	if ctx.Req.Obj != nil {
		rec.ObjectSID = ctx.Req.Obj.SID()
		rec.ResourceID = ctx.Req.Obj.ID()
		rec.Path = ctx.Req.Obj.Path()
	}
	entries, _ := ctx.Entrypoints()
	rec.Entrypoints = entries
	rec.AdvWrite = ctx.AdversaryWritable()
	rec.AdvRead = ctx.AdversaryReadable()
	e.Logger(rec)
}
