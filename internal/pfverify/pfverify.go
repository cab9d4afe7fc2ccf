// Package pfverify is a symbolic policy verifier for the Process Firewall:
// it evaluates a ruleset over *abstract* resource requests instead of
// concrete system calls, exhaustively sweeping the request space an
// invariant scopes — (operation × subject SID × entrypoint × binding-state
// flags such as adversary-writability and symlink owner mismatch × peer
// credential) — and checking declarative invariants against every reachable
// verdict.
//
// The evaluator interprets the engine's own compiled decision program
// (pf.Program) with the engine's routing (batch.go): the mangle/input chain
// first, then the start chain, then the entrypoint keys in stack order, with
// jumps, RETURN, STATE side effects, and the default allow all reproduced
// rule for rule. The candidates it walks come from the same cursors
// Batch.Filter steps, so the verifier and the hot path cannot disagree on
// which rules a request reaches or in which order. Context a point pins
// (labels, owners, entry frames) evaluates exactly; context a point leaves
// open (prior STATE dictionary contents, syscall arguments outside
// syscallbegin) evaluates three-valued, forking the walk on both branches
// so proofs stay sound.
// A verdict reached along a fork-free path is *definite*: it corresponds to
// a real request a concrete world can replay (witness.go), which is what
// keeps reported violations free of false alarms — the differential fuzz
// test enforces symbolic == concrete on the decidable fragment.
//
// Scaling: the program's (operation, subject-SID) index hands each point
// only the rules that could match it, so a sweep over a 10k-rule base stays
// tractable; the verifier-scale benchmark (internal/lmbench) records it.
package pfverify

import (
	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
)

// Val is an abstract uint64 context value: unavailable (the concrete
// Resolve would fail), available with a known value, or available but
// unconstrained by the abstract point.
type Val struct {
	Avail bool
	Known bool
	V     uint64
}

// Known returns an available value pinned to v.
func Known(v uint64) Val { return Val{Avail: true, Known: true, V: v} }

// KnownInt pins an available value to a signed integer using the engine's
// encoding for uids and pids (uint64(int64(i))).
func KnownInt(i int) Val { return Known(uint64(int64(i))) }

// Unknown returns an available but unconstrained value.
func Unknown() Val { return Val{Avail: true} }

// None returns an unavailable value.
func None() Val { return Val{} }

// Ctx is one abstract request point: the symbolic analogue of pf.Request
// plus the context the engine's modules would lazily collect. Fields left
// at their zero value model "context unavailable", exactly like the
// concrete EvalCtx's ok=false paths.
type Ctx struct {
	Op      pf.Op
	Subject mac.SID
	// Program is the process's binary (ExecPath), matched by -p without -i.
	Program string
	// Entries is the abstract unwound stack in frame order; EntryFail
	// models an unwind failure (no entrypoint rule can match).
	Entries   []pf.Entrypoint
	EntryFail bool

	// HasObject gates every object-derived context, mirroring req.Obj.
	HasObject bool
	Object    mac.SID
	ObjID     Val // resource identifier (C_INO); forced available with object
	Owner     Val // DAC owner (C_DAC_OWNER); forced available with object
	TgtOwner  Val // symlink target owner (C_TGT_DAC_OWNER); Avail = is a link

	// Sig is non-nil for signal-delivery points.
	Sig *pf.SignalInfo

	// Socket peer credential and rendezvous context; ok-flags mirror the
	// SockResource extension.
	PeerOK  bool
	PeerUID Val
	PeerPID Val
	NSOK    bool
	NS      string
	PortOK  bool
	Port    Val

	// Syscall context. SyscallArgsUnknown widens every --arg slot (used by
	// invariant sweeps over non-syscallbegin points, where the in-flight
	// syscall is arbitrary); otherwise SyscallArgs is exact-length.
	SyscallNR          Val
	SyscallArgs        []Val
	SyscallArgsUnknown bool

	// State seeds the per-process STATE dictionary. StateUnknown widens
	// every key not present in State to "any value, possibly unset" — the
	// conservative abstraction for processes with arbitrary history; leave
	// it false to model a fresh process (empty dictionary), which is what
	// concrete witnesses replay.
	State        map[uint64]Val
	StateUnknown bool
}

// normalize pins the availability bits the concrete engine guarantees.
func (c *Ctx) normalize() Ctx {
	n := *c
	if n.HasObject {
		if !n.ObjID.Avail {
			n.ObjID = Unknown()
		}
		if !n.Owner.Avail {
			n.Owner = Unknown()
		}
	} else {
		n.ObjID, n.Owner, n.TgtOwner = None(), None(), None()
	}
	if !n.SyscallNR.Avail {
		n.SyscallNR = Unknown()
	}
	return n
}

// Result summarizes every path the walk explored for one point.
type Result struct {
	// MayAccept / MayDrop: the verdict is reachable along some path
	// (including widened ones). Their absence is a proof.
	MayAccept bool
	MayDrop   bool
	// DefiniteAccept / DefiniteDrop: the verdict is reachable along a
	// fork-free path — a concrete request realizes it.
	DefiniteAccept bool
	DefiniteDrop   bool
	// AcceptRule / DropRule decide some definite path with that verdict;
	// nil AcceptRule on a definite accept means the default allow.
	AcceptRule *pf.Rule
	DropRule   *pf.Rule
	// Exact: the walk never forked; Verdict is the single concrete outcome.
	Exact   bool
	Verdict pf.Verdict
	// Paths counts terminal paths; Truncated reports the fork budget was
	// exhausted and the result widened to both verdicts (still sound).
	Paths     int
	Truncated bool
}

// maxPaths bounds path explosion per point; beyond it the result widens.
const maxPaths = 512

// maxJumpDepth bounds the traversal frame stack. The concrete engine has
// no such guard — a jump cycle loops a real process forever, which is what
// pfcheck's jump-cycle finding exists to reject — so hitting this cap just
// widens the point instead of diverging.
const maxJumpDepth = 64

// Evaluator is a symbolic interpreter over one immutable decision program.
// It holds no mutable state, so one Evaluator is safe for concurrent use.
type Evaluator struct {
	policy *mac.Policy
	prog   *pf.Program
	resIDs []uint64 // resource identifiers pinned by --res-id rules
}

// FromProgram builds an evaluator over a compiled program — the live one
// (FromEngine) or the candidate a TransactionGated gate receives.
func FromProgram(policy *mac.Policy, prog *pf.Program) *Evaluator {
	ev := &Evaluator{policy: policy, prog: prog}
	for _, c := range prog.Chains() {
		for _, r := range c.Rules {
			if r.ResIDSet {
				ev.resIDs = append(ev.resIDs, r.ResID)
			}
		}
	}
	return ev
}

// NewEvaluator compiles a chain snapshot under the given engine
// configuration (EptChains decides rule routing, exactly as in the engine)
// through pf.Compile, and builds an evaluator over the result.
func NewEvaluator(policy *mac.Policy, chains map[string]*pf.Chain, cfg pf.Config) *Evaluator {
	return FromProgram(policy, pf.Compile(chains, cfg))
}

// FromEngine builds an evaluator over an engine's live program.
func FromEngine(e *pf.Engine) *Evaluator {
	return FromProgram(e.Policy(), e.Program())
}

// Policy returns the MAC policy adversary context derives from.
func (ev *Evaluator) Policy() *mac.Policy { return ev.policy }

// RuleCount returns the snapshot's total rule count.
func (ev *Evaluator) RuleCount() int { return ev.prog.RuleCount() }

// FreshResID returns a resource identifier no --res-id rule pins, so sweep
// points model "an arbitrary object" without tripping identifier-specific
// rules.
func (ev *Evaluator) FreshResID() uint64 {
	var max uint64 = 41
	for _, id := range ev.resIDs {
		if id > max {
			max = id
		}
	}
	return max + 1
}

// PinnedResIDs returns the identifiers --res-id rules name; sweeps add one
// point per pin to cover identifier-specific rules.
func (ev *Evaluator) PinnedResIDs() []uint64 { return ev.resIDs }

// Eval symbolically evaluates one abstract point against the program and
// reports every reachable verdict.
func (ev *Evaluator) Eval(c *Ctx) Result {
	if ev.prog.RuleCount() == 0 {
		return Result{MayAccept: true, DefiniteAccept: true, Exact: true, Verdict: pf.VerdictAccept, Paths: 1}
	}
	ctx := c.normalize()
	w := &walker{ev: ev, ctx: &ctx}
	st := newAbsState(&ctx)

	start := "input"
	if ctx.Op == pf.OpSyscallBegin {
		start = "syscallbegin"
	}
	startPhase := func(st *absState) {
		w.walkChain(start, st, func(st *absState) {
			w.eptScan(start, 0, pf.Cursor{}, st)
		})
	}
	if start == "input" {
		w.walkChain("mangle/input", st, startPhase)
	} else {
		startPhase(st)
	}

	res := w.res
	if !w.forked && !res.Truncated {
		res.Exact = true
		if res.MayDrop {
			res.Verdict = pf.VerdictDrop
		} else {
			res.Verdict = pf.VerdictAccept
		}
	}
	return res
}

// --- abstract state ------------------------------------------------------

// absState is one path's per-process STATE dictionary plus path exactness.
type absState struct {
	m       map[uint64]Val
	unknown bool // keys absent from m may hold any value or be unset
	exact   bool // no widened fork taken on this path
}

func newAbsState(c *Ctx) *absState {
	st := &absState{unknown: c.StateUnknown, exact: true}
	if len(c.State) > 0 {
		st.m = make(map[uint64]Val, len(c.State))
		for k, v := range c.State {
			st.m[k] = v
		}
	}
	return st
}

func (st *absState) clone() *absState {
	n := &absState{unknown: st.unknown, exact: st.exact}
	if len(st.m) > 0 {
		n.m = make(map[uint64]Val, len(st.m))
		for k, v := range st.m {
			n.m[k] = v
		}
	}
	return n
}

func (st *absState) set(key uint64, v Val) {
	if st.m == nil {
		st.m = make(map[uint64]Val, 4)
	}
	st.m[key] = v
}

// --- the walk ------------------------------------------------------------

type tri uint8

const (
	triNo tri = iota
	triYes
	triUnknown
)

// walker explores every path of one point's evaluation.
type walker struct {
	ev     *Evaluator
	ctx    *Ctx
	res    Result
	forked bool
}

// record notes one terminal path.
func (w *walker) record(v pf.Verdict, r *pf.Rule, exact bool) {
	w.res.Paths++
	if v == pf.VerdictDrop {
		w.res.MayDrop = true
		if exact && !w.res.DefiniteDrop {
			w.res.DefiniteDrop = true
			w.res.DropRule = r
		}
	} else {
		w.res.MayAccept = true
		if exact && !w.res.DefiniteAccept {
			w.res.DefiniteAccept = true
			w.res.AcceptRule = r
		}
	}
}

// truncate widens the result when the fork budget is exhausted.
func (w *walker) truncate() {
	w.res.Truncated = true
	w.res.MayAccept = true
	w.res.MayDrop = true
}

func (w *walker) budgetLeft() bool { return w.res.Paths < maxPaths && !w.res.Truncated }

// fall records the default-allow fall-through of one path.
func (w *walker) fall(st *absState) { w.record(pf.VerdictAccept, nil, st.exact) }

// walkChain walks one chain of the program (jump stack included) for the
// point, invoking cont for every fall-through path. A chain the program
// lacks falls straight through.
func (w *walker) walkChain(name string, st *absState, cont func(*absState)) {
	cur, _ := w.ev.prog.Cursor(name, w.ctx.Op, w.ctx.Subject)
	w.step([]pf.Cursor{cur}, st, cont)
}

func cloneStack(stack []pf.Cursor) []pf.Cursor {
	return append([]pf.Cursor(nil), stack...)
}

// step is the engine's dispatch loop in the abstract: pop exhausted
// cursors, match the next candidate, fire its target. Unknown matches fork
// the walk — the matched branch continues on cloned stack and state, the
// unmatched branch continues in place — and both branches lose exactness.
func (w *walker) step(stack []pf.Cursor, st *absState, cont func(*absState)) {
	if w.res.Truncated {
		return
	}
	for {
		if len(stack) == 0 {
			cont(st)
			return
		}
		r := stack[len(stack)-1].NextRule()
		if r == nil {
			stack = stack[:len(stack)-1]
			continue
		}

		m, freshNo := w.matchAbs(r, st)
		switch m {
		case triNo:
			continue
		case triUnknown:
			if !w.budgetLeft() {
				w.truncate()
				return
			}
			w.forked = true
			// Matched branch: independent copy of the remaining traversal.
			stM := st.clone()
			stM.exact = false
			stackM := cloneStack(stack)
			if done := w.applyTarget(r, &stackM, stM); !done {
				w.step(stackM, stM, cont)
			}
			// Unmatched branch continues here; it stays definite when a
			// fresh-state process provably takes it.
			if !freshNo {
				st.exact = false
			}
			continue
		case triYes:
			if done := w.applyTarget(r, &stack, st); done {
				return
			}
		}
	}
}

// applyTarget fires r's target against the current traversal. It returns
// true when the path terminated (final verdict recorded).
func (w *walker) applyTarget(r *pf.Rule, stack *[]pf.Cursor, st *absState) bool {
	switch t := r.Target.(type) {
	case *pf.VerdictTarget:
		w.record(t.V, r, st.exact)
		return true
	case *pf.ReturnTarget:
		// Pop to the calling chain; popping the base frame ends the walk
		// (the loop sees an empty stack and falls through).
		*stack = (*stack)[:len(*stack)-1]
	case *pf.JumpTarget:
		if cur, ok := w.ev.prog.Cursor(t.ChainName, w.ctx.Op, w.ctx.Subject); ok {
			if len(*stack) >= maxJumpDepth {
				w.truncate()
				return true
			}
			*stack = append(*stack, cur)
		}
	case *pf.StateTarget:
		v := w.resolve(t.Val)
		if v.Avail {
			st.set(t.Key, v)
		}
	}
	// LogTarget and unknown side-effecting targets: continue.
	return false
}

// eptScan mirrors the entrypoint-key scan of Batch.Filter: keys in stack
// order, each key's candidates in list order; a jump walks the target chain
// and resumes the scan; the first final verdict wins and a fall-through is
// the default allow. cur resumes the key being scanned; next is the index
// of the first entry whose key is still unopened. Without EptChains the
// program has no entrypoint keys and every cursor is empty.
func (w *walker) eptScan(start string, next int, cur pf.Cursor, st *absState) {
	if w.res.Truncated {
		return
	}
	c := w.ctx
	if c.EntryFail {
		w.fall(st)
		return
	}
	for {
		for r := cur.NextRule(); r != nil; r = cur.NextRule() {
			m, freshNo := w.matchAbs(r, st)
			if m == triNo {
				continue
			}
			if m == triUnknown {
				if !w.budgetLeft() {
					w.truncate()
					return
				}
				w.forked = true
				stM := st.clone()
				stM.exact = false
				if done := w.eptApply(start, next, cur, r, stM); !done {
					w.eptScan(start, next, cur, stM)
				}
				if !freshNo {
					st.exact = false
				}
				continue
			}
			if done := w.eptApply(start, next, cur, r, st); done {
				return
			}
		}
		if next >= len(c.Entries) {
			break
		}
		cur = w.ev.prog.EntryCursor(start, c.Entries[next], c.Op, c.Subject)
		next++
	}
	w.fall(st)
}

// eptApply fires one entrypoint rule's target during the scan. It returns
// true when the caller's loop must stop (the path forked into a jump or
// terminated with a verdict). Resumption after a jump re-enters eptScan at
// (next, cur), the candidate after r.
func (w *walker) eptApply(start string, next int, cur pf.Cursor, r *pf.Rule, st *absState) bool {
	switch t := r.Target.(type) {
	case *pf.VerdictTarget:
		w.record(t.V, r, st.exact)
		return true
	case *pf.JumpTarget:
		if tgt, ok := w.ev.prog.Cursor(t.ChainName, w.ctx.Op, w.ctx.Subject); ok {
			w.step([]pf.Cursor{tgt}, st, func(st2 *absState) {
				w.eptScan(start, next, cur, st2)
			})
			return true
		}
	case *pf.StateTarget:
		v := w.resolve(t.Val)
		if v.Avail {
			st.set(t.Key, v)
		}
	case *pf.ReturnTarget:
		// RETURN from an entrypoint rule: the scan just continues (the
		// concrete loop ignores non-final, non-jump actions).
	}
	return false
}

// --- abstract matching ---------------------------------------------------

// matchAbs evaluates a rule's default matches and extension modules against
// the point: triNo when it definitely does not match, triYes when it
// definitely does, triUnknown when the abstraction leaves both possible.
//
// freshNo (meaningful only with triUnknown) reports that the rule's
// unmatched branch is exactly what a fresh-state concrete process does: at
// least one STATE match keyed a dictionary entry that is unset for a fresh
// process (a missing key never matches), and every other unknown arose the
// same way. The walk uses it to keep the unmatched branch definite, which
// is what makes default-allow violations under the widened-state sweep
// carry replayable witnesses.
func (w *walker) matchAbs(r *pf.Rule, st *absState) (out tri, freshNo bool) {
	c := w.ctx
	if !r.Ops.Has(c.Op) {
		return triNo, false
	}
	if !r.Subject.Contains(c.Subject) {
		return triNo, false
	}
	if r.Object != nil {
		if !c.HasObject || !r.Object.Contains(c.Object) {
			return triNo, false
		}
	}
	out = triYes
	sawFreshNo := false
	if r.ResIDSet {
		if !c.HasObject {
			return triNo, false
		}
		switch {
		case c.ObjID.Known:
			if c.ObjID.V != r.ResID {
				return triNo, false
			}
		default:
			out = triUnknown
		}
	}
	if r.EntrySet {
		if c.EntryFail {
			return triNo, false
		}
		found := false
		for _, e := range c.Entries {
			if e.Path == r.Program && e.Off == r.Entry {
				found = true
				break
			}
		}
		if !found {
			return triNo, false
		}
	} else if r.Program != "" {
		if c.Program != r.Program {
			return triNo, false
		}
	}
	for _, m := range r.Matches {
		t, fresh := w.matchModule(m, st)
		switch t {
		case triNo:
			return triNo, false
		case triUnknown:
			out = triUnknown
			if fresh {
				sawFreshNo = true
			}
		}
	}
	return out, sawFreshNo
}

// matchModule evaluates one extension match module abstractly, mirroring
// the concrete Match methods of modules.go case by case. fresh (meaningful
// only with triUnknown) reports that a fresh-state process definitely does
// not satisfy this module — the unknown arose purely from a STATE key the
// widened dictionary may or may not hold, which a fresh process holds
// unset (and a missing key never matches).
func (w *walker) matchModule(m pf.Match, st *absState) (t tri, fresh bool) {
	c := w.ctx
	switch m := m.(type) {
	case *pf.StateMatch:
		cur, present := st.m[m.Key]
		if !present && !st.unknown {
			return triNo, false // definitely unset: a missing key never matches
		}
		want := w.resolve(m.Cmp)
		if !want.Avail {
			return triNo, false // unresolvable comparison value never matches
		}
		if present && cur.Known && want.Known {
			return triEq(cur.V == want.V, m.Nequal), false
		}
		// !present here means the widened dictionary: unset for a fresh
		// process, so the unmatched branch is fresh-realizable.
		return triUnknown, !present
	case *pf.CompareMatch:
		a, b := w.resolve(m.V1), w.resolve(m.V2)
		if !a.Avail || !b.Avail {
			return triNo, false
		}
		if a.Known && b.Known {
			return triEq(a.V == b.V, m.Nequal), false
		}
		return triUnknown, false
	case *pf.SignalMatch:
		if c.Sig != nil && c.Sig.HasHandler && !c.Sig.Unblockable {
			return triYes, false
		}
		return triNo, false
	case *pf.SyscallArgsMatch:
		var v Val
		if m.Arg == 0 {
			v = c.SyscallNR
		} else {
			i := m.Arg - 1
			if c.SyscallArgsUnknown {
				return triUnknown, false
			}
			if i < 0 || i >= len(c.SyscallArgs) {
				return triNo, false
			}
			v = c.SyscallArgs[i]
		}
		if v.Known {
			return triEq(v.V == m.Equal, false), false
		}
		return triUnknown, false
	case *pf.AdvAccessMatch:
		var adv bool
		if c.HasObject {
			if m.Write {
				adv = w.ev.policy.AdversaryWritable(c.Subject, c.Object)
			} else {
				adv = w.ev.policy.AdversaryReadable(c.Subject, c.Object)
			}
		}
		return triEq(adv == m.Want, false), false
	case *pf.PeerCredMatch:
		if !c.PeerOK {
			return triNo, false
		}
		want := w.resolve(m.UID)
		if !want.Avail {
			return triNo, false
		}
		if c.PeerUID.Known && want.Known {
			return triEq(c.PeerUID.V == want.V, m.Nequal), false
		}
		return triUnknown, false
	case *pf.SockNSMatch:
		return triEq(c.NSOK && c.NS == m.NS, false), false
	case *pf.PortMatch:
		if !c.PortOK {
			return triNo, false
		}
		if c.Port.Known {
			p := uint16(c.Port.V)
			return triEq(p >= m.Min && p <= m.Max, false), false
		}
		return triUnknown, false
	default:
		// An extension module the verifier does not model: widen.
		return triUnknown, false
	}
}

// triEq folds an equality outcome with an optional negation into a tri.
func triEq(eq, negate bool) tri {
	if eq != negate {
		return triYes
	}
	return triNo
}

// resolve is EvalCtx.Resolve in the abstract.
func (w *walker) resolve(v pf.Value) Val {
	c := w.ctx
	switch v.Ref {
	case pf.RefLiteral:
		return Known(v.Lit)
	case pf.RefIno:
		if !c.HasObject {
			return None()
		}
		return c.ObjID
	case pf.RefObjSID:
		if !c.HasObject {
			return None()
		}
		return Known(uint64(c.Object))
	case pf.RefDACOwner:
		if !c.HasObject {
			return None()
		}
		return c.Owner
	case pf.RefTgtDACOwner:
		return c.TgtOwner
	case pf.RefSignal:
		if c.Sig == nil {
			return None()
		}
		return Known(uint64(c.Sig.Signal))
	case pf.RefPeerUID:
		if !c.PeerOK {
			return None()
		}
		return c.PeerUID
	case pf.RefPeerPID:
		if !c.PeerOK {
			return None()
		}
		return c.PeerPID
	case pf.RefPort:
		if !c.PortOK {
			return None()
		}
		return c.Port
	default:
		return None()
	}
}
