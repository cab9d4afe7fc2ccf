package pf

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"pfirewall/internal/mac"
)

// SIDSet is a possibly-negated set of MAC labels used by the -s and -d
// default matches. The SYSHIGH keyword and label names are resolved to SIDs
// at rule-install time (paper Section 5.2: pftables "translates SELinux
// security labels into security IDs for fast matching").
type SIDSet struct {
	sids   map[mac.SID]bool
	Negate bool
}

// NewSIDSet builds a set from resolved SIDs.
func NewSIDSet(negate bool, sids ...mac.SID) *SIDSet {
	m := make(map[mac.SID]bool, len(sids))
	for _, s := range sids {
		m[s] = true
	}
	return &SIDSet{sids: m, Negate: negate}
}

// Contains applies the set (with negation) to s. A nil set matches anything.
func (ss *SIDSet) Contains(s mac.SID) bool {
	if ss == nil {
		return true
	}
	in := ss.sids[s]
	if ss.Negate {
		return !in
	}
	return in
}

// SIDs returns the member SIDs in ascending order.
//
//pflint:allow-fn — diagnostic rendering, reached only from log/flight-record emission.
func (ss *SIDSet) SIDs() []mac.SID {
	out := make([]mac.SID, 0, len(ss.sids))
	for s := range ss.sids {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set in rule-language syntax using tbl for names.
//
//pflint:allow-fn — diagnostic rendering, reached only from log/flight-record emission.
func (ss *SIDSet) String(tbl *mac.SIDTable) string {
	if ss == nil {
		return "any"
	}
	names := make([]string, 0, len(ss.sids))
	for _, s := range ss.SIDs() {
		names = append(names, string(tbl.Label(s)))
	}
	body := "{" + strings.Join(names, "|") + "}"
	if ss.Negate {
		return "~" + body
	}
	return body
}

// Match is an extension match module (paper Section 5.1: "user-defined
// classifiers can be added through extensible match modules, similar to how
// iptables extensibly handles network protocols").
type Match interface {
	// ModName returns the module name used after -m.
	ModName() string
	// Needs declares the context fields the module reads, so lazy
	// retrieval can gather exactly those (Section 4.2).
	Needs() CtxKind
	// Match evaluates the module against the collected context.
	Match(ctx *EvalCtx) bool
	// Args renders the module's rule-language arguments.
	Args() string
}

// Action is the outcome of firing a target: a final verdict, a jump into
// another chain, a return to the calling chain, or plain continuation (for
// side-effecting targets such as STATE and LOG).
type Action struct {
	Final   bool
	Verdict Verdict
	Jump    string // non-empty: push the named chain and continue there
	Return  bool   // pop back to the calling chain (iptables RETURN)
}

// Continue is the action of non-terminal targets.
var Continue = Action{}

// Target is a terminal or side-effecting rule action.
type Target interface {
	// TargetName returns the name used after -j.
	TargetName() string
	// Needs declares required context fields.
	Needs() CtxKind
	// Fire executes the target and reports how traversal proceeds.
	Fire(ctx *EvalCtx) Action
	// Args renders the target's rule-language arguments.
	Args() string
}

// Rule is one firewall rule: default matches plus extension matches plus a
// target (paper Table 3).
type Rule struct {
	// Subject constrains the process label (-s). nil matches any.
	Subject *SIDSet
	// Object constrains the resource label (-d). nil matches any.
	Object *SIDSet
	// Program constrains where the entrypoint lives (-p): a binary path.
	// When EntrySet, the pair (Program, Entry) must appear as a stack
	// frame; otherwise Program is matched against the process's binary.
	Program string
	// Entry is the entrypoint PC offset (-i), relative to Program's base.
	Entry    uint64
	EntrySet bool
	// Ops constrains the mediated operation (-o). Zero matches any.
	Ops OpSet
	// ResID constrains the resource identifier (inode or signal number).
	ResID    uint64
	ResIDSet bool

	// Matches are extension modules, all of which must match.
	Matches []Match
	// Target fires when every match succeeds.
	Target Target

	// Hits counts how many requests matched this rule (like iptables
	// packet counters). Maintained atomically by the engine.
	Hits atomic.Uint64

	// Src locates the rule in the pftables source it was parsed from, so
	// analyzer findings and listings can point at the offending line. Zero
	// for rules built programmatically.
	Src Pos
}

// needs aggregates the context demanded by the rule's matches and target.
func (r *Rule) needs() CtxKind {
	var k CtxKind
	if r.EntrySet || r.Program != "" {
		k |= CtxEntrypoints
	}
	for _, m := range r.Matches {
		k |= m.Needs()
	}
	if r.Target != nil {
		k |= r.Target.Needs()
	}
	return k
}

// matchesDefaults evaluates the rule's default matches against ctx,
// cheapest first (the operation bitmask eliminates most rules before any
// map lookup or context collection, like protocol matches in iptables).
func (r *Rule) matchesDefaults(ctx *EvalCtx) bool {
	req := ctx.Req
	if !r.Ops.Has(req.Op) {
		return false
	}
	if !r.Subject.Contains(req.Proc.SubjectSID()) {
		return false
	}
	if r.Object != nil {
		if req.Obj == nil || !r.Object.Contains(req.Obj.SID()) {
			return false
		}
	}
	if r.ResIDSet {
		if req.Obj == nil || req.Obj.ID() != r.ResID {
			return false
		}
	}
	if r.EntrySet {
		// An unwind failure yields no entrypoints, and a rule requiring one
		// then cannot match (fail-safe: a process that corrupts its own
		// stack only loses its own protection, paper Section 4.4). Binary
		// and interpreter frames match identically — by (program, offset).
		entries, _ := ctx.Entrypoints()
		found := false
		for _, e := range entries {
			if e.Path == r.Program && e.Off == r.Entry {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	} else if r.Program != "" {
		if req.Proc.ExecPath() != r.Program {
			return false
		}
	}
	return true
}

// String renders the rule approximately in pftables syntax.
//
//pflint:allow-fn — renders the full pftables rule text for -L listings and log lines; never on the accept path.
func (r *Rule) String(tbl *mac.SIDTable) string {
	var b strings.Builder
	if r.Program != "" {
		fmt.Fprintf(&b, "-p %s ", r.Program)
	}
	if r.EntrySet {
		fmt.Fprintf(&b, "-i %#x ", r.Entry)
	}
	if r.Subject != nil {
		fmt.Fprintf(&b, "-s %s ", r.Subject.String(tbl))
	}
	if r.Object != nil {
		fmt.Fprintf(&b, "-d %s ", r.Object.String(tbl))
	}
	if r.Ops != 0 {
		var names []string
		for op := Op(1); op < opCount; op++ {
			if r.Ops&(1<<op) != 0 {
				names = append(names, op.String())
			}
		}
		fmt.Fprintf(&b, "-o %s ", strings.Join(names, ","))
	}
	if r.ResIDSet {
		fmt.Fprintf(&b, "--res-id %d ", r.ResID)
	}
	for _, m := range r.Matches {
		fmt.Fprintf(&b, "-m %s %s ", m.ModName(), m.Args())
	}
	if r.Target != nil {
		fmt.Fprintf(&b, "-j %s", r.Target.TargetName())
		if a := r.Target.Args(); a != "" {
			fmt.Fprintf(&b, " %s", a)
		}
	}
	return strings.TrimSpace(b.String())
}
