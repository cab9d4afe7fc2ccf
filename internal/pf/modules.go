package pf

import (
	"fmt"
	"strconv"
	"strings"
)

// --- Match modules -----------------------------------------------------

// StateMatch tests a key in the per-process STATE dictionary (paper
// Section 5.2). The expected value may be a literal or a context reference
// (e.g. C_INO); Nequal inverts the comparison, as in rule R6, which drops a
// chmod whose inode differs from the one recorded at bind time.
type StateMatch struct {
	Key    uint64
	Cmp    Value
	Nequal bool
	// Absent controls matching when the key has never been set: rules like
	// R10 ("if process is already executing a signal handler") must not
	// match on first use. A missing key never matches, regardless of Nequal.
}

// ModName implements Match.
func (m *StateMatch) ModName() string { return "STATE" }

// Needs implements Match.
func (m *StateMatch) Needs() CtxKind { return needsOf(m.Cmp.Ref) }

// Match implements Match.
func (m *StateMatch) Match(ctx *EvalCtx) bool {
	cur, ok := ctx.Req.Proc.PFState().Get(m.Key)
	if !ok {
		return false
	}
	want, ok := ctx.Resolve(m.Cmp)
	if !ok {
		return false
	}
	if m.Nequal {
		return cur != want
	}
	return cur == want
}

// Args implements Match.
//
//pflint:allow-fn — rule-text rendering for listings and logs; never on the accept path.
func (m *StateMatch) Args() string {
	op := "--cmp"
	val := fmt.Sprintf("%d", m.Cmp.Lit)
	if m.Cmp.Ref != RefLiteral {
		val = RefName(m.Cmp.Ref)
	}
	s := fmt.Sprintf("--key %#x %s %s", m.Key, op, val)
	if m.Nequal {
		s += " --nequal"
	}
	return s
}

// CompareMatch compares two context values (paper rule R8: compare the
// symlink's owner with its target's owner to implement
// SymLinksIfOwnerMatch in the firewall).
type CompareMatch struct {
	V1, V2 Value
	Nequal bool
}

// ModName implements Match.
func (m *CompareMatch) ModName() string { return "COMPARE" }

// Needs implements Match.
func (m *CompareMatch) Needs() CtxKind { return needsOf(m.V1.Ref) | needsOf(m.V2.Ref) }

// Match implements Match.
func (m *CompareMatch) Match(ctx *EvalCtx) bool {
	a, ok1 := ctx.Resolve(m.V1)
	b, ok2 := ctx.Resolve(m.V2)
	if !ok1 || !ok2 {
		// Unavailable context (e.g. not a symlink) never matches: deny
		// rules predicated on it simply do not apply.
		return false
	}
	if m.Nequal {
		return a != b
	}
	return a == b
}

// Args implements Match.
//
//pflint:allow-fn — rule-text rendering for listings and logs; never on the accept path.
func (m *CompareMatch) Args() string {
	name := func(v Value) string {
		if v.Ref == RefLiteral {
			return fmt.Sprintf("%d", v.Lit)
		}
		return RefName(v.Ref)
	}
	s := fmt.Sprintf("--v1 %s --v2 %s", name(m.V1), name(m.V2))
	if m.Nequal {
		s += " --nequal"
	}
	return s
}

// SignalMatch matches signal deliveries that have a registered handler and
// are blockable (paper rules R10–R11): exactly the signals whose delivery
// into a running handler constitutes a re-entrancy race.
type SignalMatch struct{}

// ModName implements Match.
func (m *SignalMatch) ModName() string { return "SIGNAL_MATCH" }

// Needs implements Match.
func (m *SignalMatch) Needs() CtxKind { return CtxSignal }

// Match implements Match.
func (m *SignalMatch) Match(ctx *EvalCtx) bool {
	s := ctx.Req.Sig
	return s != nil && s.HasHandler && !s.Unblockable
}

// Args implements Match.
func (m *SignalMatch) Args() string { return "" }

// SyscallArgsMatch matches one syscall argument slot against a value
// (paper rule R12: "--arg 0 --equal NR_sigreturn" detects the sigreturn
// system call on the syscallbegin chain). Slot 0 is the syscall number.
type SyscallArgsMatch struct {
	Arg   int
	Equal uint64
}

// ModName implements Match.
func (m *SyscallArgsMatch) ModName() string { return "SYSCALL_ARGS" }

// Needs implements Match.
func (m *SyscallArgsMatch) Needs() CtxKind { return CtxSyscall }

// Match implements Match.
func (m *SyscallArgsMatch) Match(ctx *EvalCtx) bool {
	if m.Arg == 0 {
		return uint64(ctx.Req.SyscallNR) == m.Equal
	}
	i := m.Arg - 1
	if i < 0 || i >= len(ctx.Req.SyscallArgs) {
		return false
	}
	return ctx.Req.SyscallArgs[i] == m.Equal
}

// Args implements Match.
//
//pflint:allow-fn — rule-text rendering for listings and logs; never on the accept path.
func (m *SyscallArgsMatch) Args() string {
	return fmt.Sprintf("--arg %d --equal %d", m.Arg, m.Equal)
}

// AdvAccessMatch matches on the resource's adversary accessibility, the
// context the paper identifies as necessary for untrusted search path,
// squatting, and library-load invariants (Table 2 rows 1–2). Rules
// generated from templates use it via the generalized "~{SYSHIGH}" object
// sets; this module exposes the same context explicitly.
type AdvAccessMatch struct {
	Write bool // match adversary-writable (integrity); else adversary-readable
	Want  bool // required value
}

// ModName implements Match.
func (m *AdvAccessMatch) ModName() string { return "ADV_ACCESS" }

// Needs implements Match.
func (m *AdvAccessMatch) Needs() CtxKind {
	if m.Write {
		return CtxAdvWrite
	}
	return CtxAdvRead
}

// Match implements Match.
func (m *AdvAccessMatch) Match(ctx *EvalCtx) bool {
	if m.Write {
		return ctx.AdversaryWritable() == m.Want
	}
	return ctx.AdversaryReadable() == m.Want
}

// Args implements Match.
//
//pflint:allow-fn — rule-text rendering for listings and logs; never on the accept path.
func (m *AdvAccessMatch) Args() string {
	kind := "--read"
	if m.Write {
		kind = "--write"
	}
	return fmt.Sprintf("%s --is %v", kind, m.Want)
}

// PeerCredMatch tests the socket peer's uid (SO_PEERCRED context), the
// binding a squatted rendezvous cannot forge: whoever answers at the name,
// their credential was captured when the connection pair was created. With
// Nequal it expresses "must be answered by uid N" as a deny rule, e.g.
// "-m PEER_CRED --uid 0 --nequal -j DROP" pins a system service's clients
// to a root-owned peer. Unavailable context (not a connected endpoint)
// never matches, so deny rules predicated on it simply do not apply.
type PeerCredMatch struct {
	UID    Value
	Nequal bool
}

// ModName implements Match.
func (m *PeerCredMatch) ModName() string { return "PEER_CRED" }

// Needs implements Match.
func (m *PeerCredMatch) Needs() CtxKind { return CtxPeerCred | needsOf(m.UID.Ref) }

// Match implements Match.
func (m *PeerCredMatch) Match(ctx *EvalCtx) bool {
	_, uid, _, ok := ctx.PeerCred()
	if !ok {
		return false
	}
	want, ok := ctx.Resolve(m.UID)
	if !ok {
		return false
	}
	if m.Nequal {
		return uint64(int64(uid)) != want
	}
	return uint64(int64(uid)) == want
}

// Args implements Match.
//
//pflint:allow-fn — rule-text rendering for listings and logs; never on the accept path.
func (m *PeerCredMatch) Args() string {
	val := fmt.Sprintf("%d", m.UID.Lit)
	if m.UID.Ref != RefLiteral {
		val = RefName(m.UID.Ref)
	}
	s := fmt.Sprintf("--uid %s", val)
	if m.Nequal {
		s += " --nequal"
	}
	return s
}

// SockNSMatch tests which rendezvous namespace the socket lives in ("fs",
// "abstract", "port"), letting rules treat the inode-less namespaces — the
// classic squat surfaces — differently from filesystem sockets.
type SockNSMatch struct {
	NS string
}

// ModName implements Match.
func (m *SockNSMatch) ModName() string { return "SOCK_NS" }

// Needs implements Match.
func (m *SockNSMatch) Needs() CtxKind { return CtxSockNS }

// Match implements Match.
func (m *SockNSMatch) Match(ctx *EvalCtx) bool {
	ns, ok := ctx.SockNS()
	return ok && ns == m.NS
}

// Args implements Match.
//
//pflint:allow-fn — rule-text rendering for listings and logs; never on the accept path.
func (m *SockNSMatch) Args() string { return fmt.Sprintf("--ns %s", m.NS) }

// PortMatch tests the port of a port-namespace socket against an inclusive
// range, iptables --dport style.
type PortMatch struct {
	Min, Max uint16
}

// ModName implements Match.
func (m *PortMatch) ModName() string { return "PORT" }

// Needs implements Match.
func (m *PortMatch) Needs() CtxKind { return CtxPort }

// Match implements Match.
func (m *PortMatch) Match(ctx *EvalCtx) bool {
	p, ok := ctx.SockPort()
	return ok && p >= m.Min && p <= m.Max
}

// Args implements Match.
//
//pflint:allow-fn — rule-text rendering for listings and logs; never on the accept path.
func (m *PortMatch) Args() string { return fmt.Sprintf("--min %d --max %d", m.Min, m.Max) }

// --- Target modules ----------------------------------------------------

// VerdictTarget terminates traversal with a fixed verdict (ACCEPT / DROP).
type VerdictTarget struct {
	V Verdict
}

// Drop returns the DROP target.
func Drop() *VerdictTarget { return &VerdictTarget{V: VerdictDrop} }

// Accept returns the ACCEPT target.
func Accept() *VerdictTarget { return &VerdictTarget{V: VerdictAccept} }

// TargetName implements Target.
func (t *VerdictTarget) TargetName() string { return t.V.String() }

// Needs implements Target.
func (t *VerdictTarget) Needs() CtxKind { return 0 }

// Fire implements Target.
func (t *VerdictTarget) Fire(ctx *EvalCtx) Action { return Action{Final: true, Verdict: t.V} }

// Args implements Target.
func (t *VerdictTarget) Args() string { return "" }

// ReturnTarget pops traversal back to the calling chain, like iptables
// RETURN: the remaining rules of the current user chain are skipped and
// evaluation resumes after the jump point.
type ReturnTarget struct{}

// TargetName implements Target.
func (t *ReturnTarget) TargetName() string { return "RETURN" }

// Needs implements Target.
func (t *ReturnTarget) Needs() CtxKind { return 0 }

// Fire implements Target.
func (t *ReturnTarget) Fire(ctx *EvalCtx) Action { return Action{Return: true} }

// Args implements Target.
func (t *ReturnTarget) Args() string { return "" }

// JumpTarget transfers traversal into a user-defined chain, like iptables
// jumps (paper rule R9 jumps signal deliveries into SIGNAL_CHAIN).
type JumpTarget struct {
	ChainName string
}

// TargetName implements Target.
func (t *JumpTarget) TargetName() string { return t.ChainName }

// Needs implements Target.
func (t *JumpTarget) Needs() CtxKind { return 0 }

// Fire implements Target.
func (t *JumpTarget) Fire(ctx *EvalCtx) Action { return Action{Jump: t.ChainName} }

// Args implements Target.
func (t *JumpTarget) Args() string { return "" }

// StateTarget sets a key in the per-process STATE dictionary and continues
// (paper rule R5 records the inode bound by dbus-daemon; R11/R12 track
// signal-handler entry and exit).
type StateTarget struct {
	Key uint64
	Val Value
}

// TargetName implements Target.
func (t *StateTarget) TargetName() string { return "STATE" }

// Needs implements Target.
func (t *StateTarget) Needs() CtxKind { return needsOf(t.Val.Ref) }

// Fire implements Target.
func (t *StateTarget) Fire(ctx *EvalCtx) Action {
	if v, ok := ctx.Resolve(t.Val); ok {
		ctx.Req.Proc.PFState().Set(t.Key, v)
	}
	return Continue
}

// Args implements Target.
//
//pflint:allow-fn — rule-text rendering for listings and logs; never on the accept path.
func (t *StateTarget) Args() string {
	val := fmt.Sprintf("%d", t.Val.Lit)
	if t.Val.Ref != RefLiteral {
		val = RefName(t.Val.Ref)
	}
	return fmt.Sprintf("--set --key %#x --value %s", t.Key, val)
}

// LogTarget emits a LogRecord for the current access and continues; rule
// generation consumes these records (paper Section 6.3).
type LogTarget struct {
	Prefix string
}

// TargetName implements Target.
func (t *LogTarget) TargetName() string { return "LOG" }

// Needs implements Target.
func (t *LogTarget) Needs() CtxKind { return CtxEntrypoints | CtxAdvWrite | CtxAdvRead }

// Fire implements Target.
func (t *LogTarget) Fire(ctx *EvalCtx) Action {
	ctx.engine.emitLog(ctx, t.Prefix, VerdictAccept)
	return Continue
}

// Args implements Target.
//
//pflint:allow-fn — rule-text rendering for listings and logs; never on the accept path.
func (t *LogTarget) Args() string {
	if t.Prefix == "" {
		return ""
	}
	// A Go string literal, with the space and single quote that pftables'
	// tokenizer splits on or strips escaped too, so it reads back as one
	// token.
	return "--prefix " + prefixEscaper.Replace(strconv.Quote(t.Prefix))
}

var prefixEscaper = strings.NewReplacer(" ", `\x20`, "'", `\x27`)
