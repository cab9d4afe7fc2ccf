package pf

import (
	"pfirewall/internal/mac"
	"pfirewall/internal/obs"
	"pfirewall/internal/ustack"
)

// Process is the engine's view of the subject process. The simulated kernel
// implements it on its task structure. The engine reads process-internal
// state (user stacks, interpreter frames) through this interface — the
// defining capability of the Process Firewall relative to sandboxes, which
// must not trust such state (paper Section 3).
type Process interface {
	// PID returns the process identifier.
	PID() int
	// SubjectSID returns the MAC label of the process.
	SubjectSID() mac.SID
	// ExecPath returns the path of the program binary being executed.
	ExecPath() string
	// UserRegs returns the register snapshot at syscall entry.
	UserRegs() ustack.Regs
	// UserMemory exposes the process's user memory for unwinding.
	UserMemory() *ustack.Memory
	// AddrSpace returns the executable mappings, used to rebase PCs.
	AddrSpace() *ustack.AddressSpace
	// StackGen returns a generation counter covering every mutation of the
	// process's call-stack state: user-memory writes (which include
	// interpreter frame pushes/pops and deliberate corruption) and
	// register-only changes (call/ret/PC moves). It is strictly monotonic
	// within one address-space lifetime; paired with AddrSpace().Gen() —
	// which is globally unique across all address spaces — it keys the
	// entrypoint-unwind cache so stacks are re-unwound only when they
	// actually changed, not once per system call.
	StackGen() uint64
	// Interp describes the interpreter runtime, if any: the language and
	// the user-memory address of its frame structure. Native binaries
	// return (ustack.LangNative, 0).
	Interp() (ustack.Lang, uint64)
	// PFState returns the per-process firewall state (STATE dictionary,
	// context caches, traversal state).
	PFState() *ProcState
}

// Resource is the engine's view of the object being accessed. The kernel
// implements it; methods that require extra system work (symlink target
// lookup) are only called when a rule needs them, which is what lazy
// context retrieval buys (paper Section 4.2).
type Resource interface {
	// SID returns the MAC label of the resource.
	SID() mac.SID
	// ID returns the resource identifier: inode number for filesystem
	// objects, signal number for signals.
	ID() uint64
	// Path returns the name by which the resource was reached, if any.
	Path() string
	// Class returns the object class.
	Class() mac.Class
	// OwnerUID returns the DAC owner of the resource.
	OwnerUID() int
	// LinkTargetOwnerUID resolves the owner of a symlink's target; ok is
	// false when the resource is not a symlink or the target is absent.
	// Used by the COMPARE module for SymLinksIfOwnerMatch (rule R8).
	LinkTargetOwnerUID() (uid int, ok bool)
}

// SockResource is the optional extension a Resource implements when the
// object is a socket endpoint. Like LinkTargetOwnerUID, each method is only
// called when a rule needs it (lazy context retrieval): ok is false when the
// field does not apply to the object.
type SockResource interface {
	// SockNS names the rendezvous namespace: "fs", "abstract", or "port".
	SockNS() (ns string, ok bool)
	// SockPort returns the port for port-namespace sockets.
	SockPort() (port uint16, ok bool)
	// PeerCred returns the peer credential captured at connect time
	// (SO_PEERCRED): for a connect, the listener's owner; for accept and
	// the data plane, the other endpoint of the stream.
	PeerCred() (pid, uid, gid int, ok bool)
}

// SignalInfo carries signal-delivery context for PROCESS_SIGNAL_DELIVERY
// requests (rules R9–R11).
type SignalInfo struct {
	Signal      int
	HasHandler  bool // the victim registered a handler for this signal
	Unblockable bool // SIGKILL/SIGSTOP-like
}

// Request is the "packet" the firewall filters: one mediated operation by
// one process on one resource (paper Section 5.1 — the Process Firewall
// constructs its packet from process and resource context).
type Request struct {
	Proc Process
	Op   Op
	Obj  Resource

	// SyscallNR and SyscallArgs describe the system call in progress, used
	// by the SYSCALL_ARGS match (rule R12) and by syscallbegin chains.
	SyscallNR   int
	SyscallArgs []uint64

	// Sig is non-nil for signal delivery requests.
	Sig *SignalInfo

	// Span, when non-nil, is the provenance record this request fills as it
	// moves through the gauntlet: chain path, cache bits, rules evaluated.
	// The kernel arms it on sampled syscalls; nil (the overwhelmingly
	// common case) costs one predictable branch per fill point and no
	// allocation.
	Span *obs.Span

	// Decider is set by Filter to the rule whose target issued the final
	// verdict; it stays nil when the default accept applied. Filter never
	// clears it, so reuse a request only after Reset.
	Decider *Rule

	// argsBuf backs SyscallArgs for SetArgs callers, so forwarding a
	// syscall's argument words into the request does not force the caller's
	// variadic slice onto the heap.
	argsBuf [8]uint64
}

// SetArgs copies args into the request's inline buffer and points
// SyscallArgs at it. The copy means the caller's slice is never retained,
// so a stack-allocated variadic argument list stays on the stack (retaining
// it on any path would make the parameter leak and force every call site's
// slice onto the heap). Like a register-passing syscall ABI the buffer
// carries at most 8 words; the simulated syscalls use at most four.
func (r *Request) SetArgs(args ...uint64) {
	n := copy(r.argsBuf[:], args)
	r.SyscallArgs = r.argsBuf[:n:n]
}

// Reset clears the request for reuse, preserving only the inline storage.
func (r *Request) Reset() {
	*r = Request{}
}

// CtxKind is a bit identifying one context field. The engine tracks which
// fields have been collected in a bitmask, the mechanism of paper
// Section 4.2 ("the Process Firewall associates each context field with a
// bit in a context bit mask").
type CtxKind uint32

// Context kinds.
const (
	CtxEntrypoints CtxKind = 1 << iota // unwound stack as (binary, offset) pairs
	CtxAdvWrite                        // adversary can write the resource
	CtxAdvRead                         // adversary can read the resource
	CtxDACOwner                        // resource DAC owner uid
	CtxTgtDACOwner                     // symlink target owner uid
	CtxSignal                          // signal delivery info
	CtxSyscall                         // syscall number and args
	CtxPeerCred                        // socket peer credential (SO_PEERCRED)
	CtxSockNS                          // socket rendezvous namespace
	CtxPort                            // port-namespace port number
)

// ctxKinds enumerates all kinds for eager collection.
var ctxKinds = []CtxKind{
	CtxEntrypoints, CtxAdvWrite, CtxAdvRead, CtxDACOwner, CtxTgtDACOwner,
	CtxSignal, CtxSyscall, CtxPeerCred, CtxSockNS, CtxPort,
}

// Entrypoint is a resolved stack frame: the binary (or script) and the
// program-counter offset within it. Offsets are relative to the binary's
// load base, making rules ASLR-independent (paper Section 5.2).
type Entrypoint struct {
	Path   string // binary path, or script path for interpreter frames
	Off    uint64 // PC offset, or line number for interpreter frames
	Interp bool   // true for interpreter-level frames
}

// ValueRef names a context value usable as a match/target argument, e.g.
// C_INO in "--value C_INO" (paper Section 5.2: "match and target modules in
// a rule can refer to a context in their arguments; this is replaced by the
// actual context value at runtime").
type ValueRef uint8

// Value references.
const (
	RefNone        ValueRef = iota
	RefLiteral              // a literal number carried alongside
	RefIno                  // C_INO: resource identifier
	RefObjSID               // C_OBJ_SID
	RefDACOwner             // C_DAC_OWNER
	RefTgtDACOwner          // C_TGT_DAC_OWNER
	RefSignal               // C_SIGNAL
	RefPeerUID              // C_PEER_UID
	RefPeerPID              // C_PEER_PID
	RefPort                 // C_PORT
)

// refNames maps rule-language spellings to references.
var refNames = map[string]ValueRef{
	"C_INO":           RefIno,
	"C_OBJ_SID":       RefObjSID,
	"C_DAC_OWNER":     RefDACOwner,
	"C_TGT_DAC_OWNER": RefTgtDACOwner,
	"C_SIGNAL":        RefSignal,
	"C_PEER_UID":      RefPeerUID,
	"C_PEER_PID":      RefPeerPID,
	"C_PORT":          RefPort,
}

// RefName returns the canonical spelling of a reference.
func RefName(r ValueRef) string {
	for n, v := range refNames {
		if v == r {
			return n
		}
	}
	return "?"
}

// needsOf maps a reference to the context kind it requires.
func needsOf(r ValueRef) CtxKind {
	switch r {
	case RefDACOwner:
		return CtxDACOwner
	case RefTgtDACOwner:
		return CtxTgtDACOwner
	case RefSignal:
		return CtxSignal
	case RefPeerUID, RefPeerPID:
		return CtxPeerCred
	case RefPort:
		return CtxPort
	default:
		return 0
	}
}

// Value is either a literal or a context reference, resolved at match time.
type Value struct {
	Ref ValueRef
	Lit uint64
}

// Literal wraps a constant value.
func Literal(v uint64) Value { return Value{Ref: RefLiteral, Lit: v} }

// ParseRef parses a C_* reference name.
func ParseRef(s string) (ValueRef, bool) {
	r, ok := refNames[s]
	return r, ok
}

// EvalCtx carries one request's evaluation state: the request, the engine,
// the ruleset snapshot, and the lazily collected context fields. Statistics
// are batched here and flushed once per request.
type EvalCtx struct {
	Req    *Request
	engine *Engine
	rs     *Program

	rulesEvaluated uint64
	ctxCollections uint64
	ctxCacheHits   uint64

	have CtxKind

	entries  []Entrypoint
	entryErr bool // unwinding failed; entrypoint matches cannot succeed

	advWrite bool
	advRead  bool

	dacOwner   int
	tgtOwner   int
	tgtOwnerOK bool

	peerPID, peerUID, peerGID int
	peerOK                    bool

	sockNS   string
	sockNSOK bool

	port   uint16
	portOK bool
}

// reset prepares a (possibly recycled) context for one request. The whole
// struct is overwritten: every collected field, counter, and the have mask
// go back to zero, so no state can bleed from the previous request the
// context served. The entries slice reference is dropped, not reused — a
// cached unwind re-attaches from ProcState in O(1), and log consumers may
// still be aliasing the old slice.
func (c *EvalCtx) reset(req *Request, e *Engine, rs *Program) {
	*c = EvalCtx{Req: req, engine: e, rs: rs}
}

// clear drops all references before the context returns to the free list.
func (c *EvalCtx) clear() {
	*c = EvalCtx{}
}

// Require ensures kinds have been collected, invoking context modules as
// needed. With lazy retrieval disabled the engine pre-collects everything,
// so Require becomes a no-op.
func (c *EvalCtx) Require(kinds CtxKind) {
	missing := kinds &^ c.have
	if missing == 0 {
		return
	}
	for _, k := range ctxKinds {
		if missing&k != 0 {
			c.collect(k)
		}
	}
}

// collect gathers a single context field.
func (c *EvalCtx) collect(k CtxKind) {
	defer func() { c.have |= k }()
	switch k {
	case CtxEntrypoints:
		c.collectEntrypoints()
	case CtxAdvWrite:
		if c.Req.Obj != nil {
			var hit bool
			c.advWrite, hit = c.engine.policy.AdversaryWritableHit(c.Req.Proc.SubjectSID(), c.Req.Obj.SID())
			c.noteAdvCache(hit)
		}
	case CtxAdvRead:
		if c.Req.Obj != nil {
			var hit bool
			c.advRead, hit = c.engine.policy.AdversaryReadableHit(c.Req.Proc.SubjectSID(), c.Req.Obj.SID())
			c.noteAdvCache(hit)
		}
	case CtxDACOwner:
		if c.Req.Obj != nil {
			c.dacOwner = c.Req.Obj.OwnerUID()
		}
	case CtxTgtDACOwner:
		if c.Req.Obj != nil {
			c.tgtOwner, c.tgtOwnerOK = c.Req.Obj.LinkTargetOwnerUID()
		}
	case CtxPeerCred:
		if sr, ok := c.Req.Obj.(SockResource); ok {
			c.peerPID, c.peerUID, c.peerGID, c.peerOK = sr.PeerCred()
		}
	case CtxSockNS:
		if sr, ok := c.Req.Obj.(SockResource); ok {
			c.sockNS, c.sockNSOK = sr.SockNS()
		}
	case CtxPort:
		if sr, ok := c.Req.Obj.(SockResource); ok {
			c.port, c.portOK = sr.SockPort()
		}
	case CtxSignal, CtxSyscall:
		// Present directly on the Request; nothing to gather.
	}
}

// noteAdvCache records adversary-cache provenance on the request's span,
// when one is armed. Lock- and allocation-free.
func (c *EvalCtx) noteAdvCache(hit bool) {
	if sp := c.Req.Span; sp != nil {
		if hit {
			sp.Flags |= obs.SpanAdvCacheHit
		} else {
			sp.Flags |= obs.SpanAdvCacheMiss
		}
	}
}

// collectEntrypoints unwinds the process stack (and interpreter frames) and
// rebases PCs to (binary, offset) pairs. It consults the per-process cache
// when the engine's caching optimization is on. The cache is keyed on the
// pair (StackGen, AddrSpace generation), which strictly generalizes the
// paper's per-syscall validity observation (Section 4.2): the stack is
// valid not just across the resource requests of one system call but
// across entire program phases — any call, return, memory write, or mmap
// invalidates the pair, and execve swaps in an address space whose globally
// unique generation can never collide with the cached one.
func (c *EvalCtx) collectEntrypoints() {
	ps := c.Req.Proc.PFState()
	if c.engine.cfg.CtxCache {
		sg := c.Req.Proc.StackGen()
		mg := c.Req.Proc.AddrSpace().Gen()
		if ps.cacheValid && ps.cacheStackGen == sg && ps.cacheMapGen == mg {
			c.entries, c.entryErr = ps.cachedEntries, ps.cachedEntryErr
			c.ctxCacheHits++
			return
		}
		c.entries, c.entryErr = unwindEntrypoints(c.Req.Proc)
		c.ctxCollections++
		ps.cachedEntries, ps.cachedEntryErr = c.entries, c.entryErr
		ps.cacheStackGen, ps.cacheMapGen = sg, mg
		ps.cacheValid = true
		return
	}
	c.entries, c.entryErr = unwindEntrypoints(c.Req.Proc)
	c.ctxCollections++
}

// unwindEntrypoints performs the actual stack walk. Failures are contained:
// the returned flag marks the context unavailable and only costs the
// (possibly malicious) process its own protection (paper Section 4.4).
//
//pflint:allow-fn — entrypoint-cache miss path, once per program phase (stack/exec generation); cached hits allocate nothing.
func unwindEntrypoints(p Process) ([]Entrypoint, bool) {
	pcs, err := ustack.UnwindBinary(p.UserMemory(), p.UserRegs(), ustack.MaxFrames)
	if err != nil {
		return nil, true
	}
	as := p.AddrSpace()
	entries := make([]Entrypoint, 0, len(pcs)+4)
	for _, pc := range pcs {
		if path, off, ok := as.Rebase(pc); ok {
			entries = append(entries, Entrypoint{Path: path, Off: off})
		}
		// PCs outside any mapping are skipped, not fatal: a partially
		// valid stack still yields usable entrypoints.
	}
	if lang, head := p.Interp(); lang != ustack.LangNative {
		frames, err := ustack.UnwindInterp(lang, p.UserMemory(), head)
		if err != nil {
			// Interpreter state is corrupt; binary entrypoints remain valid.
			return entries, false
		}
		for _, f := range frames {
			entries = append(entries, Entrypoint{Path: f.Script, Off: uint64(f.Line), Interp: true})
		}
	}
	return entries, false
}

// entryRoutes returns the indexes of the entrypoint keys of slot that the
// request's stack hits, in stack order with duplicates kept. Under
// CtxCache the list is cached in ProcState next to the entrypoint cache,
// keyed on the same stack and address-space generations plus the program
// generation; otherwise it is rebuilt for every request.
func (c *EvalCtx) entryRoutes(slot int) []*chainIndex {
	eps, _ := c.Entrypoints()
	if !c.engine.cfg.CtxCache {
		return c.rs.routes(slot, eps)
	}
	ps := c.Req.Proc.PFState()
	rc := &ps.routes[slot]
	if !rc.valid || rc.rsGen != c.rs.gen || rc.stackGen != ps.cacheStackGen || rc.mapGen != ps.cacheMapGen {
		*rc = routeCache{
			list:     c.rs.routes(slot, eps),
			stackGen: ps.cacheStackGen, mapGen: ps.cacheMapGen, rsGen: c.rs.gen,
			valid: true,
		}
	}
	return rc.list
}

// Entrypoints returns the unwound entrypoints, collecting them if needed.
func (c *EvalCtx) Entrypoints() ([]Entrypoint, bool) {
	c.Require(CtxEntrypoints)
	return c.entries, !c.entryErr
}

// AdversaryWritable reports the resource's adversary write accessibility.
func (c *EvalCtx) AdversaryWritable() bool {
	c.Require(CtxAdvWrite)
	return c.advWrite
}

// AdversaryReadable reports the resource's adversary read accessibility.
func (c *EvalCtx) AdversaryReadable() bool {
	c.Require(CtxAdvRead)
	return c.advRead
}

// PeerCred returns the socket peer credential, collecting it if needed; ok
// is false when the object is not a connected socket endpoint.
func (c *EvalCtx) PeerCred() (pid, uid, gid int, ok bool) {
	c.Require(CtxPeerCred)
	return c.peerPID, c.peerUID, c.peerGID, c.peerOK
}

// SockNS returns the socket's rendezvous namespace name.
func (c *EvalCtx) SockNS() (string, bool) {
	c.Require(CtxSockNS)
	return c.sockNS, c.sockNSOK
}

// SockPort returns the socket's port for port-namespace endpoints.
func (c *EvalCtx) SockPort() (uint16, bool) {
	c.Require(CtxPort)
	return c.port, c.portOK
}

// Resolve evaluates a Value against the collected context.
func (c *EvalCtx) Resolve(v Value) (uint64, bool) {
	c.Require(needsOf(v.Ref))
	switch v.Ref {
	case RefLiteral:
		return v.Lit, true
	case RefIno:
		if c.Req.Obj == nil {
			return 0, false
		}
		return c.Req.Obj.ID(), true
	case RefObjSID:
		if c.Req.Obj == nil {
			return 0, false
		}
		return uint64(c.Req.Obj.SID()), true
	case RefDACOwner:
		if c.Req.Obj == nil {
			return 0, false
		}
		return uint64(int64(c.dacOwner)), true
	case RefTgtDACOwner:
		if !c.tgtOwnerOK {
			return 0, false
		}
		return uint64(int64(c.tgtOwner)), true
	case RefSignal:
		if c.Req.Sig == nil {
			return 0, false
		}
		return uint64(c.Req.Sig.Signal), true
	case RefPeerUID:
		if !c.peerOK {
			return 0, false
		}
		return uint64(int64(c.peerUID)), true
	case RefPeerPID:
		if !c.peerOK {
			return 0, false
		}
		return uint64(int64(c.peerPID)), true
	case RefPort:
		if !c.portOK {
			return 0, false
		}
		return uint64(c.port), true
	default:
		return 0, false
	}
}
