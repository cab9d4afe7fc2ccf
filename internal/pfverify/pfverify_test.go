package pfverify

import (
	"testing"

	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
)

// agree asserts the symbolic evaluator reaches exactly the engine's
// verdict for a fully pinned request.
func agree(t *testing.T, e *pf.Engine, pol *mac.Policy, req *pf.Request, label string) {
	t.Helper()
	c := ctxFor(pol, req)
	ev := FromEngine(e)
	r := ev.Eval(c)
	if !r.Exact {
		t.Fatalf("%s: fully pinned point not exact: %+v", label, r)
	}
	got := e.Filter(req)
	if r.Verdict != got {
		t.Fatalf("%s: symbolic %v, concrete %v", label, r.Verdict, got)
	}
}

func TestEmptyRulesetAccepts(t *testing.T) {
	pol := testPolicy()
	e := pf.New(pol, pf.Optimized())
	proc := newTProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	req := &pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "lib_t"), id: 7}}
	agree(t, e, pol, req, "empty")
}

func TestObjectLabelAndOp(t *testing.T) {
	pol := testPolicy()
	e := pf.New(pol, pf.Optimized())
	tmp := sid(pol, "tmp_t")
	if err := e.Append("input", &pf.Rule{
		Object: pf.NewSIDSet(false, tmp),
		Ops:    pf.NewOpSet(pf.OpLnkFileRead),
		Target: pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	proc := newTProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	link := &tRes{sid: tmp, id: 3, class: mac.ClassLnkFile}
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpLnkFileRead, Obj: link}, "drop")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: link}, "other-op")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpLnkFileRead, Obj: &tRes{sid: sid(pol, "etc_t"), id: 4}}, "other-label")
}

func TestEntrypointOrderingUnderEptChains(t *testing.T) {
	// Under EptChains, generic input rules run before entrypoint-indexed
	// rules regardless of install order; the evaluator must mirror that.
	pol := testPolicy()
	e := pf.New(pol, pf.Optimized())
	lib := sid(pol, "lib_t")
	// Entrypoint guard installed FIRST...
	if err := e.Append("input", &pf.Rule{
		Program: "/lib/ld.so", Entry: 0x100, EntrySet: true,
		Ops:    pf.NewOpSet(pf.OpFileOpen),
		Object: pf.NewSIDSet(true, lib),
		Target: pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	// ...generic accept installed SECOND still preempts it.
	if err := e.Append("input", &pf.Rule{
		Ops:    pf.NewOpSet(pf.OpFileOpen),
		Object: pf.NewSIDSet(false, sid(pol, "tmp_t")),
		Target: pf.Accept(),
	}); err != nil {
		t.Fatal(err)
	}
	proc := newTProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	proc.at("/lib/ld.so", 0x100)
	tmp := &tRes{sid: sid(pol, "tmp_t"), id: 9}
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: tmp}, "generic-first")

	proc2 := newTProc(2, sid(pol, "httpd_t"), "/usr/bin/apache2")
	proc2.at("/lib/ld.so", 0x100)
	agree(t, e, pol, &pf.Request{Proc: proc2, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "etc_t"), id: 10}}, "ept-drop")

	proc3 := newTProc(3, sid(pol, "httpd_t"), "/usr/bin/apache2")
	proc3.at("/lib/ld.so", 0x999)
	agree(t, e, pol, &pf.Request{Proc: proc3, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "etc_t"), id: 11}}, "wrong-entry")
}

func TestJumpReturnAndUserChain(t *testing.T) {
	pol := testPolicy()
	e := pf.New(pol, pf.Optimized())
	if err := e.NewChain("uc"); err != nil {
		t.Fatal(err)
	}
	userT := sid(pol, "user_t")
	if err := e.Append("input", &pf.Rule{
		Subject: pf.NewSIDSet(false, userT),
		Target:  &pf.JumpTarget{ChainName: "uc"},
	}); err != nil {
		t.Fatal(err)
	}
	// uc: RETURN for tmp_t objects, DROP otherwise.
	if err := e.Append("uc", &pf.Rule{
		Object: pf.NewSIDSet(false, sid(pol, "tmp_t")),
		Target: &pf.ReturnTarget{},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("uc", &pf.Rule{Target: pf.Drop()}); err != nil {
		t.Fatal(err)
	}
	// After the jump site: a rule that should still run for the RETURN path.
	if err := e.Append("input", &pf.Rule{
		Object: pf.NewSIDSet(false, sid(pol, "tmp_t")),
		Ops:    pf.NewOpSet(pf.OpFileWrite),
		Target: pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	proc := newTProc(1, userT, "/bin/sh")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "tmp_t"), id: 1}}, "return-path")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpFileWrite, Obj: &tRes{sid: sid(pol, "tmp_t"), id: 1}}, "post-return-rule")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "etc_t"), id: 2}}, "uc-drop")

	other := newTProc(2, sid(pol, "httpd_t"), "/usr/bin/apache2")
	agree(t, e, pol, &pf.Request{Proc: other, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "etc_t"), id: 2}}, "no-jump")
}

func TestStateExactWithFreshProcess(t *testing.T) {
	// STATE set + match with literal values is fully decidable from a
	// fresh dictionary: the walk must not fork.
	pol := testPolicy()
	e := pf.New(pol, pf.Optimized())
	if err := e.Append("input", &pf.Rule{
		Ops:    pf.NewOpSet(pf.OpFileOpen),
		Target: &pf.StateTarget{Key: 0xbeef, Val: pf.Literal(1)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("input", &pf.Rule{
		Ops:     pf.NewOpSet(pf.OpFileOpen),
		Matches: []pf.Match{&pf.StateMatch{Key: 0xbeef, Cmp: pf.Literal(1)}},
		Target:  pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	// A match on a never-set key: definitely absent, never matches.
	if err := e.Append("input", &pf.Rule{
		Ops:     pf.NewOpSet(pf.OpFileWrite),
		Matches: []pf.Match{&pf.StateMatch{Key: 0xd00d, Cmp: pf.Literal(0)}},
		Target:  pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	proc := newTProc(1, sid(pol, "user_t"), "/bin/sh")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "tmp_t"), id: 1}}, "state-set-then-match")

	proc2 := newTProc(2, sid(pol, "user_t"), "/bin/sh")
	agree(t, e, pol, &pf.Request{Proc: proc2, Op: pf.OpFileWrite, Obj: &tRes{sid: sid(pol, "tmp_t"), id: 1}}, "state-absent")
}

func TestStateUnknownForksAndWidens(t *testing.T) {
	// With an unknown prior dictionary, a STATE-guarded DROP must surface
	// as MayDrop but not DefiniteDrop.
	pol := testPolicy()
	e := pf.New(pol, pf.Optimized())
	if err := e.Append("input", &pf.Rule{
		Ops:     pf.NewOpSet(pf.OpFileOpen),
		Matches: []pf.Match{&pf.StateMatch{Key: 0xbeef, Cmp: pf.Literal(1)}},
		Target:  pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	ev := FromEngine(e)
	c := &Ctx{
		Op:           pf.OpFileOpen,
		Subject:      sid(pol, "user_t"),
		HasObject:    true,
		Object:       sid(pol, "tmp_t"),
		StateUnknown: true,
	}
	r := ev.Eval(c)
	if !r.MayDrop || !r.MayAccept {
		t.Fatalf("want both verdicts reachable, got %+v", r)
	}
	if r.DefiniteDrop {
		t.Fatalf("drop requires unknown state; must not be definite: %+v", r)
	}
	if !r.DefiniteAccept {
		t.Fatalf("accept path (key unset branch) is concrete for a fresh process: %+v", r)
	}
	if r.Exact {
		t.Fatal("forked walk reported exact")
	}
}

func TestAdvAccessAndCompareOwner(t *testing.T) {
	pol := testPolicy()
	e := pf.New(pol, pf.Optimized())
	// Drop adversary-writable objects at any entry (attack-class rule).
	if err := e.Append("input", &pf.Rule{
		Ops:     pf.NewOpSet(pf.OpFileOpen),
		Matches: []pf.Match{&pf.AdvAccessMatch{Write: true, Want: true}},
		Target:  pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	// safe_open: owner mismatch through a link.
	if err := e.Append("input", &pf.Rule{
		Ops: pf.NewOpSet(pf.OpLnkFileRead),
		Matches: []pf.Match{&pf.CompareMatch{
			V1: pf.Value{Ref: pf.RefDACOwner}, V2: pf.Value{Ref: pf.RefTgtDACOwner}, Nequal: true,
		}},
		Target: pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	httpd := newTProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	// user_t can write tmp_t in testPolicy, so tmp_t is adversary-writable
	// for httpd_t.
	agree(t, e, pol, &pf.Request{Proc: httpd, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "tmp_t"), id: 5}}, "adv-writable")
	agree(t, e, pol, &pf.Request{Proc: httpd, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "lib_t"), id: 6}}, "not-adv-writable")
	agree(t, e, pol, &pf.Request{Proc: httpd, Op: pf.OpLnkFileRead,
		Obj: &tRes{sid: sid(pol, "tmp_t"), id: 7, owner: 1000, tgtOwner: 0, tgtOK: true}}, "owner-diff")
	agree(t, e, pol, &pf.Request{Proc: httpd, Op: pf.OpLnkFileRead,
		Obj: &tRes{sid: sid(pol, "tmp_t"), id: 8, owner: 0, tgtOwner: 0, tgtOK: true}}, "owner-same")
	agree(t, e, pol, &pf.Request{Proc: httpd, Op: pf.OpLnkFileRead,
		Obj: &tRes{sid: sid(pol, "tmp_t"), id: 9}}, "not-a-link")
}

func TestResIDAndSyscallArgs(t *testing.T) {
	pol := testPolicy()
	e := pf.New(pol, pf.Optimized())
	if err := e.Append("input", &pf.Rule{
		Ops: pf.NewOpSet(pf.OpFileOpen), ResID: 42, ResIDSet: true,
		Target: pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("syscallbegin", &pf.Rule{
		Matches: []pf.Match{&pf.SyscallArgsMatch{Arg: 0, Equal: 11}},
		Target:  pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	proc := newTProc(1, sid(pol, "user_t"), "/bin/sh")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "tmp_t"), id: 42}}, "res-id-hit")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "tmp_t"), id: 43}}, "res-id-miss")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpSyscallBegin, SyscallNR: 11}, "nr-hit")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpSyscallBegin, SyscallNR: 12}, "nr-miss")
}

func TestSocketContext(t *testing.T) {
	pol := testPolicy()
	e := pf.New(pol, pf.Optimized())
	if err := e.Append("input", &pf.Rule{
		Ops: pf.NewOpSet(pf.OpSocketBind),
		Matches: []pf.Match{
			&pf.SockNSMatch{NS: "port"},
			&pf.PortMatch{Min: 1, Max: 1023},
		},
		Target: pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("input", &pf.Rule{
		Ops:     pf.NewOpSet(pf.OpSocketConnect),
		Matches: []pf.Match{&pf.PeerCredMatch{UID: pf.Literal(0), Nequal: true}},
		Target:  pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	proc := newTProc(1, sid(pol, "user_t"), "/bin/sh")
	low := &tSockRes{tRes: tRes{sid: sid(pol, "tmp_t"), id: 1}, ns: "port", nsOK: true, port: 80, portOK: true}
	high := &tSockRes{tRes: tRes{sid: sid(pol, "tmp_t"), id: 2}, ns: "port", nsOK: true, port: 8080, portOK: true}
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpSocketBind, Obj: low}, "low-port")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpSocketBind, Obj: high}, "high-port")

	peerRoot := &tSockRes{tRes: tRes{sid: sid(pol, "tmp_t"), id: 3}, peerUID: 0, peerPID: 9, peerOK: true}
	peerUser := &tSockRes{tRes: tRes{sid: sid(pol, "tmp_t"), id: 4}, peerUID: 1000, peerPID: 9, peerOK: true}
	noPeer := &tSockRes{tRes: tRes{sid: sid(pol, "tmp_t"), id: 5}}
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpSocketConnect, Obj: peerRoot}, "peer-root")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpSocketConnect, Obj: peerUser}, "peer-user")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpSocketConnect, Obj: noPeer}, "no-peer")
}

func TestMangleRunsFirst(t *testing.T) {
	// A STATE set in mangle/input must be visible to input-chain matches
	// in the same request.
	pol := testPolicy()
	e := pf.New(pol, pf.Optimized())
	if err := e.Append("mangle/input", &pf.Rule{
		Ops:    pf.NewOpSet(pf.OpFileOpen),
		Target: &pf.StateTarget{Key: 7, Val: pf.Literal(3)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("input", &pf.Rule{
		Ops:     pf.NewOpSet(pf.OpFileOpen),
		Matches: []pf.Match{&pf.StateMatch{Key: 7, Cmp: pf.Literal(3)}},
		Target:  pf.Drop(),
	}); err != nil {
		t.Fatal(err)
	}
	proc := newTProc(1, sid(pol, "user_t"), "/bin/sh")
	agree(t, e, pol, &pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "tmp_t"), id: 1}}, "mangle-state")
}

// TestReplaceAtAgreesWithEngine pins the verifier to the engine after a
// replace-by-position inside an entrypoint key: the replaced rule keeps its
// list position, and the verifier must prove the verdict Filter returns.
// The key holds a DROP that misses the request, the slot under test
// (replaced by a matching DROP) and a matching ACCEPT.
func TestReplaceAtAgreesWithEngine(t *testing.T) {
	pol := testPolicy()
	e := pf.New(pol, pf.Optimized())
	rule := func(obj *pf.SIDSet, tg pf.Target) *pf.Rule {
		return &pf.Rule{
			Program: "/lib/ld.so", Entry: 0x100, EntrySet: true,
			Ops: pf.NewOpSet(pf.OpFileOpen), Object: obj, Target: tg,
		}
	}
	tmp := pf.NewSIDSet(false, sid(pol, "tmp_t"))
	for _, r := range []*pf.Rule{rule(tmp, pf.Drop()), rule(tmp, pf.Accept()), rule(nil, pf.Accept())} {
		if err := e.Append("input", r); err != nil {
			t.Fatal(err)
		}
	}
	err := e.Transaction(func(tx *pf.Tx) error { return tx.ReplaceAt("input", 1, rule(nil, pf.Drop())) })
	if err != nil {
		t.Fatal(err)
	}
	proc := newTProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	proc.at("/lib/ld.so", 0x100)
	req := &pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "etc_t"), id: 5}}
	r := FromEngine(e).Eval(ctxFor(pol, req))
	if !r.Exact {
		t.Fatalf("fully pinned point not exact: %+v", r)
	}
	if got := e.Filter(req); got != r.Verdict || got != pf.VerdictDrop {
		t.Fatalf("engine %v, verifier %v; want both DROP (the replaced slot precedes the ACCEPT)", got, r.Verdict)
	}
}

// TestEntrypointScanEdges pins the verifier to the engine on the
// entrypoint scan's control edges: a jump from an entrypoint rule walks its
// target and resumes the scan; RETURN from an entrypoint rule is ignored.
func TestEntrypointScanEdges(t *testing.T) {
	pol := testPolicy()
	for _, first := range []pf.Target{&pf.JumpTarget{ChainName: "uc"}, &pf.ReturnTarget{}} {
		e := pf.New(pol, pf.Optimized())
		if err := e.NewChain("uc"); err != nil {
			t.Fatal(err)
		}
		if err := e.Append("uc", &pf.Rule{Target: &pf.LogTarget{Prefix: "uc"}}); err != nil {
			t.Fatal(err)
		}
		for _, tg := range []pf.Target{first, pf.Drop()} {
			if err := e.Append("input", &pf.Rule{
				Program: "/lib/ld.so", Entry: 0x100, EntrySet: true,
				Ops: pf.NewOpSet(pf.OpFileOpen), Target: tg,
			}); err != nil {
				t.Fatal(err)
			}
		}
		proc := newTProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
		proc.at("/lib/ld.so", 0x100)
		req := &pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: &tRes{sid: sid(pol, "etc_t"), id: 5}}
		agree(t, e, pol, req, first.TargetName())
		if got := e.Filter(req); got != pf.VerdictDrop {
			t.Fatalf("%s first: engine %v, want DROP from the key's second rule", first.TargetName(), got)
		}
	}
}
