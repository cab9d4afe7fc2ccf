package pf

import (
	"fmt"
	"reflect"
	"testing"

	"pfirewall/internal/mac"
)

// --- differential property test ----------------------------------------
//
// The compiled decision program must be observationally identical to linear
// traversal: same verdicts, same per-rule hit counters, same LOG emissions,
// same STATE side effects — over arbitrary rulesets (jumps, returns, user
// chains, negated sets, entrypoint rules, inserts, removals). We generate
// randomized ruleset/request pairs and run each through twin engines of one
// config, one deciding by the compiled program and one by the linear oracle
// (oracle_test.go), then compare everything observable. (Comparing e.g. FULL
// against Optimized directly would conflate the index with EptChains, which
// reorders entrypoint-rule evaluation by design.)

type diffRNG struct{ s uint64 }

func (r *diffRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *diffRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// ruleSpec describes one generated rule so identical fresh Rule values can
// be materialized for each engine (rules carry atomic hit counters and must
// not be shared across engines).
type ruleSpec struct {
	chain    string
	front    bool
	subject  func() *SIDSet
	object   func() *SIDSet
	ops      OpSet
	resID    uint64
	resIDSet bool
	program  string
	entry    uint64
	entrySet bool
	match    func() Match
	target   func() Target
}

func (s *ruleSpec) build() *Rule {
	r := &Rule{
		Ops:      s.ops,
		ResID:    s.resID,
		ResIDSet: s.resIDSet,
		Program:  s.program,
		Entry:    s.entry,
		EntrySet: s.entrySet,
		Target:   s.target(),
	}
	if s.subject != nil {
		r.Subject = s.subject()
	}
	if s.object != nil {
		r.Object = s.object()
	}
	if s.match != nil {
		r.Matches = []Match{s.match()}
	}
	return r
}

func genRuleSpec(rng *diffRNG, pol *mac.Policy, chains []string, userChains []string, inUser bool) *ruleSpec {
	labels := []mac.Label{"httpd_t", "user_t", "sshd_t", "tmp_t", "lib_t", "etc_t", "shadow_t"}
	pick := func() mac.SID { return sid(pol, labels[rng.intn(len(labels))]) }
	ops := []Op{OpFileOpen, OpFileRead, OpFileWrite, OpLnkFileRead, OpDirSearch, OpSocketBind, OpSyscallBegin}

	s := &ruleSpec{chain: chains[rng.intn(len(chains))], front: rng.intn(4) == 0}
	switch rng.intn(4) {
	case 0: // no subject
	case 1:
		a := pick()
		s.subject = func() *SIDSet { return NewSIDSet(false, a) }
	case 2:
		a, b := pick(), pick()
		s.subject = func() *SIDSet { return NewSIDSet(false, a, b) }
	case 3:
		a := pick()
		s.subject = func() *SIDSet { return NewSIDSet(true, a) }
	}
	switch rng.intn(3) {
	case 0: // no object
	case 1:
		a := pick()
		s.object = func() *SIDSet { return NewSIDSet(false, a) }
	case 2:
		a := pick()
		s.object = func() *SIDSet { return NewSIDSet(true, a) }
	}
	switch rng.intn(4) {
	case 0: // empty mask: all ops
	case 1:
		s.ops = NewOpSet(ops[rng.intn(len(ops))])
	default:
		s.ops = NewOpSet(ops[rng.intn(len(ops))], ops[rng.intn(len(ops))])
	}
	if rng.intn(6) == 0 {
		s.resID = uint64(rng.intn(4))
		s.resIDSet = true
	}
	if rng.intn(8) == 0 {
		s.program = "/lib/ld-2.15.so"
		s.entry = 0x596b
		if rng.intn(3) == 0 {
			s.entry = 0x1234 // entrypoint nobody reaches
		}
		s.entrySet = true
	}
	if rng.intn(5) == 0 {
		key := uint64(rng.intn(3))
		cmp := uint64(rng.intn(3))
		ne := rng.intn(2) == 0
		s.match = func() Match { return &StateMatch{Key: key, Cmp: Literal(cmp), Nequal: ne} }
	}
	n := rng.intn(10)
	switch {
	case n < 3:
		s.target = func() Target { return Drop() }
	case n < 5:
		s.target = func() Target { return Accept() }
	case n < 7:
		prefix := fmt.Sprintf("p%d", rng.intn(3))
		s.target = func() Target { return &LogTarget{Prefix: prefix} }
	case n == 7:
		key := uint64(rng.intn(3))
		val := uint64(rng.intn(3))
		s.target = func() Target { return &StateTarget{Key: key, Val: Literal(val)} }
	case n == 8 && !inUser:
		uc := userChains[rng.intn(len(userChains))]
		s.target = func() Target { return &JumpTarget{ChainName: uc} }
	default:
		s.target = func() Target { return &ReturnTarget{} }
	}
	return s
}

// diffEngine is one side of the differential pair: an engine, its
// materialized rules (parallel to the shared spec list), its log capture,
// and its own processes (STATE dictionaries are per-process and must not be
// shared across engines).
type diffEngine struct {
	e     *Engine
	rules []*Rule
	logs  []LogRecord
	procs map[int]*fakeProc
}

func newDiffEngine(t *testing.T, pol *mac.Policy, cfg Config, specs []*ruleSpec, userChains []string) *diffEngine {
	t.Helper()
	d := &diffEngine{e: New(pol, cfg), procs: make(map[int]*fakeProc)}
	d.e.Logger = func(rec LogRecord) { d.logs = append(d.logs, rec) }
	for _, uc := range userChains {
		if err := d.e.NewChain(uc); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range specs {
		r := s.build()
		d.rules = append(d.rules, r)
		var err error
		if s.front {
			err = d.e.Insert(s.chain, r)
		} else {
			err = d.e.Append(s.chain, r)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func (d *diffEngine) proc(t *testing.T, pid int, s mac.SID, ldso bool) *fakeProc {
	if p, ok := d.procs[pid]; ok {
		return p
	}
	p := newFakeProc(pid, s, "/usr/bin/prog")
	if ldso {
		setupLdSo(t, p)
	}
	d.procs[pid] = p
	return p
}

func TestCompiledDispatchDifferential(t *testing.T) {
	pol := testPolicy()
	baseConfigs := []Config{
		{},
		{CtxCache: true, LazyCtx: true},
		{CtxCache: true, LazyCtx: true, EptChains: true},
	}
	subjects := []mac.Label{"httpd_t", "user_t", "sshd_t", "shadow_t"}
	objects := []mac.Label{"tmp_t", "lib_t", "etc_t", "shadow_t"}
	ops := []Op{OpFileOpen, OpFileRead, OpFileWrite, OpLnkFileRead, OpDirSearch, OpSocketBind, OpSyscallBegin, OpInvalid}

	const iterations = 350 // x len(baseConfigs) = 1050 ruleset/request pairs
	pairs := 0
	for iter := 0; iter < iterations; iter++ {
		rng := &diffRNG{s: uint64(iter)*2654435761 + 1}
		chains := []string{"input", "input", "input", "syscallbegin", "mangle/input", "u0", "u1"}
		userChains := []string{"u0", "u1"}
		nRules := 1 + rng.intn(14)
		specs := make([]*ruleSpec, 0, nRules)
		for i := 0; i < nRules; i++ {
			s := genRuleSpec(rng, pol, chains, userChains, false)
			if s.chain == "u0" || s.chain == "u1" {
				s = genRuleSpec(rng, pol, []string{s.chain}, userChains, true)
			}
			specs = append(specs, s)
		}

		// One request script shared by every engine pair of this iteration.
		type reqStep struct {
			pid    int
			subj   mac.SID
			ldso   bool
			op     Op
			objSID mac.SID
			objID  uint64
			noObj  bool
			remove int // >= 0: remove the rule at this spec index instead
		}
		nReqs := 20 + rng.intn(20)
		steps := make([]reqStep, 0, nReqs)
		for i := 0; i < nReqs; i++ {
			st := reqStep{
				pid:    1 + rng.intn(3),
				subj:   sid(pol, subjects[rng.intn(len(subjects))]),
				ldso:   rng.intn(2) == 0,
				op:     ops[rng.intn(len(ops))],
				objSID: sid(pol, objects[rng.intn(len(objects))]),
				objID:  uint64(rng.intn(4)),
				noObj:  rng.intn(6) == 0,
				remove: -1,
			}
			if i == nReqs/2 && len(specs) > 2 {
				st.remove = rng.intn(len(specs))
			}
			steps = append(steps, st)
		}

		for _, base := range baseConfigs {
			lin := newDiffEngine(t, pol, base, specs, userChains)
			idx := newDiffEngine(t, pol, base, specs, userChains)
			pairs++

			for si, st := range steps {
				if st.remove >= 0 {
					for _, d := range []*diffEngine{lin, idx} {
						victim := d.rules[st.remove]
						if err := d.e.Remove(specs[st.remove].chain, func(r *Rule) bool { return r == victim }); err != nil {
							t.Fatal(err)
						}
					}
					continue
				}
				var vLin, vIdx Verdict
				for _, d := range []*diffEngine{lin, idx} {
					p := d.proc(t, st.pid, st.subj, st.ldso)
					p.ps.BeginSyscall()
					req := &Request{Proc: p, Op: st.op}
					if !st.noObj {
						req.Obj = &fakeRes{sid: st.objSID, id: st.objID}
					}
					if d == lin {
						vLin = linearFilter(d.e, req)
					} else {
						vIdx = d.e.Filter(req)
					}
				}
				if vLin != vIdx {
					t.Fatalf("iter %d cfg %+v step %d: linear=%v compiled=%v\nstep: %+v", iter, base, si, vLin, vIdx, st)
				}
			}

			for ri := range specs {
				if h1, h2 := lin.rules[ri].Hits.Load(), idx.rules[ri].Hits.Load(); h1 != h2 {
					t.Fatalf("iter %d cfg %+v rule %d (%s): hits linear=%d compiled=%d",
						iter, base, ri, lin.rules[ri].String(pol.SIDs()), h1, h2)
				}
			}
			if !reflect.DeepEqual(lin.logs, idx.logs) {
				t.Fatalf("iter %d cfg %+v: LOG emissions differ\nlinear:   %+v\ncompiled: %+v", iter, base, lin.logs, idx.logs)
			}
			for pid, p := range lin.procs {
				if !reflect.DeepEqual(p.ps.Dict, idx.procs[pid].ps.Dict) {
					t.Fatalf("iter %d cfg %+v pid %d: STATE dict diverged: %v vs %v",
						iter, base, pid, p.ps.Dict, idx.procs[pid].ps.Dict)
				}
			}
		}
	}
	if pairs < 1000 {
		t.Fatalf("only %d ruleset/request pairs exercised, want >= 1000", pairs)
	}
}

// --- targeted compiled-dispatch tests ----------------------------------

// TestCompiledFirstMatchOrder pins the order-preserving merge: an
// exact-SID bucket rule installed after a wildcard rule must not overtake it.
func TestCompiledFirstMatchOrder(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Config{})
	httpd := sid(pol, "httpd_t")
	wild := &Rule{Ops: NewOpSet(OpFileOpen), Target: Accept()} // no subject: wildcard bucket
	exact := &Rule{Subject: NewSIDSet(false, httpd), Ops: NewOpSet(OpFileOpen), Target: Drop()}
	if err := e.Append("input", wild); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("input", exact); err != nil {
		t.Fatal(err)
	}
	proc := newFakeProc(1, httpd, "/usr/bin/apache2")
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "tmp_t")}}); v != VerdictAccept {
		t.Fatalf("wildcard ACCEPT installed first must win, got %v", v)
	}
	if wild.Hits.Load() != 1 || exact.Hits.Load() != 0 {
		t.Fatalf("hits wild=%d exact=%d, want 1/0", wild.Hits.Load(), exact.Hits.Load())
	}

	// Insert a drop at the head: it now precedes the accept.
	head := &Rule{Subject: NewSIDSet(false, httpd), Ops: NewOpSet(OpFileOpen), Target: Drop()}
	if err := e.Insert("input", head); err != nil {
		t.Fatal(err)
	}
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "tmp_t")}}); v != VerdictDrop {
		t.Fatalf("inserted head DROP must win after recompile, got %v", v)
	}
}

// TestCompiledJumpFallback pins the jump and return edges: a jump rule
// reached through the index must dispatch its user chain and then resume
// with the rules after the jump.
func TestCompiledJumpFallback(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Config{})
	if err := e.NewChain("side"); err != nil {
		t.Fatal(err)
	}
	httpd := sid(pol, "httpd_t")
	mustAppend := func(chain string, r *Rule) {
		t.Helper()
		if err := e.Append(chain, r); err != nil {
			t.Fatal(err)
		}
	}
	// side chain: RETURN for httpd_t, so traversal resumes in input.
	mustAppend("side", &Rule{Subject: NewSIDSet(false, httpd), Target: &ReturnTarget{}})
	mustAppend("side", &Rule{Target: Drop()})
	mustAppend("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: &JumpTarget{ChainName: "side"}})
	after := &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}
	mustAppend("input", after)

	proc := newFakeProc(1, httpd, "/usr/bin/apache2")
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "tmp_t")}}); v != VerdictDrop {
		t.Fatalf("RETURN from side chain must fall through to the post-jump DROP, got %v", v)
	}
	if after.Hits.Load() != 1 {
		t.Fatalf("post-jump rule hits = %d, want 1", after.Hits.Load())
	}

	other := newFakeProc(2, sid(pol, "user_t"), "/bin/sh")
	if v := e.Filter(&Request{Proc: other, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "tmp_t")}}); v != VerdictDrop {
		t.Fatalf("non-httpd subject must hit the side chain's DROP, got %v", v)
	}
}

// TestRemoveRecomputesDerivedState is the satellite regression test: after
// the last entrypoint rule is removed, the engine must stop unwinding
// stacks (mayMatchEpt) and non-lazy mode must stop collecting context for
// rules that no longer exist.
func TestRemoveRecomputesDerivedState(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	r := entryRule(pol, Drop())
	if err := e.Append("input", r); err != nil {
		t.Fatal(err)
	}
	rs := e.rs.Load()
	if !rs.hasEptRules || !rs.eptPrograms["/lib/ld-2.15.so"] {
		t.Fatal("setup: entrypoint rule not indexed")
	}

	if err := e.Remove("input", func(x *Rule) bool { return x == r }); err != nil {
		t.Fatal(err)
	}
	rs = e.rs.Load()
	if rs.hasEptRules {
		t.Error("hasEptRules still set after removing the only entrypoint rule")
	}
	if len(rs.eptPrograms) != 0 {
		t.Errorf("eptPrograms = %v, want empty", rs.eptPrograms)
	}
	if rs.allNeeds != 0 {
		t.Errorf("allNeeds = %v, want 0", rs.allNeeds)
	}

	// With a remaining plain rule, allNeeds must shrink to that rule's
	// needs rather than keeping the removed LOG/entrypoint demands.
	logRule := entryRule(pol, &LogTarget{})
	plain := &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}
	if err := e.Append("input", logRule); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("input", plain); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove("input", func(x *Rule) bool { return x == logRule }); err != nil {
		t.Fatal(err)
	}
	rs = e.rs.Load()
	if rs.allNeeds != plain.needs() {
		t.Errorf("allNeeds = %v, want %v (the surviving rule's needs)", rs.allNeeds, plain.needs())
	}
	if rs.hasEptRules {
		t.Error("hasEptRules still set")
	}
}

// TestMayMatchEptMemo verifies the memoized pre-filter: the address-space
// walk happens once per (mapping generation, ruleset generation) and is
// invalidated by both mmap and rule updates.
func TestMayMatchEptMemo(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	if err := e.Append("input", entryRule(pol, Drop())); err != nil {
		t.Fatal(err)
	}
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	rs := e.rs.Load()

	if mayMatchEpt(rs, proc) {
		t.Fatal("no relevant mapping yet")
	}
	if !proc.ps.eptMemoValid || proc.ps.eptMemoMayMatch {
		t.Fatal("memo not recorded")
	}

	// Mapping the rule's program bumps the generation and flips the answer.
	setupLdSo(t, proc)
	if !mayMatchEpt(rs, proc) {
		t.Fatal("mapping ld.so must invalidate the memo and match")
	}

	// A rule update (removing the entrypoint rule) bumps the ruleset
	// generation; the memo must not serve the stale positive.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}); err != nil {
		t.Fatal(err)
	}
	rs = e.rs.Load()
	if mayMatchEpt(rs, proc) {
		t.Fatal("stale memo served after ruleset change")
	}
}

// TestFilterSurvivesMissingMangleChain pins the satellite nil-guard: a
// snapshot without the mangle chain must not panic the hot path.
func TestFilterSurvivesMissingMangleChain(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}); err != nil {
		t.Fatal(err)
	}
	e.writeMu.Lock()
	rs := e.rs.Load().clone()
	delete(rs.chains, "mangle/input")
	rs.compile()
	e.rs.Store(rs)
	e.writeMu.Unlock()

	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	if v := e.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "tmp_t")}}); v != VerdictDrop {
		t.Fatalf("verdict = %v, want DROP", v)
	}
}
