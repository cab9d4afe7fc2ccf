package pf

import (
	"testing"
)

// findUnreach returns the analysis entry for (chain, index), if any.
func findUnreach(an *RulesetAnalysis, chain string, index int) (Unreachable, bool) {
	for _, u := range an.Unreachable {
		if u.Chain == chain && u.Index == index {
			return u, true
		}
	}
	return Unreachable{}, false
}

func TestCoversFields(t *testing.T) {
	pol := testPolicy()
	httpd, user := sid(pol, "httpd_t"), sid(pol, "user_t")
	tmp := sid(pol, "tmp_t")

	cases := []struct {
		name string
		a, b *Rule
		want bool
	}{
		{"any covers exact", &Rule{}, &Rule{Subject: NewSIDSet(false, httpd)}, true},
		{"exact superset covers subset",
			&Rule{Subject: NewSIDSet(false, httpd, user)},
			&Rule{Subject: NewSIDSet(false, httpd)}, true},
		{"exact does not cover wider",
			&Rule{Subject: NewSIDSet(false, httpd)},
			&Rule{Subject: NewSIDSet(false, httpd, user)}, false},
		{"exact never covers nil subject",
			&Rule{Subject: NewSIDSet(false, httpd)}, &Rule{}, false},
		{"negated covers disjoint exact",
			&Rule{Subject: NewSIDSet(true, user)},
			&Rule{Subject: NewSIDSet(false, httpd)}, true},
		{"negated does not cover overlapping exact",
			&Rule{Subject: NewSIDSet(true, httpd)},
			&Rule{Subject: NewSIDSet(false, httpd, user)}, false},
		{"negated subset covers negated superset",
			&Rule{Subject: NewSIDSet(true, httpd)},
			&Rule{Subject: NewSIDSet(true, httpd, user)}, true},
		{"negated superset does not cover negated subset",
			&Rule{Subject: NewSIDSet(true, httpd, user)},
			&Rule{Subject: NewSIDSet(true, httpd)}, false},
		{"exact never covers negated (open SID space)",
			&Rule{Subject: NewSIDSet(false, httpd, user, tmp)},
			&Rule{Subject: NewSIDSet(true, httpd)}, false},
		{"negated empty subject covers nil",
			&Rule{Subject: NewSIDSet(true)}, &Rule{}, true},
		{"object set never covers nil object (nil-obj requests)",
			&Rule{Object: NewSIDSet(true)}, &Rule{}, false},
		{"nil object covers object set",
			&Rule{}, &Rule{Object: NewSIDSet(false, tmp)}, true},
		{"empty ops cover all", &Rule{}, &Rule{Ops: NewOpSet(OpFileOpen)}, true},
		{"op superset covers subset",
			&Rule{Ops: NewOpSet(OpFileOpen, OpFileRead)},
			&Rule{Ops: NewOpSet(OpFileOpen)}, true},
		{"op subset does not cover superset",
			&Rule{Ops: NewOpSet(OpFileOpen)},
			&Rule{Ops: NewOpSet(OpFileOpen, OpFileRead)}, false},
		{"nonempty ops do not cover empty mask",
			&Rule{Ops: NewOpSet(OpFileOpen)}, &Rule{}, false},
		{"unset resid covers set", &Rule{}, &Rule{ResID: 7, ResIDSet: true}, true},
		{"set resid does not cover unset", &Rule{ResID: 7, ResIDSet: true}, &Rule{}, false},
		{"equal resid covers", &Rule{ResID: 7, ResIDSet: true}, &Rule{ResID: 7, ResIDSet: true}, true},
		{"different resid does not cover", &Rule{ResID: 7, ResIDSet: true}, &Rule{ResID: 8, ResIDSet: true}, false},
		{"no program covers program", &Rule{}, &Rule{Program: "/bin/sh"}, true},
		{"program-only covers same program-only",
			&Rule{Program: "/bin/sh"}, &Rule{Program: "/bin/sh"}, true},
		{"program-only does not cover entrypoint rule (ExecPath vs stack frame)",
			&Rule{Program: "/bin/sh"},
			&Rule{Program: "/bin/sh", Entry: 0x10, EntrySet: true}, false},
		{"entrypoint rule does not cover program-only",
			&Rule{Program: "/bin/sh", Entry: 0x10, EntrySet: true},
			&Rule{Program: "/bin/sh"}, false},
		{"identical entrypoint covers",
			&Rule{Program: "/bin/sh", Entry: 0x10, EntrySet: true},
			&Rule{Program: "/bin/sh", Entry: 0x10, EntrySet: true}, true},
		{"different offset does not cover",
			&Rule{Program: "/bin/sh", Entry: 0x10, EntrySet: true},
			&Rule{Program: "/bin/sh", Entry: 0x20, EntrySet: true}, false},
		{"no matches cover any matches",
			&Rule{}, &Rule{Matches: []Match{&StateMatch{Key: 1, Cmp: Literal(2)}}}, true},
		{"identical match covers",
			&Rule{Matches: []Match{&StateMatch{Key: 1, Cmp: Literal(2)}}},
			&Rule{Matches: []Match{&StateMatch{Key: 1, Cmp: Literal(2)}}}, true},
		{"extra match in shadower does not cover",
			&Rule{Matches: []Match{&StateMatch{Key: 1, Cmp: Literal(2)}}},
			&Rule{}, false},
		{"different match args do not cover",
			&Rule{Matches: []Match{&StateMatch{Key: 1, Cmp: Literal(2)}}},
			&Rule{Matches: []Match{&StateMatch{Key: 1, Cmp: Literal(3)}}}, false},
	}
	for _, tc := range cases {
		if got := covers(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: covers = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestAnalyzeShadowing(t *testing.T) {
	pol := testPolicy()
	httpd := sid(pol, "httpd_t")
	e := New(pol, Optimized())

	broad := &Rule{Subject: NewSIDSet(false, httpd), Target: Accept()}
	narrowConflict := &Rule{Subject: NewSIDSet(false, httpd), Ops: NewOpSet(OpFileOpen), Target: Drop()}
	narrowRedundant := &Rule{Subject: NewSIDSet(false, httpd), Ops: NewOpSet(OpFileRead), Target: Accept()}
	other := &Rule{Ops: NewOpSet(OpFileWrite), Target: Drop()}
	for _, r := range []*Rule{broad, narrowConflict, narrowRedundant, other} {
		if err := e.Append("input", r); err != nil {
			t.Fatal(err)
		}
	}

	an := e.Analyze()
	u, ok := findUnreach(an, "input", 1)
	if !ok || u.Kind != UnreachShadowed || u.ByIndex != 0 || u.SameVerdict {
		t.Errorf("conflicting shadow not found or wrong: %+v (ok=%v)", u, ok)
	}
	u, ok = findUnreach(an, "input", 2)
	if !ok || u.Kind != UnreachShadowed || !u.SameVerdict {
		t.Errorf("redundant shadow not found or wrong: %+v (ok=%v)", u, ok)
	}
	if _, ok := findUnreach(an, "input", 3); ok {
		t.Error("uncovered rule reported unreachable")
	}
	// The wildcard-subject rule is not covered by the httpd-only accept.
	if got := len(an.Unreachable); got != 2 {
		t.Errorf("unreachable count = %d, want 2: %+v", got, an.Unreachable)
	}
}

func TestAnalyzeStateStalenessGuard(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	st := func() Match { return &StateMatch{Key: 1, Cmp: Literal(1)} }

	// shadower with a STATE match, an intervening STATE target, then an
	// identical rule: the dictionary may have changed, no shadow claim.
	a := &Rule{Matches: []Match{st()}, Target: Drop()}
	setter := &Rule{Ops: NewOpSet(OpFileWrite), Target: &StateTarget{Key: 1, Val: Literal(1)}}
	b := &Rule{Matches: []Match{st()}, Target: Drop()}
	for _, r := range []*Rule{a, setter, b} {
		if err := e.Append("input", r); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := findUnreach(e.Analyze(), "input", 2); ok {
		t.Error("STATE-matched rule claimed shadowed across an intervening STATE target")
	}

	// Without the intervening mutation the claim is sound.
	e2 := New(pol, Optimized())
	for _, r := range []*Rule{
		{Matches: []Match{st()}, Target: Drop()},
		{Matches: []Match{st()}, Target: Drop()},
	} {
		if err := e2.Append("input", r); err != nil {
			t.Fatal(err)
		}
	}
	if u, ok := findUnreach(e2.Analyze(), "input", 1); !ok || u.Kind != UnreachShadowed {
		t.Errorf("clean STATE shadow not claimed: %+v (ok=%v)", u, ok)
	}
}

func TestAnalyzeReturnDoesNotShadowEntrypointRules(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	ret := &Rule{Target: &ReturnTarget{}}
	ept := &Rule{Program: "/lib/ld-2.15.so", Entry: 0x596b, EntrySet: true, Target: Drop()}
	plain := &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}
	for _, r := range []*Rule{ret, ept, plain} {
		if err := e.Append("input", r); err != nil {
			t.Fatal(err)
		}
	}
	an := e.Analyze()
	if _, ok := findUnreach(an, "input", 1); ok {
		t.Error("RETURN claimed to shadow an entrypoint rule (ept scan ignores RETURN)")
	}
	// The generic rule after the base-chain RETURN is legitimately dead.
	if u, ok := findUnreach(an, "input", 2); !ok || u.Kind != UnreachShadowed || u.ByIndex != 0 {
		t.Errorf("generic rule after RETURN not claimed: %+v (ok=%v)", u, ok)
	}
}

func TestAnalyzeOpContext(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	if err := e.NewChain("uc"); err != nil {
		t.Fatal(err)
	}
	// A FILE_OPEN rule in syscallbegin can never match: that chain only
	// sees SYSCALL_BEGIN.
	misrouted := &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}
	if err := e.Append("syscallbegin", misrouted); err != nil {
		t.Fatal(err)
	}
	// uc is reached only through a FILE_OPEN-restricted jump, so its
	// SOCKET_BIND rule is dead while its FILE_OPEN rule lives.
	if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: &JumpTarget{ChainName: "uc"}}); err != nil {
		t.Fatal(err)
	}
	dead := &Rule{Ops: NewOpSet(OpSocketBind), Target: Drop()}
	live := &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}
	if err := e.Append("uc", dead); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("uc", live); err != nil {
		t.Fatal(err)
	}

	an := e.Analyze()
	if u, ok := findUnreach(an, "syscallbegin", 0); !ok || u.Kind != UnreachOpContext {
		t.Errorf("misrouted syscallbegin rule: %+v (ok=%v)", u, ok)
	}
	if u, ok := findUnreach(an, "uc", 0); !ok || u.Kind != UnreachOpContext {
		t.Errorf("op-context through jump edge: %+v (ok=%v)", u, ok)
	}
	if _, ok := findUnreach(an, "uc", 1); ok {
		t.Error("live user-chain rule reported dead")
	}
	if got := an.OpContext["uc"]; got != NewOpSet(OpFileOpen) {
		t.Errorf("uc op context = %b, want FILE_OPEN only", got)
	}
}

func TestAnalyzeDeadChainAndEmptySets(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	if err := e.NewChain("orphan"); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("orphan", &Rule{Target: Drop()}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("input", &Rule{Subject: NewSIDSet(false), Target: Drop()}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("input", &Rule{Object: NewSIDSet(false), Target: Drop()}); err != nil {
		t.Fatal(err)
	}

	an := e.Analyze()
	if len(an.DeadChains) != 1 || an.DeadChains[0] != "orphan" {
		t.Errorf("dead chains = %v, want [orphan]", an.DeadChains)
	}
	if u, ok := findUnreach(an, "orphan", 0); !ok || u.Kind != UnreachDeadChain {
		t.Errorf("orphan rule: %+v (ok=%v)", u, ok)
	}
	if u, ok := findUnreach(an, "input", 0); !ok || u.Kind != UnreachEmptySubject {
		t.Errorf("empty subject: %+v (ok=%v)", u, ok)
	}
	if u, ok := findUnreach(an, "input", 1); !ok || u.Kind != UnreachEmptyObject {
		t.Errorf("empty object: %+v (ok=%v)", u, ok)
	}
}

func TestAnalyzeJumpCycle(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	for _, n := range []string{"c0", "c1"} {
		if err := e.NewChain(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Append("input", &Rule{Target: &JumpTarget{ChainName: "c0"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("c0", &Rule{Target: &JumpTarget{ChainName: "c1"}}); err != nil {
		t.Fatal(err)
	}
	// The engine refuses to publish the cycle; analyze the candidate the
	// gate sees.
	var cand *Program
	if err := e.TransactionGated(func(tx *Tx) error {
		return tx.Append("c1", &Rule{Target: &JumpTarget{ChainName: "c0"}})
	}, func(p *Program) error { cand = p; return nil }); err == nil {
		t.Fatal("a jump cycle was published")
	}
	an := AnalyzeChains(cand.Chains())
	if len(an.Cycles) != 1 || len(an.Cycles[0]) != 2 {
		t.Fatalf("cycles = %v, want one 2-chain cycle", an.Cycles)
	}
}

// TestAnalyzeStandardRulesClean pins that the analyzer is quiet on a
// realistic hand-written base: no rule of the engine's own differential
// fixtures is falsely condemned (the full property check lives in
// compile_test.go).
func TestAnalyzeEmptyEngine(t *testing.T) {
	an := New(testPolicy(), Optimized()).Analyze()
	if len(an.Unreachable) != 0 || len(an.DeadChains) != 0 || len(an.Cycles) != 0 {
		t.Errorf("empty engine produced findings: %+v", an)
	}
	if an.OpContext["input"] == 0 || an.OpContext["syscallbegin"] == 0 {
		t.Error("builtin chains must have nonzero op context")
	}
}
