package pf

import (
	"reflect"
	"testing"

	"pfirewall/internal/mac"
	"pfirewall/internal/ustack"
)

// --- zero-context path -------------------------------------------------
//
// With lazy retrieval on, Batch.Filter accepts a request that no rule can
// match before it builds an evaluation context (provablyAccepts). That exit
// may shrink the work counters and nothing else: the differential below
// runs every lazy configuration against the linear oracle over rule bases
// built to sit at the exit's edges — syscallbegin rules with and without an
// arg-0 guard, jumps from guarded rules, mangle/input rules, entry-keyed
// input and syscallbegin rules with single ops and with empty op sets — and
// over native and interpreter processes whose syscall numbers vary, with a
// delta publish, a full publish and a rollback mid-stream.

// Syscall numbers the generated guards name; nrUnguarded is named by none.
var provableNRs = []int{15, 39, 2}

const nrUnguarded = 60

// genProvableSpec draws one rule for the provable-accept differential:
// genRuleSpec's predicates, reshaped so the exit's three summaries (the
// candidate index, the arg-0 guard and the entrypoint op masks) each see
// rules on both sides of their line.
func genProvableSpec(rng *diffRNG, pol *mac.Policy, userChains []string) *ruleSpec {
	chains := []string{"input", "input", "syscallbegin", "syscallbegin", "mangle/input", "u0", "u1"}
	s := genRuleSpec(rng, pol, chains, userChains, false)
	if s.chain == "u0" || s.chain == "u1" {
		return genRuleSpec(rng, pol, []string{s.chain}, userChains, true)
	}
	if s.chain == "syscallbegin" {
		switch rng.intn(3) {
		case 0:
			s.ops = 0
		case 1:
			s.ops = NewOpSet(OpSyscallBegin)
		}
		if rng.intn(3) != 0 {
			nr := uint64(provableNRs[rng.intn(len(provableNRs))])
			s.match = func() Match { return &SyscallArgsMatch{Arg: 0, Equal: nr} }
		}
	}
	if s.chain != "mangle/input" && rng.intn(4) == 0 {
		// Entry-keyed: the ld.so frame native processes carry, or the
		// script frame interpreter processes carry.
		s.program, s.entry, s.entrySet = "/lib/ld-2.15.so", 0x596b, true
		if rng.intn(2) == 0 {
			s.program, s.entry = "gcal.php", 57
		}
		if rng.intn(2) == 0 {
			s.ops = 0
		}
	}
	return s
}

// provableProc returns d's process pid, creating it on first use: a native
// process with (ldso) or without the ld.so entrypoint frame, or a PHP
// interpreter process running gcal.php:57.
func (d *diffEngine) provableProc(t *testing.T, pid int, s mac.SID, ldso, interp bool) *fakeProc {
	if p, ok := d.procs[pid]; ok {
		return p
	}
	p := d.proc(t, pid, s, ldso)
	if interp {
		m := p.as.Map("/usr/bin/php5", 0)
		if err := p.stack.Call(m.Base + 0x10); err != nil {
			t.Fatal(err)
		}
		p.lang, p.head = ustack.LangPHP, 3000
		st := ustack.NewInterpState(ustack.LangPHP, p.mem, 3000, 900)
		st.Push("index.php", 3)
		st.Push("gcal.php", 57)
	}
	return p
}

func TestProvableAcceptDifferential(t *testing.T) {
	pol := testPolicy()
	configs := []Config{
		{LazyCtx: true},
		{CtxCache: true, LazyCtx: true},
		{LazyCtx: true, EptChains: true},
		Optimized(),
	}
	subjects := []mac.Label{"httpd_t", "user_t", "sshd_t", "shadow_t"}
	objects := []mac.Label{"tmp_t", "lib_t", "etc_t", "shadow_t"}
	ops := []Op{OpFileOpen, OpFileRead, OpDirSearch, OpSocketBind, OpSocketSend, OpSyscallBegin, OpSyscallBegin, OpInvalid}
	nrs := append([]int{nrUnguarded}, provableNRs...)
	userChains := []string{"u0", "u1"}

	// Mid-stream control-plane steps.
	const (
		stepFilter = iota
		stepDelta
		stepFull
		stepRollback
	)
	type reqStep struct {
		kind         int
		pid          int
		subj         mac.SID
		ldso, interp bool
		op           Op
		nr           int
		objSID       mac.SID
		objID        uint64
		noObj        bool
		specs        []*ruleSpec // rules a delta or full publish adds
		remove       int         // index in diffEngine.rules of the rule a full publish removes, or -1
	}

	const iterations = 200
	exits, walks := make([]int, len(configs)), make([]int, len(configs))
	for iter := 0; iter < iterations; iter++ {
		rng := &diffRNG{s: uint64(iter)*0x9e3779b97f4a7c15 + 7}
		specs := make([]*ruleSpec, 0, 16)
		for n := 2 + rng.intn(12); len(specs) < n; {
			specs = append(specs, genProvableSpec(rng, pol, userChains))
		}
		nReqs := 40 + rng.intn(20)
		steps := make([]reqStep, 0, nReqs+3)
		all := len(specs) // specs the script has installed so far
		for i := 0; i < nReqs; i++ {
			switch i {
			case nReqs / 4:
				st := reqStep{kind: stepDelta, remove: -1}
				for k := 1 + rng.intn(3); k > 0; k-- {
					st.specs = append(st.specs, genProvableSpec(rng, pol, userChains))
				}
				all += len(st.specs)
				steps = append(steps, st)
			case nReqs / 2:
				st := reqStep{kind: stepFull, remove: rng.intn(all)}
				st.specs = []*ruleSpec{genProvableSpec(rng, pol, userChains)}
				all++
				steps = append(steps, st)
			case 3 * nReqs / 4:
				steps = append(steps, reqStep{kind: stepRollback})
			}
			pid := 1 + rng.intn(4)
			steps = append(steps, reqStep{
				kind:   stepFilter,
				pid:    pid,
				subj:   sid(pol, subjects[(pid+iter)%len(subjects)]),
				ldso:   pid%2 == 1,
				interp: pid == 4,
				op:     ops[rng.intn(len(ops))],
				nr:     nrs[rng.intn(len(nrs))],
				objSID: sid(pol, objects[rng.intn(len(objects))]),
				objID:  uint64(rng.intn(4)),
				noObj:  rng.intn(6) == 0,
			})
		}

		for ci, cfg := range configs {
			lin := newDiffEngine(t, pol, cfg, specs, userChains)
			idx := newDiffEngine(t, pol, cfg, specs, userChains)
			var tally struct{ requests, accepts, drops uint64 }
			routed := map[string]uint64{}

			for si, st := range steps {
				switch st.kind {
				case stepDelta, stepFull:
					for _, d := range []*diffEngine{lin, idx} {
						d.e.fullRecompile = st.kind == stepFull
						err := d.e.Transaction(func(tx *Tx) error {
							if st.remove >= 0 {
								victim := d.rules[st.remove]
								if _, err := tx.RemoveAll(chainOf(tx, victim), func(r *Rule) bool { return r == victim }); err != nil {
									return err
								}
							}
							for _, s := range st.specs {
								r := s.build()
								d.rules = append(d.rules, r)
								if err := tx.Append(s.chain, r); err != nil {
									return err
								}
							}
							return nil
						})
						d.e.fullRecompile = false
						if err != nil {
							t.Fatal(err)
						}
					}
					continue
				case stepRollback:
					for _, d := range []*diffEngine{lin, idx} {
						if _, err := d.e.Rollback(); err != nil {
							t.Fatal(err)
						}
					}
					continue
				}

				var vLin, vIdx Verdict
				var entered []string
				for _, d := range []*diffEngine{lin, idx} {
					p := d.provableProc(t, st.pid, st.subj, st.ldso, st.interp)
					p.ps.BeginSyscall()
					req := &Request{Proc: p, Op: st.op, SyscallNR: st.nr}
					if !st.noObj {
						req.Obj = &fakeRes{sid: st.objSID, id: st.objID}
					}
					if d == lin {
						vLin, entered = linearRoute(d.e, req)
						continue
					}
					slot := slotInput
					if st.op == OpSyscallBegin {
						slot = slotSyscallBegin
					}
					rs := d.e.rs.Load()
					exit := rs.totalRules > 0 && rs.provablyAccepts(slot, req)
					work := [3]uint64{d.e.Stats.RulesEvaluated.Load(), d.e.Stats.CtxCollections.Load(), d.e.Stats.CtxCacheHits.Load()}
					vIdx = d.e.Filter(req)
					if exit {
						exits[ci]++
						after := [3]uint64{d.e.Stats.RulesEvaluated.Load(), d.e.Stats.CtxCollections.Load(), d.e.Stats.CtxCacheHits.Load()}
						if after != work {
							t.Fatalf("iter %d cfg %+v step %d: provable accept did work: rules/collections/cache hits %v -> %v", iter, cfg, si, work, after)
						}
					} else {
						walks[ci]++
					}
				}
				if vLin != vIdx {
					t.Fatalf("iter %d cfg %+v step %d: linear=%v compiled=%v\nstep: %+v", iter, cfg, si, vLin, vIdx, st)
				}
				tally.requests++
				if vLin == VerdictDrop {
					tally.drops++
				} else {
					tally.accepts++
				}
				for _, name := range entered {
					routed[name]++
				}
			}

			for ri := range lin.rules {
				if h1, h2 := lin.rules[ri].Hits.Load(), idx.rules[ri].Hits.Load(); h1 != h2 {
					t.Fatalf("iter %d cfg %+v rule %d (%s): hits linear=%d compiled=%d",
						iter, cfg, ri, lin.rules[ri].String(pol.SIDs()), h1, h2)
				}
			}
			if !reflect.DeepEqual(lin.logs, idx.logs) {
				t.Fatalf("iter %d cfg %+v: LOG emissions differ\nlinear:   %+v\ncompiled: %+v", iter, cfg, lin.logs, idx.logs)
			}
			for pid, p := range lin.procs {
				if !reflect.DeepEqual(p.ps.Dict, idx.procs[pid].ps.Dict) {
					t.Fatalf("iter %d cfg %+v pid %d: STATE dict diverged: %v vs %v",
						iter, cfg, pid, p.ps.Dict, idx.procs[pid].ps.Dict)
				}
			}
			st := &idx.e.Stats
			if got := [3]uint64{st.Requests.Load(), st.Accepts.Load(), st.Drops.Load()}; got != [3]uint64{tally.requests, tally.accepts, tally.drops} {
				t.Fatalf("iter %d cfg %+v: requests/accepts/drops = %v, oracle tallied %d/%d/%d",
					iter, cfg, got, tally.requests, tally.accepts, tally.drops)
			}
			for _, name := range builtinChains {
				c, _ := idx.e.Chain(name)
				if got := c.Traversals.Load(); got != routed[name] {
					t.Fatalf("iter %d cfg %+v: chain %s traversals = %d, oracle routed %d requests to it",
						iter, cfg, name, got, routed[name])
				}
			}
		}
	}
	for ci, cfg := range configs {
		// Both sides of the exit must be exercised, or the differential
		// proves nothing about it.
		if exits[ci] < 1000 || walks[ci] < 1000 {
			t.Errorf("cfg %+v: %d provable accepts and %d walks, want >= 1000 of each", cfg, exits[ci], walks[ci])
		}
	}
}

// chainOf names the chain of tx's view that holds r.
func chainOf(tx *Tx, r *Rule) string {
	for _, name := range tx.Chains() {
		c, _ := tx.Chain(name)
		for _, cr := range c.Rules {
			if cr == r {
				return name
			}
		}
	}
	return "input"
}
