package pf

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pfirewall/internal/mac"
)

// --- incremental-vs-full differential -----------------------------------
//
// The incremental publish path (Program.patch) must be observationally
// identical to a from-scratch compile AND to linear traversal over
// arbitrary mutation histories: appends, head inserts, removals,
// replace-by-position, multi-rule transactions, flushes, and rollbacks.
// Three twin engines — decided by the linear oracle (oracle_test.go), by a
// from-scratch compile on every publish, and incrementally — replay one
// shared mutation/request script; every verdict and every mutation error
// must agree, or first-match semantics drifted somewhere in the bucket
// surgery.

type mutEngine struct {
	name  string
	e     *Engine
	procs map[int]*fakeProc
}

func newMutEngine(t *testing.T, name string, pol *mac.Policy, cfg Config, userChains []string) *mutEngine {
	t.Helper()
	m := &mutEngine{name: name, e: New(pol, cfg), procs: make(map[int]*fakeProc)}
	for _, uc := range userChains {
		if err := m.e.NewChain(uc); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func (m *mutEngine) proc(t *testing.T, pid int, s mac.SID, ldso bool) *fakeProc {
	if p, ok := m.procs[pid]; ok {
		return p
	}
	p := newFakeProc(pid, s, "/usr/bin/prog")
	if ldso {
		setupLdSo(t, p)
	}
	m.procs[pid] = p
	return p
}

func TestIncrementalPublishDifferential(t *testing.T) {
	pol := testPolicy()
	subjects := []mac.Label{"httpd_t", "user_t", "sshd_t", "shadow_t"}
	objects := []mac.Label{"tmp_t", "lib_t", "etc_t", "shadow_t"}
	ops := []Op{OpFileOpen, OpFileRead, OpFileWrite, OpLnkFileRead, OpDirSearch, OpSocketBind, OpSyscallBegin}
	chains := []string{"input", "input", "syscallbegin", "mangle/input", "u0"}
	userChains := []string{"u0"}

	baseConfigs := []Config{
		{CtxCache: true, LazyCtx: true},
		{CtxCache: true, LazyCtx: true, EptChains: true},
	}

	const iterations = 120
	for iter := 0; iter < iterations; iter++ {
		rng := &diffRNG{s: uint64(iter)*0x9e3779b9 + 7}
		// User-chain rules must not jump (a u0 rule jumping to u0 would
		// cycle); regenerate those specs in no-jump mode.
		genSpec := func(candChains []string) *ruleSpec {
			s := genRuleSpec(rng, pol, candChains, userChains, false)
			if s.chain == "u0" {
				s = genRuleSpec(rng, pol, []string{s.chain}, userChains, true)
			}
			return s
		}
		for _, base := range baseConfigs {
			engines := []*mutEngine{
				newMutEngine(t, "linear", pol, base, userChains),
				newMutEngine(t, "full", pol, base, userChains),
				newMutEngine(t, "incremental", pol, base, userChains),
			}
			engines[1].e.fullRecompile = true

			// installed tracks, per engine, the same logical rule at the
			// same slot, so pointer-removals target equivalents everywhere.
			installed := make([][]*Rule, len(engines))
			instChain := []string{}

			// sameOutcome asserts the three engines agreed on success/failure
			// (rollbacks can legitimately fail a mutation — e.g. rolling
			// back past a NewChain — but must do so on every engine).
			sameOutcome := func(step int, what string, errs [3]error) bool {
				if (errs[0] == nil) != (errs[1] == nil) || (errs[0] == nil) != (errs[2] == nil) {
					t.Fatalf("iter %d step %d: %s errors diverge: %v / %v / %v", iter, step, what, errs[0], errs[1], errs[2])
				}
				return errs[0] == nil
			}

			install := func(step int, s *ruleSpec) {
				var errs [3]error
				rules := make([]*Rule, len(engines))
				for ei, m := range engines {
					r := s.build()
					if s.front {
						errs[ei] = m.e.Insert(s.chain, r)
					} else {
						errs[ei] = m.e.Append(s.chain, r)
					}
					rules[ei] = r
				}
				if sameOutcome(step, "install", errs) {
					for ei := range engines {
						installed[ei] = append(installed[ei], rules[ei])
					}
					instChain = append(instChain, s.chain)
				}
			}

			nSteps := 40 + rng.intn(30)
			for step := 0; step < nSteps; step++ {
				switch op := rng.intn(10); {
				case op < 4: // plain install
					install(step, genSpec(chains))

				case op < 6 && len(instChain) > 0: // pointer removal
					k := rng.intn(len(instChain))
					var errs [3]error
					for ei, m := range engines {
						victim := installed[ei][k]
						errs[ei] = m.e.Remove(instChain[k], func(r *Rule) bool { return r == victim })
					}
					sameOutcome(step, "remove", errs)

				case op == 6: // replace-by-position in a built-in chain
					name := builtinChains[rng.intn(len(builtinChains))]
					c, _ := engines[0].e.Chain(name)
					if c == nil || len(c.Rules) == 0 {
						continue
					}
					pos := rng.intn(len(c.Rules))
					s := genSpec([]string{name})
					var errs [3]error
					for ei, m := range engines {
						errs[ei] = m.e.Transaction(func(tx *Tx) error { return tx.ReplaceAt(name, pos, s.build()) })
					}
					sameOutcome(step, "replace", errs)

				case op == 7: // batched transaction: a wave of installs + a tag drain
					n := 2 + rng.intn(4)
					specs := make([]*ruleSpec, n)
					for i := range specs {
						specs[i] = genSpec(chains)
					}
					var errs [3]error
					for ei, m := range engines {
						errs[ei] = m.e.Transaction(func(tx *Tx) error {
							for _, s := range specs {
								r := s.build()
								r.Src = Pos{File: "<wave>", Line: step}
								if err := tx.Append(s.chain, r); err != nil {
									return err
								}
							}
							for _, ch := range []string{"input", "syscallbegin", "mangle/input"} {
								if _, err := tx.RemoveAll(ch, func(r *Rule) bool {
									return r.Src.File == "<wave>" && r.Src.Line < step-2
								}); err != nil {
									return err
								}
							}
							return nil
						})
					}
					sameOutcome(step, "wave tx", errs)

				case op == 8 && rng.intn(3) == 0: // rollback (all engines in lockstep)
					var errs [3]error
					for ei, m := range engines {
						_, errs[ei] = m.e.Rollback()
					}
					sameOutcome(step, "rollback", errs)

				case op == 9 && rng.intn(8) == 0: // rare flush
					for _, m := range engines {
						if err := m.e.Flush(); err != nil {
							t.Fatalf("iter %d %s: flush: %v", iter, m.name, err)
						}
					}
				}

				// A burst of requests after every mutation.
				for q := 0; q < 3; q++ {
					pid := 1 + rng.intn(3)
					subj := sid(pol, subjects[rng.intn(len(subjects))])
					ldso := rng.intn(2) == 0
					reqOp := ops[rng.intn(len(ops))]
					objSID := sid(pol, objects[rng.intn(len(objects))])
					objID := uint64(rng.intn(4))
					var verdicts [3]Verdict
					for ei, m := range engines {
						p := m.proc(t, pid, subj, ldso)
						p.ps.BeginSyscall()
						req := &Request{Proc: p, Op: reqOp, Obj: &fakeRes{sid: objSID, id: objID}}
						if ei == 0 {
							verdicts[ei] = linearFilter(m.e, req)
						} else {
							verdicts[ei] = m.e.Filter(req)
						}
					}
					if verdicts[0] != verdicts[1] || verdicts[0] != verdicts[2] {
						t.Fatalf("iter %d step %d: verdicts diverge: linear=%v full=%v incremental=%v",
							iter, step, verdicts[0], verdicts[1], verdicts[2])
					}
				}

				// Structural parity: same rule counts everywhere.
				if a, b, c := engines[0].e.RuleCount(), engines[1].e.RuleCount(), engines[2].e.RuleCount(); a != b || a != c {
					t.Fatalf("iter %d step %d: rule counts diverge: %d/%d/%d", iter, step, a, b, c)
				}
			}

			// The incremental engine must actually have taken the delta path.
			if iter == 0 {
				if st := engines[2].e.PublishStats(); st.DeltaCompiles == 0 {
					t.Fatalf("incremental engine never delta-compiled: %+v", st)
				}
			}
		}
	}
}

// --- satellite: one publish per transaction -----------------------------

// TestTransactionSingleRecompile pins the batching contract: however many
// rules a transaction touches, the engine publishes (and recompiles or
// patches) exactly once, bumping the snapshot generation exactly once — so
// per-process caches keyed on the generation are invalidated once per batch,
// not once per rule.
func TestTransactionSingleRecompile(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	httpd := sid(pol, "httpd_t")

	gen0 := e.Generation()
	ver0 := e.Version()
	st0 := e.PublishStats()

	var batch []*Rule
	err := e.Transaction(func(tx *Tx) error {
		for i := 0; i < 32; i++ {
			r := &Rule{Subject: NewSIDSet(false, httpd), Ops: NewOpSet(OpFileOpen), Target: Drop()}
			if err := tx.Append("input", r); err != nil {
				return err
			}
			batch = append(batch, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Generation() - gen0; got != 1 {
		t.Fatalf("32-rule install bumped generation %d times, want 1", got)
	}
	if got := e.Version() - ver0; got != 1 {
		t.Fatalf("32-rule install bumped version %d times, want 1", got)
	}
	st := e.PublishStats()
	if got := st.Publishes - st0.Publishes; got != 1 {
		t.Fatalf("32-rule install published %d times, want 1", got)
	}
	if got := st.FullCompiles - st0.FullCompiles; got != 0 {
		t.Fatalf("32-rule install full-compiled %d times, want 0 (delta path)", got)
	}

	// Batched removal: one generation bump for the whole drain.
	gen1 := e.Generation()
	st1 := e.PublishStats()
	err = e.Transaction(func(tx *Tx) error {
		n, err := tx.RemoveAll("input", func(r *Rule) bool { return true })
		if err != nil {
			return err
		}
		if n != len(batch) {
			return fmt.Errorf("drained %d rules, want %d", n, len(batch))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Generation() - gen1; got != 1 {
		t.Fatalf("32-rule removal bumped generation %d times, want 1", got)
	}
	if got := e.PublishStats().Publishes - st1.Publishes; got != 1 {
		t.Fatalf("32-rule removal published %d times, want 1", got)
	}

	// Contrast: per-rule Engine.Remove is one publish per rule — the shape
	// the transaction API exists to avoid.
	for i := 0; i < 4; i++ {
		if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}); err != nil {
			t.Fatal(err)
		}
	}
	gen2 := e.Generation()
	for i := 0; i < 4; i++ {
		if err := e.Remove("input", func(r *Rule) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Generation() - gen2; got != 4 {
		t.Fatalf("4 single removes bumped generation %d times, want 4", got)
	}
}

// TestIncrementalPublishTakesDeltaPath verifies the publish-path selection:
// small installs and removals patch the previous program; Flush rebuilds
// from scratch; a rollback re-exposes a snapshot whose order keys agree
// with its own program, so the publish after it patches again.
func TestIncrementalPublishTakesDeltaPath(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	httpd := sid(pol, "httpd_t")

	r := &Rule{Subject: NewSIDSet(false, httpd), Ops: NewOpSet(OpFileOpen), Target: Drop()}
	if err := e.Append("input", r); err != nil {
		t.Fatal(err)
	}
	if st := e.PublishStats(); st.DeltaCompiles != 1 || st.FullCompiles != 0 {
		t.Fatalf("after one append: %+v, want 1 delta / 0 full", st)
	}
	if err := e.Remove("input", func(x *Rule) bool { return x == r }); err != nil {
		t.Fatal(err)
	}
	if st := e.PublishStats(); st.DeltaCompiles != 2 || st.FullCompiles != 0 {
		t.Fatalf("after remove: %+v, want 2 delta / 0 full", st)
	}

	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := e.PublishStats(); st.FullCompiles != 1 {
		t.Fatalf("after flush: %+v, want 1 full compile", st)
	}

	// The order keys live in each snapshot's chains, so the restored
	// snapshot patches like any other.
	if _, err := e.Rollback(); err != nil {
		t.Fatal(err)
	}
	st := e.PublishStats()
	if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}); err != nil {
		t.Fatal(err)
	}
	if got := e.PublishStats(); got.FullCompiles != 1 || got.Rollbacks != 1 || got.DeltaCompiles != st.DeltaCompiles+1 {
		t.Fatalf("after rollback+append: %+v, want 1 full / 1 rollback / one more delta than %+v", got, st)
	}

	// The test hook rebuilds every publish from scratch.
	e.fullRecompile = true
	if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}); err != nil {
		t.Fatal(err)
	}
	if got := e.PublishStats().FullCompiles; got != 2 {
		t.Fatalf("fullRecompile publish: %+v, want 2 full compiles", e.PublishStats())
	}
}

// TestRollbackRestoresVerdicts pins the rollback contract: the restored
// snapshot enforces immediately and identically to when it was current.
func TestRollbackRestoresVerdicts(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	httpd := sid(pol, "httpd_t")
	proc := newFakeProc(1, httpd, "/usr/bin/apache2")
	req := func() *Request {
		return &Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "tmp_t")}}
	}

	if err := e.Append("input", &Rule{Subject: NewSIDSet(false, httpd), Ops: NewOpSet(OpFileOpen), Target: Accept()}); err != nil {
		t.Fatal(err)
	}
	verAccept := e.Version()
	if v := e.Filter(req()); v != VerdictAccept {
		t.Fatalf("baseline verdict = %v, want ACCEPT", v)
	}

	// A bad deploy: head-insert a drop.
	if err := e.Insert("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}); err != nil {
		t.Fatal(err)
	}
	if v := e.Filter(req()); v != VerdictDrop {
		t.Fatalf("post-deploy verdict = %v, want DROP", v)
	}

	ver, err := e.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if ver != verAccept || e.Version() != verAccept {
		t.Fatalf("rollback restored version %d (current %d), want %d", ver, e.Version(), verAccept)
	}
	if v := e.Filter(req()); v != VerdictAccept {
		t.Fatalf("post-rollback verdict = %v, want ACCEPT", v)
	}
	if e.RuleCount() != 1 {
		t.Fatalf("post-rollback rule count = %d, want 1", e.RuleCount())
	}

	// The rollback window is bounded: drain it and the next Rollback fails.
	for {
		if _, err := e.Rollback(); err != nil {
			break
		}
	}
	if _, err := e.Rollback(); err == nil {
		t.Fatal("rollback past the history window must fail")
	}
}

// TestOrdGapExhaustion pins that replace-by-position can never exhaust the
// order-key gap: a replacement inherits the key of the rule it replaces
// instead of taking a midpoint between its neighbors, so replacing the same
// interior slot any number of times stays on the delta path and keeps
// first-match order.
func TestOrdGapExhaustion(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	proc := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
	// lib_t DROP (never matches), the slot under test, tmp_t DROP (matches).
	for _, obj := range []mac.Label{"lib_t", "lib_t", "tmp_t"} {
		if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Object: NewSIDSet(false, sid(pol, obj)), Target: Drop()}); err != nil {
			t.Fatal(err)
		}
	}
	st0 := e.PublishStats()
	for i := 0; i < 64; i++ {
		// Alternate the middle rule between an ACCEPT matching the request
		// and one that does not: the verdict alternates with it only if the
		// replacement keeps its slot ahead of the trailing DROP.
		obj := sid(pol, "tmp_t")
		want := VerdictAccept
		if i%2 == 1 {
			obj, want = sid(pol, "etc_t"), VerdictDrop
		}
		err := e.Transaction(func(tx *Tx) error {
			return tx.ReplaceAt("input", 1, &Rule{Ops: NewOpSet(OpFileOpen), Object: NewSIDSet(false, obj), Target: Accept()})
		})
		if err != nil {
			t.Fatal(err)
		}
		req := &Request{Proc: proc, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "tmp_t")}}
		if v := e.Filter(req); v != want {
			t.Fatalf("replacement %d: verdict = %v, want %v", i, v, want)
		}
	}
	if st := e.PublishStats(); st.FullCompiles != st0.FullCompiles || st.DeltaCompiles != st0.DeltaCompiles+64 {
		t.Fatalf("interior replacements left the delta path: %+v (before %+v)", st, st0)
	}
}

// --- satellite: -race stress over publishes, rollbacks, mediation -------

// TestPublishRollbackMediationStress interleaves incremental publishes,
// rollbacks, and batched mediation across goroutines. Run under -race this
// checks the COW ownership rules (shared snapshots are never written); the
// accounting check asserts verdict conservation — every request issued
// during live updates got exactly one Accept or Drop, none lost or blocked.
func TestPublishRollbackMediationStress(t *testing.T) {
	pol := testPolicy()
	e := New(pol, Optimized())
	httpd := sid(pol, "httpd_t")
	tmp := sid(pol, "tmp_t")

	// A stable floor rule so verdicts stay meaningful mid-churn.
	if err := e.Append("input", &Rule{Ops: NewOpSet(OpFileOpen), Object: NewSIDSet(false, sid(pol, "shadow_t")), Target: Drop()}); err != nil {
		t.Fatal(err)
	}

	const (
		readers  = 4
		duration = 300 * time.Millisecond
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: churn waves through transactions, with replaces and rollbacks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := &diffRNG{s: 0xfeed}
		cycle := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			cycle++
			tag := fmt.Sprintf("<wave-%d>", cycle)
			err := e.Transaction(func(tx *Tx) error {
				for i := 0; i < 8; i++ {
					r := &Rule{
						Subject: NewSIDSet(false, httpd),
						Ops:     NewOpSet(OpFileOpen),
						Target:  Accept(),
						Src:     Pos{File: tag, Line: i},
					}
					if rng.intn(4) == 0 {
						r.Target = Drop()
					}
					if err := tx.Append("input", r); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if rng.intn(8) == 0 {
				if _, err := e.Rollback(); err != nil {
					t.Error(err)
					return
				}
			}
			// Drain this wave's survivors (a rollback may already have
			// unpublished them; zero removals is fine).
			err = e.Transaction(func(tx *Tx) error {
				_, err := tx.RemoveAll("input", func(r *Rule) bool { return r.Src.File == tag })
				return err
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var issued [readers]uint64
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			proc := newFakeProc(100+g, httpd, "/usr/bin/apache2")
			res := &fakeRes{sid: tmp, id: uint64(g)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				proc.ps.BeginSyscall()
				var b Batch
				e.StartBatch(&b, proc)
				for i := 0; i < 4; i++ {
					v := b.Filter(&Request{Proc: proc, Op: OpFileOpen, Obj: res})
					if v != VerdictAccept && v != VerdictDrop {
						t.Errorf("reader %d: verdict %v is neither accept nor drop", g, v)
						b.Finish()
						return
					}
					issued[g]++
				}
				b.Finish()
			}
		}(g)
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	var total uint64
	for _, n := range issued {
		total += n
	}
	req := e.Stats.Requests.Load()
	acc := e.Stats.Accepts.Load()
	drp := e.Stats.Drops.Load()
	if req != acc+drp {
		t.Fatalf("verdicts not conserved: requests=%d accepts=%d drops=%d", req, acc, drp)
	}
	if req != total {
		t.Fatalf("engine saw %d requests, readers issued %d", req, total)
	}
	st := e.PublishStats()
	if st.DeltaCompiles == 0 || st.Publishes < 10 {
		t.Fatalf("stress exercised too little of the publish path: %+v", st)
	}
	t.Logf("stress: %d requests, %d publishes (%d delta, %d full, %d rollbacks)",
		req, st.Publishes, st.DeltaCompiles, st.FullCompiles, st.Rollbacks)
}

// --- one decision program: regression tests -----------------------------

// TestReplaceAtKeepsEntrypointListOrder pins the replace-by-position drift:
// a replaced entrypoint rule must keep its list position inside its
// entrypoint key, ahead of the rules after it. The bucket holds a
// non-matching DROP, the slot under test (replaced by a matching DROP) and a
// matching ACCEPT; the program must agree with the linear oracle (DROP).
func TestReplaceAtKeepsEntrypointListOrder(t *testing.T) {
	pol := testPolicy()
	tmp := sid(pol, "tmp_t")
	build := func() *Engine {
		e := New(pol, Optimized())
		// One entrypoint key: a DROP that misses the etc_t request, the slot
		// under test, and an ACCEPT that matches it.
		rules := []*Rule{entryRule(pol, Drop()), entryRule(pol, Accept()), entryRule(pol, Accept())}
		rules[0].Object = NewSIDSet(false, tmp)
		rules[1].Object = NewSIDSet(false, tmp)
		rules[2].Object = nil
		for _, r := range rules {
			if err := e.Append("input", r); err != nil {
				t.Fatal(err)
			}
		}
		err := e.Transaction(func(tx *Tx) error { return tx.ReplaceAt("input", 1, entryRule(pol, Drop())) })
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e, oracle := build(), build()
	req := func() *Request {
		p := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
		setupLdSo(t, p)
		return &Request{Proc: p, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "etc_t")}}
	}
	want := linearFilter(oracle, req())
	if want != VerdictDrop {
		t.Fatalf("oracle verdict = %v, want DROP (the replaced slot precedes the ACCEPT)", want)
	}
	if got := e.Filter(req()); got != want {
		t.Fatalf("program verdict = %v, oracle = %v", got, want)
	}
}

// TestVetoedCompileLeavesNoTrace pins that compiling before the gate leaks
// nothing into the live snapshot: a vetoed bulk batch (a full compile of
// the candidate) followed by a one-rule delta must stay verdict-identical to
// a twin that never saw the vetoed batch.
func TestVetoedCompileLeavesNoTrace(t *testing.T) {
	pol := testPolicy()
	httpd, tmp := sid(pol, "httpd_t"), sid(pol, "tmp_t")
	base := func(e *Engine) {
		for i := 0; i < 6; i++ {
			r := &Rule{Subject: NewSIDSet(false, httpd), Ops: NewOpSet(OpFileOpen), Object: NewSIDSet(false, sid(pol, "lib_t")), Target: Drop()}
			if i == 3 {
				r = &Rule{Ops: NewOpSet(OpFileOpen), Object: NewSIDSet(false, tmp), Target: Accept()}
			}
			if err := e.Append("input", r); err != nil {
				t.Fatal(err)
			}
		}
	}
	e, twin := New(pol, Optimized()), New(pol, Optimized())
	base(e)
	base(twin)

	veto := fmt.Errorf("vetoed")
	err := e.TransactionGated(func(tx *Tx) error {
		for i := 0; i < bulkDeltaMax+8; i++ {
			if err := tx.Insert("input", &Rule{Ops: NewOpSet(OpFileOpen), Target: Drop()}); err != nil {
				return err
			}
		}
		return nil
	}, func(p *Program) error {
		if p.RuleCount() != 6+bulkDeltaMax+8 {
			t.Errorf("gate saw %d rules, want the candidate's %d", p.RuleCount(), 6+bulkDeltaMax+8)
		}
		return veto
	})
	if err != veto {
		t.Fatalf("gated transaction: %v, want the veto", err)
	}

	// One head-inserted DROP on the live snapshot of each: a delta publish.
	for _, x := range []*Engine{e, twin} {
		st0 := x.PublishStats()
		if err := x.Insert("input", &Rule{Subject: NewSIDSet(false, httpd), Ops: NewOpSet(OpFileOpen), Object: NewSIDSet(false, sid(pol, "etc_t")), Target: Drop()}); err != nil {
			t.Fatal(err)
		}
		if st := x.PublishStats(); st.DeltaCompiles != st0.DeltaCompiles+1 {
			t.Fatalf("one-rule insert did not patch: %+v", st)
		}
	}
	for _, obj := range []mac.Label{"tmp_t", "etc_t", "lib_t", "shadow_t"} {
		for _, subj := range []mac.Label{"httpd_t", "user_t"} {
			mk := func() *Request {
				return &Request{Proc: newFakeProc(1, sid(pol, subj), "/x"), Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, obj)}}
			}
			if got, want := e.Filter(mk()), twin.Filter(mk()); got != want {
				t.Fatalf("%s on %s: vetoed engine %v, twin %v", subj, obj, got, want)
			}
			if got, want := e.Filter(mk()), linearFilter(e, mk()); got != want {
				t.Fatalf("%s on %s: program %v, oracle %v", subj, obj, got, want)
			}
		}
	}
}

// TestJumpIntoBuiltinChainRejected pins that a jump target must be a user
// chain, on install and on replace-by-position.
func TestJumpIntoBuiltinChainRejected(t *testing.T) {
	e := New(testPolicy(), Optimized())
	if err := e.NewChain("u0"); err != nil {
		t.Fatal(err)
	}
	if err := e.Append("u0", &Rule{Target: Drop()}); err != nil {
		t.Fatal(err)
	}
	for _, tgt := range builtinChains {
		j := &Rule{Target: &JumpTarget{ChainName: tgt}}
		if err := e.Append("mangle/input", j); err == nil {
			t.Errorf("append of a jump to %q accepted", tgt)
		}
		if err := e.Insert("u0", j); err == nil {
			t.Errorf("insert of a jump to %q accepted", tgt)
		}
		if err := e.Transaction(func(tx *Tx) error { return tx.ReplaceAt("u0", 0, j) }); err == nil {
			t.Errorf("replace with a jump to %q accepted", tgt)
		}
	}
	if err := e.Append("input", &Rule{Target: &JumpTarget{ChainName: "u0"}}); err != nil {
		t.Fatalf("jump to a user chain rejected: %v", err)
	}
	if got := e.RuleCount(); got != 2 {
		t.Fatalf("rule count = %d, want 2 (rejected rules must not land)", got)
	}
}

// TestTxRejectsJumpCycle: a commit that closes a jump cycle — by install,
// by replace-by-position, or by a chain jumping to itself — is refused with
// the cycle named, and nothing it staged is published; a jump that closes
// no cycle still commits.
func TestTxRejectsJumpCycle(t *testing.T) {
	e := New(testPolicy(), Optimized())
	jump := func(to string) *Rule { return &Rule{Target: &JumpTarget{ChainName: to}} }
	if err := e.Transaction(func(tx *Tx) error {
		for _, n := range []string{"ca", "cb", "cc"} {
			if err := tx.NewChain(n); err != nil {
				return err
			}
		}
		if err := tx.Append("input", jump("ca")); err != nil {
			return err
		}
		if err := tx.Append("ca", jump("cb")); err != nil {
			return err
		}
		return tx.Append("cb", &Rule{Target: Drop()})
	}); err != nil {
		t.Fatal(err)
	}
	v, rules := e.Version(), e.RuleCount()
	for _, tc := range []struct {
		name  string
		fn    func(*Tx) error
		cycle string
	}{
		{"append", func(tx *Tx) error { return tx.Append("cb", jump("ca")) }, "ca -> cb -> ca"},
		{"self", func(tx *Tx) error { return tx.Insert("cc", jump("cc")) }, "cc -> cc"},
		{"replace", func(tx *Tx) error { return tx.ReplaceAt("cb", 0, jump("ca")) }, "ca -> cb -> ca"},
		{"through a new chain", func(tx *Tx) error {
			if err := tx.NewChain("cd"); err != nil {
				return err
			}
			if err := tx.Append("cb", jump("cd")); err != nil {
				return err
			}
			return tx.Append("cd", jump("ca"))
		}, "ca -> cb -> cd -> ca"},
	} {
		err := e.Transaction(tc.fn)
		if err == nil || !strings.Contains(err.Error(), "jump cycle: "+tc.cycle) {
			t.Errorf("%s: commit error %v, want one naming the cycle %s", tc.name, err, tc.cycle)
		}
		if e.Version() != v || e.RuleCount() != rules {
			t.Fatalf("%s: refused commit published: version %d -> %d, rules %d -> %d", tc.name, v, e.Version(), rules, e.RuleCount())
		}
	}
	if err := e.Append("cc", jump("ca")); err != nil {
		t.Fatalf("a jump closing no cycle was refused: %v", err)
	}
}

// TestEntrypointScanEdges pins the entrypoint scan's control edges: a jump
// from an entrypoint rule walks its target and resumes the scan with the
// key's next rule, and RETURN from an entrypoint rule is ignored. The
// program must agree with the linear oracle on both.
func TestEntrypointScanEdges(t *testing.T) {
	pol := testPolicy()
	build := func(first Target) *Engine {
		e := New(pol, Optimized())
		if err := e.NewChain("u0"); err != nil {
			t.Fatal(err)
		}
		if err := e.Append("u0", &Rule{Target: &LogTarget{Prefix: "u0"}}); err != nil {
			t.Fatal(err)
		}
		for _, tg := range []Target{first, Drop()} {
			if err := e.Append("input", entryRule(pol, tg)); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	for _, first := range []func() Target{
		func() Target { return &JumpTarget{ChainName: "u0"} },
		func() Target { return &ReturnTarget{} },
	} {
		e, oracle := build(first()), build(first())
		req := func() *Request {
			p := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
			setupLdSo(t, p)
			return &Request{Proc: p, Op: OpFileOpen, Obj: &fakeRes{sid: sid(pol, "etc_t")}}
		}
		got, want := e.Filter(req()), linearFilter(oracle, req())
		if got != VerdictDrop || want != VerdictDrop {
			t.Fatalf("%s first: program %v, oracle %v; want DROP from the key's second rule",
				first().TargetName(), got, want)
		}
	}
}
