package pfverify

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
)

// The gate memo tests run two invariant sets whose scopes move with every
// input of the memo key: the web_* glob with new labels, trusted and
// untrusted with MarkTrusted, adv-write with Allow, and every verdict with
// the live program.
const (
	gateInvsA = `
invariant web-no-secret {
    require DROP
    op FILE_OPEN
    subject web_*
    object secret_t
}
invariant trusted-no-tmp {
    require DROP
    op FILE_WRITE
    subject trusted
    object tmp_t
}
invariant app-adv-write {
    require DROP
    op FILE_OPEN
    subject app_t
    object any
    adv-write yes
}
`
	gateInvsB = `
invariant untrusted-no-log {
    require DROP
    op FILE_WRITE
    subject untrusted
    object log_t
}
invariant app-open-not-adv-write {
    require ACCEPT
    op FILE_OPEN
    subject app_t
    object any
    adv-write no
}
invariant web-no-secret {
    require DROP
    op FILE_OPEN
    subject web_*
    object secret_t
}
`
)

// The label pools are small so that most random rules and MAC edits land
// inside some invariant's scope.
var (
	gateSubjects = []mac.Label{"web_a", "app_t", "cron_t", "user_t", "httpd_t"}
	gateObjects  = []mac.Label{"secret_t", "tmp_t", "log_t"}
)

// gateWorld is an engine armed with a memoizing gate. apply runs every
// gated publish through the gate and a from-scratch Refines side by side.
type gateWorld struct {
	t      *testing.T
	rng    *rand.Rand
	pol    *mac.Policy
	tbl    *mac.SIDTable
	e      *pf.Engine
	sets   [2][]*Invariant
	active int
	g      *gate
	fresh  int // next new web_* label
	steps  int
}

func newGateWorld(t *testing.T, seed int64) *gateWorld {
	t.Helper()
	pol := mac.NewPolicy(mac.NewSIDTable())
	pol.MarkTrusted("httpd_t")
	pol.Allow("user_t", "tmp_t", mac.ClassFile, mac.PermWrite)
	pol.Allow("httpd_t", "www_t", mac.ClassFile, mac.PermRead)
	tbl := pol.SIDs()
	// Intern every label up front, so only the new-label step grows the
	// table.
	for _, l := range append(append([]mac.Label(nil), gateSubjects...), gateObjects...) {
		tbl.SID(l)
	}
	w := &gateWorld{t: t, rng: rand.New(rand.NewSource(seed)), pol: pol, tbl: tbl, e: pf.New(pol, pf.Optimized())}
	for i, src := range []string{gateInvsA, gateInvsB} {
		invs, err := ParseInvariants("gate.inv", src)
		if err != nil {
			t.Fatal(err)
		}
		w.sets[i] = invs
	}
	base := []*pf.Rule{
		w.rule("web_a", "secret_t", pf.OpFileOpen, pf.VerdictDrop),
		w.rule("httpd_t", "tmp_t", pf.OpFileWrite, pf.VerdictDrop),
		w.rule("app_t", "tmp_t", pf.OpFileOpen, pf.VerdictDrop),
		{
			Subject: pf.NewSIDSet(true, tbl.SID("httpd_t")),
			Object:  pf.NewSIDSet(false, tbl.SID("log_t")),
			Ops:     pf.NewOpSet(pf.OpFileWrite),
			Target:  pf.Drop(),
		},
	}
	if err := w.e.Transaction(func(tx *pf.Tx) error {
		for _, r := range base {
			if err := tx.Append("input", r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	w.g = &gate{e: w.e, tbl: tbl, invs: w.sets[0]}
	return w
}

func (w *gateWorld) rule(subj, obj mac.Label, op pf.Op, v pf.Verdict) *pf.Rule {
	tgt := pf.Drop()
	if v == pf.VerdictAccept {
		tgt = pf.Accept()
	}
	return &pf.Rule{
		Subject: pf.NewSIDSet(false, w.tbl.SID(subj)),
		Object:  pf.NewSIDSet(false, w.tbl.SID(obj)),
		Ops:     pf.NewOpSet(op),
		Target:  tgt,
	}
}

// randRule draws a rule over the label pools and the invariant ops.
func (w *gateWorld) randRule(v pf.Verdict) *pf.Rule {
	ops := []pf.Op{pf.OpFileOpen, pf.OpFileWrite}
	return w.rule(gateSubjects[w.rng.Intn(len(gateSubjects))], gateObjects[w.rng.Intn(len(gateObjects))],
		ops[w.rng.Intn(len(ops))], v)
}

func isAccept(r *pf.Rule) bool {
	t, ok := r.Target.(*pf.VerdictTarget)
	return ok && t.V == pf.VerdictAccept
}

// apply publishes fn's batch through the gate and requires the gate's
// verdict and regressions to equal a from-scratch Refines of the live
// program against the candidate, and an accepted candidate to be the
// program the engine publishes.
func (w *gateWorld) apply(what string, fn func(*pf.Tx) error) error {
	w.t.Helper()
	w.steps++
	var cand *pf.Program
	err := w.e.TransactionGated(fn, func(prog *pf.Program) error {
		cand = prog
		want := Refines(FromEngine(w.e), FromProgram(w.pol, prog), w.tbl, w.g.invs)
		err := w.g.check(prog)
		var got []Regression
		var ref *RefinementError
		if errors.As(err, &ref) {
			got = ref.Regressions
		} else if err != nil {
			w.t.Fatalf("step %d (%s): gate failed: %v", w.steps, what, err)
		}
		if !reflect.DeepEqual(got, want) {
			w.t.Fatalf("step %d (%s): gate regressions %v, from scratch %v", w.steps, what, names(got), names(want))
		}
		return err
	})
	if err == nil && cand != nil && w.e.Program() != cand {
		w.t.Fatalf("step %d (%s): the engine published a program the gate never saw", w.steps, what)
	}
	return err
}

func names(regs []Regression) []string {
	var out []string
	for _, r := range regs {
		out = append(out, r.Invariant)
	}
	return out
}

// step draws one of the operations a gated engine lives through.
func (w *gateWorld) step() {
	switch w.rng.Intn(10) {
	case 0, 1: // holding (or repairing) apply
		w.apply("drop", func(tx *pf.Tx) error { return tx.Append("input", w.randRule(pf.VerdictDrop)) })
	case 2, 3: // weakening apply, vetoed while what it breaks holds
		w.apply("accept", func(tx *pf.Tx) error { return tx.Insert("input", w.randRule(pf.VerdictAccept)) })
	case 4: // repairing apply
		w.apply("repair", func(tx *pf.Tx) error {
			_, err := tx.RemoveAll("input", isAccept)
			return err
		})
	case 5:
		w.e.Rollback() // an empty history is a no-op here
	case 6: // ungated publish, weakening or repairing
		weaken := w.rng.Intn(2) == 0
		if err := w.e.Transaction(func(tx *pf.Tx) error {
			if weaken {
				return tx.Insert("input", w.randRule(pf.VerdictAccept))
			}
			_, err := tx.RemoveAll("input", isAccept)
			return err
		}); err != nil {
			w.t.Fatal(err)
		}
	case 7: // MAC edit: an adversary gains write access, or a label joins SYSHIGH
		subj := gateSubjects[w.rng.Intn(len(gateSubjects))]
		if w.rng.Intn(2) == 0 {
			w.pol.Allow(subj, gateObjects[w.rng.Intn(len(gateObjects))], mac.ClassFile, mac.PermWrite)
		} else {
			w.pol.MarkTrusted(subj)
		}
	case 8: // a batch interning a new label the web_* glob matches
		lbl := mac.Label(fmt.Sprintf("web_n%d", w.fresh))
		w.fresh++
		guard := w.rng.Intn(2) == 0
		w.apply("label", func(tx *pf.Tx) error {
			if guard {
				if err := tx.Append("input", w.rule(lbl, "secret_t", pf.OpFileOpen, pf.VerdictDrop)); err != nil {
					return err
				}
			}
			return tx.Append("input", w.rule(lbl, "tmp_t", pf.OpFileRead, pf.VerdictDrop))
		})
	case 9: // SetInvariants swap: a fresh gate over the other set
		w.active = 1 - w.active
		w.g = &gate{e: w.e, tbl: w.tbl, invs: w.sets[w.active]}
	}
}

// TestGateMemoMatchesRefines drives gated engines through seeded sequences
// of holding, weakening and repairing applies, rollbacks, ungated
// publishes, MAC edits, new labels and invariant-set swaps, and requires
// the memoizing gate to agree with a from-scratch Refines at every gated
// step.
func TestGateMemoMatchesRefines(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		w := newGateWorld(t, seed)
		for i := 0; i < 150; i++ {
			w.step()
		}
	}
}

// TestGateSweepsOncePerApply: under wave/drain churn the gate sweeps only
// the candidate, because the program it accepted is the one published; a
// rollback costs one extra sweep of the restored program.
func TestGateSweepsOncePerApply(t *testing.T) {
	w := newGateWorld(t, 1)
	const cycles = 10
	for i := 0; i < cycles; i++ {
		var wave []*pf.Rule
		for j := 0; j < 16; j++ {
			wave = append(wave, w.randRule(pf.VerdictDrop))
		}
		if err := w.apply("wave", func(tx *pf.Tx) error {
			for _, r := range wave {
				if err := tx.Append("input", r); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.apply("drain", func(tx *pf.Tx) error {
			_, err := tx.RemoveAll("input", func(r *pf.Rule) bool {
				for _, x := range wave {
					if r == x {
						return true
					}
				}
				return false
			})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The first apply also proves the base.
	if want := 2*cycles + 1; w.g.sweeps != want {
		t.Fatalf("%d applies swept %d programs, want %d", 2*cycles, w.g.sweeps, want)
	}
	if _, err := w.e.Rollback(); err != nil {
		t.Fatal(err)
	}
	before := w.g.sweeps
	if err := w.apply("after-rollback", func(tx *pf.Tx) error {
		return tx.Append("input", w.randRule(pf.VerdictDrop))
	}); err != nil {
		t.Fatal(err)
	}
	if got := w.g.sweeps - before; got != 2 {
		t.Fatalf("apply after a rollback swept %d programs, want 2", got)
	}
}

// TestGateConcurrentUse: the memo is shared by every caller of one gate.
// Goroutines gating the live program race with MAC edits that bump the
// adversary epoch (so the memo is rewritten) without moving any verdict.
func TestGateConcurrentUse(t *testing.T) {
	w := newGateWorld(t, 1)
	gate := Gate(w.e, w.tbl, w.sets[0])
	prog := w.e.Program()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if err := gate(prog); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for j := 0; j < 8; j++ {
		w.pol.Allow("user_t", "secret_t", mac.ClassFile, mac.PermRead)
	}
	wg.Wait()
}
