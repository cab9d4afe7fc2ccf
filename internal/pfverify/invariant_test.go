package pfverify

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
	"pfirewall/internal/programs"
	"pfirewall/internal/worldgen"
)

// --- DSL ------------------------------------------------------------------

func TestParseInvariantsDSL(t *testing.T) {
	src := `
# comment
invariant full {
    require ACCEPT
    op FILE_OPEN LNK_FILE_READ
    subject !scl_* !tenant*
    object trusted
    entry /lib/ld-2.15.so:0x596b /usr/bin/apache2:0x41a20
    program /usr/bin/apache2
    adv-write yes
    adv-read no
    owner-diff yes
    cross-prefix 8
    sockns abstract
    port 80-443
    peer-uid 33
}
invariant minimal {
    op SOCKET_BIND  # trailing comment
}
`
	invs, err := ParseInvariants("t.inv", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 2 {
		t.Fatalf("got %d invariants, want 2", len(invs))
	}
	f := invs[0]
	if f.Name != "full" || f.Require != pf.VerdictAccept {
		t.Errorf("name/require wrong: %+v", f)
	}
	if len(f.Ops) != 2 || f.Ops[0] != pf.OpFileOpen || f.Ops[1] != pf.OpLnkFileRead {
		t.Errorf("ops wrong: %v", f.Ops)
	}
	if !f.Subject.Negate || len(f.Subject.Globs) != 2 {
		t.Errorf("subject scope wrong: %+v", f.Subject)
	}
	if !f.Object.Trusted {
		t.Errorf("object scope wrong: %+v", f.Object)
	}
	if len(f.Entries) != 2 || f.Entries[0] != (pf.Entrypoint{Path: "/lib/ld-2.15.so", Off: 0x596b}) {
		t.Errorf("entries wrong: %v", f.Entries)
	}
	if f.Program != "/usr/bin/apache2" || f.AdvWrite != optYes || f.AdvRead != optNo ||
		f.OwnerDiff != optYes || f.CrossPrefix != 8 || f.SockNS != "abstract" ||
		!f.HasPort || f.PortMin != 80 || f.PortMax != 443 || !f.HasPeer || f.PeerUID != 33 {
		t.Errorf("directives wrong: %+v", f)
	}
	if f.Pos.Line != 3 {
		t.Errorf("position wrong: %v", f.Pos)
	}
	m := invs[1]
	if m.Name != "minimal" || m.Require != pf.VerdictDrop || len(m.Ops) != 1 {
		t.Errorf("minimal block wrong: %+v", m)
	}

	for _, bad := range []string{
		"invariant x {\n}",               // no op
		"invariant x {\nop NOT_AN_OP\n}", // unknown op
		"invariant x {\nop FILE_OPEN\nrequire MAYBE\n}",
		"invariant x {\nop FILE_OPEN\nfrobnicate yes\n}",
		"invariant x {\nop FILE_OPEN\n", // unclosed
		"op FILE_OPEN\n",                // directive outside block
		"invariant x {\nop FILE_OPEN\nentry noColon\n}",
	} {
		if _, err := ParseInvariants("t.inv", bad); err == nil {
			t.Errorf("ParseInvariants accepted %q", bad)
		}
	}
}

// FuzzParseInvariants: the .inv parser never panics, and every invariant
// it accepts sweeps at least one op and requires ACCEPT or DROP. The seed
// corpus (testdata/fuzz) holds the shipped .inv files and the worldgen
// invariants.
func FuzzParseInvariants(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		invs, err := ParseInvariants("fuzz.inv", src)
		if err != nil {
			return
		}
		for _, inv := range invs {
			if len(inv.Ops) == 0 {
				t.Fatalf("invariant %q accepted with no op", inv.Name)
			}
			if inv.Require != pf.VerdictAccept && inv.Require != pf.VerdictDrop {
				t.Fatalf("invariant %q accepted with require %v", inv.Name, inv.Require)
			}
		}
	})
}

func TestMatchGlob(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"tenant??_home_t", "tenant00_home_t", true},
		{"tenant??_home_t", "tenant0_home_t", false},
		{"scl_*", "scl_obj03_t", true},
		{"scl_*", "lib_t", false},
		{"*_t", "lib_t", true},
		{"lib_t", "lib_t", true},
		{"lib_t", "lib_tt", false},
	}
	for _, c := range cases {
		if got := matchGlob(c.pat, c.s); got != c.want {
			t.Errorf("matchGlob(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

// --- helpers --------------------------------------------------------------

func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
}

func loadInvariants(t *testing.T, path string) []*Invariant {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	invs, err := ParseInvariants(path, string(b))
	if err != nil {
		t.Fatal(err)
	}
	return invs
}

// worldWith builds a standard world and installs the given ruleset lines.
func worldWith(t *testing.T, lines []string) *programs.World {
	t.Helper()
	cfg := pf.Optimized()
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
	if _, err := w.InstallRules(lines); err != nil {
		t.Fatal(err)
	}
	return w
}

func resultFor(t *testing.T, rep *Report, name string) *InvariantResult {
	t.Helper()
	for i := range rep.Results {
		if rep.Results[i].Invariant.Name == name {
			return &rep.Results[i]
		}
	}
	t.Fatalf("no result for invariant %q", name)
	return nil
}

// firstDefinite returns the first definite violation of the named invariant.
func firstDefinite(t *testing.T, rep *Report, name string) *Violation {
	t.Helper()
	res := resultFor(t, rep, name)
	for i := range res.Violations {
		if res.Violations[i].Definite {
			return &res.Violations[i]
		}
	}
	t.Fatalf("invariant %q has no definite violation (count=%d)", name, res.ViolationCount)
	return nil
}

// --- proofs over the shipped rulesets -------------------------------------

func TestStandardInvariantsHold(t *testing.T) {
	w := worldWith(t, programs.StandardRules())
	invs := loadInvariants(t, "../../examples/rules/standard.inv")
	rep := Check(FromEngine(w.Engine), w.Env.Policy.SIDs(), invs)
	if rep.Points == 0 {
		t.Fatal("sweep covered no points")
	}
	for _, res := range rep.Results {
		if !res.Holds || !res.Definitely {
			t.Errorf("invariant %s violated on the standard ruleset: %d violations, e.g. %v",
				res.Invariant.Name, res.ViolationCount, res.Violations)
		}
	}
}

func TestWebserverInvariantsHold(t *testing.T) {
	w := worldWith(t, readLines(t, "../../examples/rules/webserver.pft"))
	invs := loadInvariants(t, "../../examples/rules/webserver.inv")
	rep := Check(FromEngine(w.Engine), w.Env.Policy.SIDs(), invs)
	for _, res := range rep.Results {
		if !res.Holds || !res.Definitely {
			t.Errorf("invariant %s violated on the webserver ruleset: %d violations, e.g. %v",
				res.Invariant.Name, res.ViolationCount, res.Violations)
		}
	}
}

func TestWorldgenTenantInvariantHolds(t *testing.T) {
	cfg := pf.Optimized()
	gw := worldgen.Build(worldgen.Tiny, programs.WorldOpts{PF: &cfg})
	invs, err := ParseInvariants("<worldgen>", worldgen.Invariants())
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(FromEngine(gw.World.Engine), gw.World.Env.Policy.SIDs(), invs)
	res := resultFor(t, rep, "tenant-home-no-serve")
	if !res.Holds || !res.Definitely {
		t.Fatalf("tenant invariant violated on the intact worldgen ruleset: %v", res.Violations)
	}
	if res.Points < worldgen.Tiny.Tenants {
		t.Fatalf("sweep too small: %d points for %d tenants", res.Points, worldgen.Tiny.Tenants)
	}
}

// --- seeded violations, each with an in-world-replaying witness -----------

// Seeded violation 1: drop R1 — the dynamic linker loses its library guard.
func TestSeededViolationLdRuleRemoved(t *testing.T) {
	var lines []string
	for _, l := range programs.StandardRules() {
		if strings.Contains(l, "0x596b") {
			continue
		}
		lines = append(lines, l)
	}
	w := worldWith(t, lines)
	invs := loadInvariants(t, "../../examples/rules/standard.inv")
	rep := Check(FromEngine(w.Engine), w.Env.Policy.SIDs(), invs)
	if !rep.Violated() {
		t.Fatal("removing R1 went undetected")
	}
	v := firstDefinite(t, rep, "ld-untrusted-library")
	if v.Got != pf.VerdictAccept || v.Rule != nil {
		t.Errorf("violation should be a default-allow accept, got %v", v)
	}
	// The other invariants keep holding: the regression is localized.
	for _, name := range []string{"safe-open-owner-diff", "dbus-connect-trusted-socket"} {
		if res := resultFor(t, rep, name); !res.Holds {
			t.Errorf("invariant %s should still hold", name)
		}
	}
	rr := Replay(v, lines)
	if rr.Err != nil || rr.Skipped {
		t.Fatalf("replay failed: %+v", rr)
	}
	if !rr.Reproduced {
		t.Fatalf("witness did not reproduce: symbolic %v, concrete %v", v.Got, rr.Verdict)
	}
}

// Seeded violation 2: drop the system-wide safe_open rule — symlink
// interposition comes back.
func TestSeededViolationSafeOpenRemoved(t *testing.T) {
	var lines []string
	for _, l := range programs.StandardRules() {
		if strings.Contains(l, "LNK_FILE_READ") {
			continue
		}
		lines = append(lines, l)
	}
	w := worldWith(t, lines)
	invs := loadInvariants(t, "../../examples/rules/standard.inv")
	rep := Check(FromEngine(w.Engine), w.Env.Policy.SIDs(), invs)
	v := firstDefinite(t, rep, "safe-open-owner-diff")
	if !v.Ctx.TgtOwner.Avail || v.Ctx.Owner.V == v.Ctx.TgtOwner.V {
		t.Fatalf("witness should pin an owner-differs symlink, got %+v", v.Ctx)
	}
	rr := Replay(v, lines)
	if rr.Err != nil || rr.Skipped || !rr.Reproduced {
		t.Fatalf("replay: %+v", rr)
	}
	// Control: with the full ruleset the same witness open is dropped, so
	// the reproduction really is about the removed rule.
	ctrl := Replay(v, programs.StandardRules())
	if ctrl.Err != nil || ctrl.Skipped {
		t.Fatalf("control replay: %+v", ctrl)
	}
	if ctrl.Verdict != pf.VerdictDrop {
		t.Fatalf("control world should drop the witness, got %v", ctrl.Verdict)
	}
}

// Seeded violation 3: a generic ACCEPT inserted at the head of input
// preempts the entrypoint-qualified guards — the routing-order exploit.
func TestSeededViolationGenericPreempt(t *testing.T) {
	lines := readLines(t, "../../examples/rules/webserver.pft")
	preempt := "pftables -I input -s httpd_t -o FILE_OPEN -j ACCEPT"
	lines = append(lines, preempt)
	w := worldWith(t, lines)
	invs := loadInvariants(t, "../../examples/rules/webserver.inv")
	rep := Check(FromEngine(w.Engine), w.Env.Policy.SIDs(), invs)

	for _, name := range []string{"httpd-no-shadow", "httpd-serve-content-only"} {
		v := firstDefinite(t, rep, name)
		if v.Rule == nil {
			t.Fatalf("%s: violation should cite the preempting rule", name)
		}
		rr := Replay(v, lines)
		if rr.Err != nil || rr.Skipped || !rr.Reproduced {
			t.Fatalf("%s replay: %+v", name, rr)
		}
	}
}

// Seeded violation 4: remove one tenant's home guard from a built worldgen
// world's engine — tenant non-interference breaks for exactly that tenant.
func TestSeededViolationWorldgenGuardRemoved(t *testing.T) {
	cfg := pf.Optimized()
	gw := worldgen.Build(worldgen.Tiny, programs.WorldOpts{PF: &cfg})
	w := gw.World
	tbl := w.Env.Policy.SIDs()
	sid00 := tbl.SID("tenant00_home_t")
	err := w.Engine.Remove("input", func(r *pf.Rule) bool {
		return r.EntrySet && r.Program == programs.BinApache &&
			r.Entry == programs.EntryApacheServe &&
			r.Object != nil && r.Object.Contains(sid00)
	})
	if err != nil {
		t.Fatal(err)
	}

	invs, perr := ParseInvariants("<worldgen>", worldgen.Invariants())
	if perr != nil {
		t.Fatal(perr)
	}
	rep := Check(FromEngine(w.Engine), tbl, invs)
	v := firstDefinite(t, rep, "tenant-home-no-serve")
	if v.Object != "tenant00_home_t" {
		t.Fatalf("violation should name the unguarded tenant, got %q", v.Object)
	}

	var lines []string
	for _, l := range worldgen.Rules(worldgen.Tiny) {
		if strings.Contains(l, "tenant00_home_t") {
			continue
		}
		lines = append(lines, l)
	}
	rr := Replay(v, lines)
	if rr.Err != nil || rr.Skipped || !rr.Reproduced {
		t.Fatalf("replay: %+v", rr)
	}
}

// Seeded violation 5: the same preempting delta arrives as an incremental
// pf.Tx publish — the refinement gate vetoes it before it becomes visible.
func TestSeededViolationTxDeltaGated(t *testing.T) {
	w := worldWith(t, readLines(t, "../../examples/rules/webserver.pft"))
	tbl := w.Env.Policy.SIDs()
	invs := loadInvariants(t, "../../examples/rules/webserver.inv")

	cmd, err := pftables.Parse(w.Env, "pftables -I input -s httpd_t -o FILE_OPEN -j ACCEPT")
	if err != nil {
		t.Fatal(err)
	}
	gate := Gate(w.Engine, tbl, invs)
	txErr := w.Engine.TransactionGated(func(tx *pf.Tx) error {
		return tx.Insert("input", cmd.Rule)
	}, gate)
	if txErr == nil {
		t.Fatal("gate let a weakening delta publish")
	}
	if !strings.Contains(txErr.Error(), "weakens") || !strings.Contains(txErr.Error(), "httpd-no-shadow") {
		t.Errorf("gate error should name the regressed invariant: %v", txErr)
	}

	// The veto kept the published generation intact: invariants still hold.
	rep := Check(FromEngine(w.Engine), tbl, invs)
	if rep.Violated() {
		t.Fatal("vetoed publish leaked into the engine")
	}

	// A harmless delta still publishes through the same gate.
	okCmd, err := pftables.Parse(w.Env, "pftables -A input -s httpd_t -d etc_t -o FILE_WRITE -j DROP")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Engine.TransactionGated(func(tx *pf.Tx) error {
		return tx.Append("input", okCmd.Rule)
	}, gate); err != nil {
		t.Fatalf("gate vetoed a non-weakening delta: %v", err)
	}
}

// --- refinement as a library call -----------------------------------------

func TestRefinesReportsOnlyRegressions(t *testing.T) {
	w := worldWith(t, readLines(t, "../../examples/rules/webserver.pft"))
	tbl := w.Env.Policy.SIDs()
	invs := loadInvariants(t, "../../examples/rules/webserver.inv")
	cur := FromEngine(w.Engine)

	// Candidate = current plus the preempting accept.
	w2 := worldWith(t, append(readLines(t, "../../examples/rules/webserver.pft"),
		"pftables -I input -s httpd_t -o FILE_OPEN -j ACCEPT"))
	cand := FromEngine(w2.Engine)

	regs := Refines(cur, cand, tbl, invs)
	if len(regs) == 0 {
		t.Fatal("weakened candidate reported as a refinement")
	}
	names := map[string]bool{}
	for _, r := range regs {
		names[r.Invariant] = true
		if len(r.Violations) == 0 {
			t.Errorf("regression %s carries no witness", r.Invariant)
		}
	}
	if !names["httpd-no-shadow"] {
		t.Errorf("missing expected regression, got %v", names)
	}

	// Refinement is not equivalence: candidate == current refines.
	if regs := Refines(cur, cur, tbl, invs); len(regs) != 0 {
		t.Errorf("identity publish reported as regression: %v", regs)
	}
}

func TestRequireAcceptInvariant(t *testing.T) {
	pol := testPolicy()
	e := pf.New(pol, pf.Optimized())
	drop := &pf.Rule{
		Subject: pf.NewSIDSet(false, sid(pol, "user_t")),
		Object:  pf.NewSIDSet(false, sid(pol, "tmp_t")),
		Ops:     pf.NewOpSet(pf.OpFileWrite),
		Target:  pf.Drop(),
	}
	if err := e.Append("input", drop); err != nil {
		t.Fatal(err)
	}
	invs, err := ParseInvariants("t.inv", `invariant tmp-writable {
    require ACCEPT
    op FILE_WRITE
    subject user_t
    object tmp_t
}`)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(FromEngine(e), pol.SIDs(), invs)
	v := firstDefinite(t, rep, "tmp-writable")
	if v.Got != pf.VerdictDrop || v.Rule != drop {
		t.Errorf("violation should cite the drop rule, got %+v", v)
	}
}

// --- adversary scope directives -------------------------------------------

// TestAdvScopeDirectives sweeps adv-write and adv-read set to yes, no and
// unset over a policy in which some (subject, object) pairs are adversary-
// writable or -readable and others are not, and compares each sweep's
// points and violations with a brute-force enumeration that asks the MAC
// predicates directly.
func TestAdvScopeDirectives(t *testing.T) {
	pol := mac.NewPolicy(mac.NewSIDTable())
	pol.MarkTrusted("httpd_t")
	pol.Allow("httpd_t", "www_t", mac.ClassFile, mac.PermRead)
	pol.Allow("user_t", "tmp_t", mac.ClassFile, mac.PermWrite|mac.PermRead)
	pol.Allow("user_t", "etc_t", mac.ClassFile, mac.PermRead)
	pol.Allow("guest_t", "log_t", mac.ClassFile, mac.PermAppend)
	tbl := pol.SIDs()

	// Label order, as the sweep enumerates it.
	subjects := []mac.Label{"guest_t", "httpd_t", "user_t"}
	objects := []mac.Label{"etc_t", "log_t", "tmp_t", "www_t"}
	ops := []pf.Op{pf.OpFileOpen, pf.OpFileWrite}

	// Two guards, so violations are a strict subset of the scope.
	e := pf.New(pol, pf.Optimized())
	guarded := map[[2]mac.Label]bool{{"httpd_t", "tmp_t"}: true, {"guest_t", "etc_t"}: true}
	for k := range guarded {
		if err := e.Append("input", &pf.Rule{
			Subject: pf.NewSIDSet(false, tbl.SID(k[0])),
			Object:  pf.NewSIDSet(false, tbl.SID(k[1])),
			Ops:     pf.NewOpSet(ops...),
			Target:  pf.Drop(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ev := FromEngine(e)

	keep := func(set string, adv bool) bool { return set == "" || (set == "yes") == adv }
	seen := map[bool]map[bool]bool{true: {}, false: {}}
	for _, w := range []string{"yes", "no", ""} {
		for _, r := range []string{"yes", "no", ""} {
			src := "invariant adv {\n require DROP\n op FILE_OPEN FILE_WRITE\n subject guest_t httpd_t user_t\n object etc_t log_t tmp_t www_t\n"
			if w != "" {
				src += " adv-write " + w + "\n"
			}
			if r != "" {
				src += " adv-read " + r + "\n"
			}
			invs, err := ParseInvariants("adv.inv", src+"}\n")
			if err != nil {
				t.Fatal(err)
			}

			type point struct {
				op        pf.Op
				subj, obj mac.Label
			}
			var points, viols []point
			for _, op := range ops {
				for _, s := range subjects {
					for _, o := range objects {
						aw := pol.AdversaryWritable(tbl.SID(s), tbl.SID(o))
						ar := pol.AdversaryReadable(tbl.SID(s), tbl.SID(o))
						seen[aw][ar] = true
						if !keep(w, aw) || !keep(r, ar) {
							continue
						}
						points = append(points, point{op, s, o})
						if !guarded[[2]mac.Label{s, o}] {
							viols = append(viols, point{op, s, o})
						}
					}
				}
			}

			res := Check(ev, tbl, invs).Results[0]
			name := "adv-write=" + w + " adv-read=" + r
			if res.Points != len(points) {
				t.Errorf("%s: %d points, brute force %d", name, res.Points, len(points))
			}
			if res.ViolationCount != len(viols) || res.Holds != (len(viols) == 0) {
				t.Errorf("%s: %d violations (holds=%v), brute force %d", name, res.ViolationCount, res.Holds, len(viols))
			}
			if len(viols) > maxStoredViolations {
				viols = viols[:maxStoredViolations]
			}
			var got []point
			for _, v := range res.Violations {
				if !v.Definite || v.Got != pf.VerdictAccept || v.Ctx.Subject != tbl.SID(v.Subject) || v.Ctx.Object != tbl.SID(v.Object) {
					t.Errorf("%s: malformed violation %v", name, v.String())
				}
				got = append(got, point{v.Ctx.Op, v.Subject, v.Object})
			}
			if !reflect.DeepEqual(got, viols) {
				t.Errorf("%s: violations %v, brute force %v", name, got, viols)
			}
		}
	}
	// The policy must exercise every combination of the two predicates, or
	// the directives are not really tested.
	for _, aw := range []bool{true, false} {
		for _, ar := range []bool{true, false} {
			if !seen[aw][ar] {
				t.Errorf("policy has no pair with writable=%v readable=%v", aw, ar)
			}
		}
	}
}
