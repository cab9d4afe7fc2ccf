package pfcheck

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pfirewall/internal/mac"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
	"pfirewall/internal/rulegen"
)

func testEnv() *pftables.Env {
	pol := mac.NewPolicy(mac.NewSIDTable())
	pol.MarkTrusted("httpd_t", "lib_t", "shadow_t")
	pol.Allow("user_t", "tmp_t", mac.ClassFile, mac.PermWrite)
	return &pftables.Env{Policy: pol}
}

func check(t *testing.T, env *pftables.Env, lines []string, sym *Symbols) *Report {
	t.Helper()
	return Analyze(env, "test.pft", lines, sym)
}

// find returns the findings carrying code, in report order.
func find(rep *Report, code string) []Finding {
	var out []Finding
	for _, f := range rep.Findings {
		if f.Code == code {
			out = append(out, f)
		}
	}
	return out
}

func wantOne(t *testing.T, rep *Report, code string, sev Severity, line int, msgPart string) Finding {
	t.Helper()
	fs := find(rep, code)
	if len(fs) != 1 {
		t.Fatalf("want one %s finding, got %d (all: %v)", code, len(fs), rep.Findings)
	}
	f := fs[0]
	if f.Sev != sev {
		t.Errorf("%s severity = %v, want %v", code, f.Sev, sev)
	}
	if line > 0 && f.Pos.Line != line {
		t.Errorf("%s line = %d, want %d (%s)", code, f.Pos.Line, line, f)
	}
	if msgPart != "" && !strings.Contains(f.Msg, msgPart) {
		t.Errorf("%s message %q does not contain %q", code, f.Msg, msgPart)
	}
	return f
}

func TestParseFindingPosition(t *testing.T) {
	rep := check(t, testEnv(), []string{
		"pftables -A input -s httpd_t -j DROP",
		"pftables -A input -o NOT_AN_OP -j DROP",
	}, nil)
	f := wantOne(t, rep, CodeParse, SevError, 2, "NOT_AN_OP")
	if f.Pos.File != "test.pft" || f.Pos.Col != 19 {
		t.Errorf("parse finding pos = %+v, want test.pft:2:19", f.Pos)
	}
	if !rep.HasErrors() {
		t.Error("parse error should make HasErrors true")
	}
	if rep.Rules != 1 {
		t.Errorf("Rules = %d, want 1 (bad line not counted)", rep.Rules)
	}
}

// TestMissingChainInstallFindings: -F, -D and -R on a chain no line
// created are install errors, and the replay does not invent the chain.
func TestMissingChainInstallFindings(t *testing.T) {
	rep := check(t, testEnv(), []string{
		"pftables -F nosuch",
		"pftables -D nosuch -s httpd_t -j DROP",
		"pftables -R nosuch 1 -s httpd_t -j DROP",
	}, nil)
	fs := find(rep, CodeInstall)
	if len(fs) != 3 {
		t.Fatalf("want 3 install findings, got %v", rep.Findings)
	}
	for i, f := range fs {
		if f.Pos.Line != i+1 || !strings.Contains(f.Msg, `no such chain "nosuch"`) {
			t.Errorf("install finding %d = %v, want line %d naming the missing chain", i, f, i+1)
		}
	}
	if len(rep.Findings) != 3 {
		t.Errorf("findings beyond the install errors: %v", rep.Findings)
	}
}

func TestInstallFindings(t *testing.T) {
	rep := check(t, testEnv(), []string{
		"pftables -A output -s httpd_t -j DROP",
		"pftables -N input",
		"pftables -N c0",
		"pftables -N c0",
		"pftables -D input -s httpd_t -j DROP",
	}, nil)
	fs := find(rep, CodeInstall)
	if len(fs) != 4 {
		t.Fatalf("want 4 install findings, got %v", fs)
	}
	for i, want := range []struct {
		line int
		part string
	}{
		{1, `"output"`},
		{2, "already exists"},
		{4, "already exists"},
		{5, "no rule in chain"},
	} {
		if fs[i].Pos.Line != want.line || !strings.Contains(fs[i].Msg, want.part) {
			t.Errorf("install finding %d = %v, want line %d containing %q", i, fs[i], want.line, want.part)
		}
		if fs[i].Sev != SevError {
			t.Errorf("install finding %d severity = %v", i, fs[i].Sev)
		}
	}
}

func TestShadowAndRedundantFindings(t *testing.T) {
	rep := check(t, testEnv(), []string{
		"pftables -A input -s httpd_t -j ACCEPT",
		"pftables -A input -s httpd_t -d shadow_t -j DROP",    // conflict: error
		"pftables -A input -s httpd_t -o FILE_OPEN -j ACCEPT", // same verdict: warning
		"pftables -A input -s httpd_t -d tmp_t -j LOG",        // dead side effect: warning
	}, nil)
	fs := find(rep, CodeShadowed)
	if len(fs) != 2 {
		t.Fatalf("want 2 shadowed findings, got %v", rep.Findings)
	}
	if fs[0].Pos.Line != 2 || fs[0].Sev != SevError || !strings.Contains(fs[0].Msg, "line 1") {
		t.Errorf("conflict finding = %v", fs[0])
	}
	if fs[1].Pos.Line != 4 || fs[1].Sev != SevWarning || !strings.Contains(fs[1].Msg, "LOG") {
		t.Errorf("dead side-effect finding = %v", fs[1])
	}
	wantOne(t, rep, CodeRedundant, SevWarning, 3, "ACCEPT")
}

func TestDeleteRemovesFromModel(t *testing.T) {
	// Deleting the shadower resurrects the later rule: no findings.
	rep := check(t, testEnv(), []string{
		"pftables -A input -s httpd_t -j ACCEPT",
		"pftables -A input -s httpd_t -j DROP",
		"pftables -D input -s httpd_t -j ACCEPT",
	}, nil)
	if len(rep.Findings) != 0 {
		t.Fatalf("want no findings after delete, got %v", rep.Findings)
	}
	if rep.Rules != 2 {
		t.Errorf("Rules = %d, want 2", rep.Rules)
	}
}

func TestNeverMatchOpContext(t *testing.T) {
	rep := check(t, testEnv(), []string{
		"pftables -A syscallbegin -o FILE_OPEN -j DROP",
	}, nil)
	wantOne(t, rep, CodeNeverMatch, SevError, 1, `"syscallbegin"`)
}

func TestDeadChainAndEmptyJump(t *testing.T) {
	rep := check(t, testEnv(), []string{
		"pftables -N orphan",
		"pftables -A orphan -s httpd_t -j DROP",
		"pftables -A input -s httpd_t -o FILE_OPEN -j sgnal_chain", // typo'd jump
		"pftables -N declared_empty",
		"pftables -A input -s httpd_t -o FILE_READ -j declared_empty",
	}, nil)
	wantOne(t, rep, CodeDeadChain, SevWarning, 2, `"orphan"`)
	fs := find(rep, CodeEmptyJump)
	if len(fs) != 2 {
		t.Fatalf("want 2 empty-chain findings, got %v", fs)
	}
	if fs[0].Pos.Line != 3 || fs[0].Sev != SevWarning || !strings.Contains(fs[0].Msg, "typo") {
		t.Errorf("undeclared empty jump finding = %v", fs[0])
	}
	if fs[1].Pos.Line != 5 || fs[1].Sev != SevInfo {
		t.Errorf("declared empty jump finding = %v", fs[1])
	}
}

func TestJumpCycleFinding(t *testing.T) {
	rep := check(t, testEnv(), []string{
		"pftables -A input -s httpd_t -j c0",
		"pftables -A c0 -j c1",
		"pftables -A c1 -j c0",
	}, nil)
	f := wantOne(t, rep, CodeJumpCycle, SevError, 3, "c0 -> c1 -> c0")
	if f.Pos.File != "test.pft" {
		t.Errorf("cycle pos = %+v", f.Pos)
	}
}

func TestSymbolFindings(t *testing.T) {
	env := testEnv()
	sym := &Symbols{
		KnownProgram: func(p string) bool { return p == "/bin/prog" },
		Entrypoints:  map[string][]uint64{"/bin/prog": {0x100, 0x200}},
	}
	rep := check(t, env, []string{
		"pftables -A input -s httpd_t -d tmp_t -j DROP",                           // all known
		"pftables -A input -s httpd_tt -j DROP",                                   // label typo
		"pftables -A input -p /bin/progg -s httpd_t -j DROP",                      // program typo
		"pftables -A input -p /bin/prog -i 0x300 -s httpd_t -o FILE_OPEN -j DROP", // entry typo
		"pftables -A input -p /bin/prog -i 0x200 -s httpd_t -o FILE_READ -j DROP", // ok
	}, sym)
	wantOne(t, rep, CodeUnknownLbl, SevWarning, 2, `"httpd_tt"`)
	wantOne(t, rep, CodeUnknownPrg, SevWarning, 3, `"/bin/progg"`)
	wantOne(t, rep, CodeUnknownEnt, SevWarning, 4, "0x300")
}

func TestLabelSnapshotIsPreParse(t *testing.T) {
	env := testEnv()
	// Without an explicit snapshot, Analyze must take one before parsing:
	// the typo'd label below gets interned during parsing but must still
	// be reported unknown.
	rep := check(t, env, []string{"pftables -A input -s not_a_label_t -j DROP"}, nil)
	wantOne(t, rep, CodeUnknownLbl, SevWarning, 1, "not_a_label_t")
	// A second run now sees the label interned by run one; the explicit
	// snapshot predicate still decides.
	rep = check(t, env, []string{"pftables -A input -s not_a_label_t -j DROP"}, nil)
	if len(find(rep, CodeUnknownLbl)) != 0 {
		t.Error("label interned before Analyze started should be considered known")
	}
}

func TestDeterministicFindings(t *testing.T) {
	lines := []string{
		"pftables -A input -s httpd_t -j ACCEPT",
		"pftables -A input -s httpd_t -d shadow_t -j DROP",
		"pftables -A input -o BADOP -j DROP",
		"pftables -N dead",
		"pftables -A dead -j DROP",
	}
	base := check(t, testEnv(), lines, nil)
	for i := 0; i < 5; i++ {
		if got := check(t, testEnv(), lines, nil); !reflect.DeepEqual(got.Findings, base.Findings) {
			t.Fatalf("run %d differs:\n%v\nvs\n%v", i, got.Findings, base.Findings)
		}
	}
}

func TestSummaryAndExport(t *testing.T) {
	rep := check(t, testEnv(), []string{
		"pftables -A input -s httpd_t -j ACCEPT",
		"pftables -A input -s httpd_t -j DROP",   // error (conflict shadow)
		"pftables -A input -s httpd_t -j ACCEPT", // warning (redundant)
	}, nil)
	s := rep.Summary()
	if s.Rules != 3 || s.Errors != 1 || s.Warnings != 1 || s.Infos != 0 {
		t.Fatalf("summary = %+v", s)
	}
	reg := obs.New()
	rep.Export(reg)
	for sev, want := range map[string]uint64{"error": 1, "warning": 1, "info": 0} {
		c := reg.Counter("pf_check_findings", "", obs.L("severity", sev))
		if c.Load() != want {
			t.Errorf("pf_check_findings{severity=%q} = %d, want %d", sev, c.Load(), want)
		}
	}
}

func TestAnalyzeEngine(t *testing.T) {
	env := testEnv()
	e := pf.New(env.Policy, pf.Config{})
	lines := []string{
		"pftables -A input -s httpd_t -j ACCEPT",
		"pftables -A input -s httpd_t -d shadow_t -j DROP",
	}
	for i, line := range lines {
		if _, err := pftables.InstallAt(env, e, line, pf.Pos{File: "live.pft", Line: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	rep := AnalyzeEngine(e, nil)
	f := wantOne(t, rep, CodeShadowed, SevError, 2, "line 1")
	if f.Pos.File != "live.pft" {
		t.Errorf("engine finding pos = %+v", f.Pos)
	}
	if rep.Rules != 2 {
		t.Errorf("Rules = %d, want 2", rep.Rules)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Sev: SevError, Code: CodeParse, Pos: pf.Pos{File: "a.pft", Line: 3, Col: 7}, Msg: "boom"}
	if got := f.String(); got != "a.pft:3:7: error: [parse] boom" {
		t.Errorf("String() = %q", got)
	}
}

// TestScaleBaseDeterministicAndFast is the acceptance pin for the synthetic
// rule bases: the analyzer's findings over rulegen's deterministic scale
// bases are themselves deterministic (exact severity tallies, identical
// reports across runs), errors stay at zero so pfctl -check exits 0, and the
// 10,000-rule base analyzes comfortably under the 2-second budget.
func TestScaleBaseDeterministicAndFast(t *testing.T) {
	env := testEnv()
	sym := &Symbols{KnownLabel: func(mac.Label) bool { return true }}
	cases := []struct {
		n        int
		warnings int
	}{
		{100, 2},
		{1200, 67},
		{10000, 1373},
	}
	for _, tc := range cases {
		lines := rulegen.ScaleRuleBase(1, tc.n)
		start := time.Now()
		rep := Analyze(env, "scale.pft", lines, sym)
		elapsed := time.Since(start)
		s := rep.Summary()
		if s.Rules != tc.n {
			t.Errorf("scale %d: analyzed %d rules", tc.n, s.Rules)
		}
		if s.Errors != 0 {
			t.Errorf("scale %d: %d error findings, want 0 (base must install cleanly)", tc.n, s.Errors)
		}
		if s.Warnings != tc.warnings {
			t.Errorf("scale %d: %d warnings, want %d", tc.n, s.Warnings, tc.warnings)
		}
		rep2 := Analyze(env, "scale.pft", rulegen.ScaleRuleBase(1, tc.n), sym)
		if !reflect.DeepEqual(rep.Findings, rep2.Findings) {
			t.Errorf("scale %d: findings differ between runs", tc.n)
		}
		if tc.n == 10000 && elapsed > 2*time.Second {
			t.Errorf("scale %d analyzed in %s, acceptance bound is 2s", tc.n, elapsed)
		}
		t.Logf("scale %d: %d warnings in %s", tc.n, s.Warnings, elapsed.Round(time.Microsecond))
	}
}

// TestDedupeIdenticalFindings: an unknown label cited by both the -s and -d
// set of one rule used to produce two byte-identical findings; the report
// now collapses them.
func TestDedupeIdenticalFindings(t *testing.T) {
	env := testEnv()
	sym := &Symbols{KnownLabel: LabelSnapshot(env.Policy)}
	rep := check(t, env, []string{
		`pftables -A input -s {bogus_t} -d {bogus_t} -o FILE_OPEN -j DROP`,
	}, sym)
	fs := find(rep, CodeUnknownLbl)
	if len(fs) != 1 {
		t.Fatalf("want one deduped unknown-label finding, got %d: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Msg, "bogus_t") {
		t.Errorf("finding %q should cite bogus_t", fs[0].Msg)
	}
}

// TestReportJSON pins the wire shape of pfctl -check -json: rendered
// file:line:col position strings, named severities, stable field names.
func TestReportJSON(t *testing.T) {
	env := testEnv()
	rep := check(t, env, []string{
		`pftables -A input --tag web -j DROP`,
		`pftables -R input -j DROP`,
	}, nil)
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		File     string `json:"file"`
		Rules    int    `json:"rules"`
		Chains   int    `json:"chains"`
		Findings []struct {
			Severity string `json:"severity"`
			Code     string `json:"code"`
			Pos      string `json:"pos"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("round-trip: %v\n%s", err, out)
	}
	if doc.File != "test.pft" {
		t.Errorf("file = %q", doc.File)
	}
	if len(doc.Findings) != 2 {
		t.Fatalf("want 2 findings, got %d: %s", len(doc.Findings), out)
	}
	f := doc.Findings[0]
	if f.Severity != "error" || f.Code != CodeParse {
		t.Errorf("finding[0] = %+v, want error/parse", f)
	}
	if f.Pos != "test.pft:1:19" || f.File != "test.pft" || f.Line != 1 || f.Col != 19 {
		t.Errorf("finding[0] pos = %q (%s:%d:%d), want test.pft:1:19", f.Pos, f.File, f.Line, f.Col)
	}
	if doc.Findings[1].Pos != "test.pft:2:10" {
		t.Errorf("finding[1] pos = %q, want test.pft:2:10", doc.Findings[1].Pos)
	}
}

// TestCycleJumpsCitesEveryOwnJump: every jump of the named source that lies
// on a cycle is reported at its own position with the cycle it closes —
// however long the cycle, a self-jump included — and jumps off any cycle,
// or from another source, are not.
func TestCycleJumpsCitesEveryOwnJump(t *testing.T) {
	env := testEnv()
	e := pf.New(env.Policy, pf.Config{})
	if _, err := pftables.InstallAllFrom(env, e, "base.pft", []string{
		"pftables -N ca", "pftables -N cb", "pftables -N cc", "pftables -N cd",
		"pftables -A input -s httpd_t -j ca",
		"pftables -A cb -j cc",
		"pftables -A cc -j ca",
	}); err != nil {
		t.Fatal(err)
	}
	// The engine refuses to publish a jump cycle, so the batch is read as
	// policyd's gate reads it: as the candidate program.
	var cand *pf.Program
	if _, err := pftables.ApplyAllGated(env, e, "batch.pft", []string{
		"pftables -A ca -j cb", // closes ca -> cb -> cc -> ca
		"pftables -A ca -j cd", // leads off every cycle
		"pftables -A cd -j cd", // jumps to itself
	}, func(p *pf.Program) error { cand = p; return nil }); err == nil {
		t.Fatal("a batch closing jump cycles was published")
	}
	var got []string
	for _, f := range CycleJumps(cand.Chains(), "batch.pft") {
		got = append(got, fmt.Sprintf("%d %s", f.Pos.Line, f.Msg))
	}
	want := []string{"1 jump cycle: ca -> cb -> cc -> ca", "3 jump cycle: cd -> cd"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch.pft cycle jumps = %q, want %q", got, want)
	}
	if fs := CycleJumps(cand.Chains(), "other.pft"); len(fs) != 0 {
		t.Fatalf("jumps of a source with none: %v", fs)
	}
}
