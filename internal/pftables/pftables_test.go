package pftables

import (
	"strings"
	"testing"
	"testing/quick"

	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
)

func testEnv() *Env {
	pol := mac.NewPolicy(mac.NewSIDTable())
	pol.MarkTrusted("httpd_t", "lib_t", "textrel_shlib_t", "httpd_modules_t", "shadow_t")
	pol.Allow("user_t", "tmp_t", mac.ClassFile, mac.PermWrite)
	return &Env{
		Policy: pol,
		LookupPath: func(p string) (uint64, bool) {
			if p == "/etc/passwd" {
				return 111, true
			}
			return 0, false
		},
		Syscalls: map[string]int{"sigreturn": 15, "open": 2},
	}
}

// paperRules are the rules of Table 5 verbatim (R1–R12), as this library
// accepts them.
var paperRules = []string{
	`pftables -p /lib/ld-2.15.so -i 0x596b -s SYSHIGH -d ~{lib_t|textrel_shlib_t|httpd_modules_t} -o FILE_OPEN -j DROP`,
	`pftables -p /usr/bin/python2.7 -i 0x34f05 -s SYSHIGH -d ~{lib_t|usr_t} -o FILE_OPEN -j DROP`,
	`pftables -p /lib/libdbus-1.so.3 -i 0x39231 -s SYSHIGH -d ~{system_dbusd_var_run_t} -o UNIX_STREAM_SOCKET_CONNECT -j DROP`,
	`pftables -p /usr/bin/php5 -i 0x27ad2c -s SYSHIGH -d ~{httpd_user_script_exec_t} -o FILE_OPEN -j DROP`,
	`pftables -i 0x3c750 -p /bin/dbus-daemon -o SOCKET_BIND -j STATE --set --key 0xbeef --value C_INO`,
	`pftables -i 0x3c786 -p /bin/dbus-daemon -o SOCKET_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP`,
	`pftables -i 0x5d7e -p /usr/bin/java -d ~{SYSHIGH} -o FILE_OPEN -j DROP`,
	`pftables -i 0x2d637 -p /usr/bin/apache2 -o LINK_READ -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP`,
	`pftables -I input -o PROCESS_SIGNAL_DELIVERY -j SIGNAL_CHAIN`,
	`pftables -I signal_chain -m SIGNAL_MATCH -m STATE --key 'sig' --cmp 1 -j DROP`,
	`pftables -I signal_chain -m SIGNAL_MATCH -j STATE --set --key 'sig' --value 1`,
	`pftables -I syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn -j STATE --set --key 'sig' --value 0`,
}

func TestParsePaperRuleSet(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	n, err := InstallAll(env, engine, paperRules)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(paperRules) {
		t.Errorf("installed %d rules, want %d", n, len(paperRules))
	}
	if engine.RuleCount() != len(paperRules) {
		t.Errorf("engine holds %d rules, want %d", engine.RuleCount(), len(paperRules))
	}
	if _, ok := engine.Chain("signal_chain"); !ok {
		t.Error("signal_chain should be auto-created")
	}
}

func TestParseTable3Example(t *testing.T) {
	// "Disallow following links in temp filesystems."
	env := testEnv()
	cmd, err := Parse(env, `pftables -t filter -o LNK_FILE_READ -d tmp_t -j DROP`)
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Table != "filter" || cmd.Chain != "input" {
		t.Errorf("table=%q chain=%q", cmd.Table, cmd.Chain)
	}
	r := cmd.Rule
	if !r.Ops.Has(pf.OpLnkFileRead) || r.Ops.Has(pf.OpFileOpen) {
		t.Error("op set wrong")
	}
	tmp, _ := env.Policy.SIDs().Lookup("tmp_t")
	if !r.Object.Contains(tmp) {
		t.Error("object set must contain tmp_t")
	}
	if r.Target.TargetName() != "DROP" {
		t.Error("target should be DROP")
	}
}

func TestSyshighExpansion(t *testing.T) {
	env := testEnv()
	cmd, err := Parse(env, `pftables -s SYSHIGH -j DROP`)
	if err != nil {
		t.Fatal(err)
	}
	httpd, _ := env.Policy.SIDs().Lookup("httpd_t")
	if !cmd.Rule.Subject.Contains(httpd) {
		t.Error("SYSHIGH must include httpd_t")
	}
	user := env.Policy.SIDs().SID("user_t")
	if cmd.Rule.Subject.Contains(user) {
		t.Error("SYSHIGH must not include user_t")
	}
	// Negated form: ~{SYSHIGH} matches exactly the complement.
	cmd, err = Parse(env, `pftables -d ~{SYSHIGH} -o FILE_OPEN -j DROP`)
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Rule.Object.Contains(httpd) {
		t.Error("~{SYSHIGH} must exclude trusted labels")
	}
	if !cmd.Rule.Object.Contains(user) {
		t.Error("~{SYSHIGH} must include untrusted labels")
	}
}

func TestEntrypointParsing(t *testing.T) {
	env := testEnv()
	cmd, err := Parse(env, `pftables -p /lib/ld-2.15.so -i 0x596b -o FILE_OPEN -j DROP`)
	if err != nil {
		t.Fatal(err)
	}
	if !cmd.Rule.EntrySet || cmd.Rule.Entry != 0x596b || cmd.Rule.Program != "/lib/ld-2.15.so" {
		t.Errorf("rule = %+v", cmd.Rule)
	}
}

func TestStateModules(t *testing.T) {
	env := testEnv()
	cmd, err := Parse(env, `pftables -o SOCKET_BIND -j STATE --set --key 0xbeef --value C_INO`)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := cmd.Rule.Target.(*pf.StateTarget)
	if !ok {
		t.Fatalf("target = %T", cmd.Rule.Target)
	}
	if st.Key != 0xbeef || st.Val.Ref != pf.RefIno {
		t.Errorf("state target = %+v", st)
	}

	cmd, err = Parse(env, `pftables -o SOCKET_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP`)
	if err != nil {
		t.Fatal(err)
	}
	sm, ok := cmd.Rule.Matches[0].(*pf.StateMatch)
	if !ok || !sm.Nequal || sm.Key != 0xbeef || sm.Cmp.Ref != pf.RefIno {
		t.Errorf("state match = %+v", cmd.Rule.Matches[0])
	}
}

func TestSymbolicStateKeysConsistent(t *testing.T) {
	env := testEnv()
	c1, err := Parse(env, `pftables -m SIGNAL_MATCH -m STATE --key 'sig' --cmp 1 -j DROP`)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(env, `pftables -m SIGNAL_MATCH -j STATE --set --key 'sig' --value 1`)
	if err != nil {
		t.Fatal(err)
	}
	key1 := c1.Rule.Matches[1].(*pf.StateMatch).Key
	key2 := c2.Rule.Target.(*pf.StateTarget).Key
	if key1 != key2 {
		t.Errorf("symbolic key hashed inconsistently: %#x vs %#x", key1, key2)
	}
	if key1 != KeyFor("sig") {
		t.Error("KeyFor mismatch")
	}
}

func TestNRSyscallConstants(t *testing.T) {
	env := testEnv()
	cmd, err := Parse(env, `pftables -I syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn -j DROP`)
	if err != nil {
		t.Fatal(err)
	}
	m := cmd.Rule.Matches[0].(*pf.SyscallArgsMatch)
	if m.Arg != 0 || m.Equal != 15 {
		t.Errorf("match = %+v", m)
	}
	if _, err := Parse(env, `pftables -m SYSCALL_ARGS --arg 0 --equal NR_bogus -j DROP`); err == nil {
		t.Error("unknown NR_ name should fail")
	}
}

func TestCompareParsing(t *testing.T) {
	env := testEnv()
	cmd, err := Parse(env, `pftables -o LINK_READ -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP`)
	if err != nil {
		t.Fatal(err)
	}
	m := cmd.Rule.Matches[0].(*pf.CompareMatch)
	if m.V1.Ref != pf.RefDACOwner || m.V2.Ref != pf.RefTgtDACOwner || !m.Nequal {
		t.Errorf("compare = %+v", m)
	}
}

func TestFileLookup(t *testing.T) {
	env := testEnv()
	cmd, err := Parse(env, `pftables -f /etc/passwd -o FILE_OPEN -j DROP`)
	if err != nil {
		t.Fatal(err)
	}
	if !cmd.Rule.ResIDSet || cmd.Rule.ResID != 111 {
		t.Errorf("rule = %+v", cmd.Rule)
	}
	if _, err := Parse(env, `pftables -f /no/such -j DROP`); err == nil {
		t.Error("missing file should fail")
	}
}

func TestChainNormalization(t *testing.T) {
	env := testEnv()
	cmd, err := Parse(env, `pftables -I create/input -o FILE_CREATE -j DROP`)
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Chain != "input" {
		t.Errorf("chain = %q, want input", cmd.Chain)
	}
	cmd, err = Parse(env, `pftables -o PROCESS_SIGNAL_DELIVERY -j SIGNAL_CHAIN`)
	if err != nil {
		t.Fatal(err)
	}
	j := cmd.Rule.Target.(*pf.JumpTarget)
	if j.ChainName != "signal_chain" {
		t.Errorf("jump chain = %q", j.ChainName)
	}
}

func TestDeleteRule(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	line := `pftables -o LNK_FILE_READ -d tmp_t -j DROP`
	if _, err := Install(env, engine, line); err != nil {
		t.Fatal(err)
	}
	if engine.RuleCount() != 1 {
		t.Fatal("install failed")
	}
	if _, err := Install(env, engine, `pftables -D input -o LNK_FILE_READ -d tmp_t -j DROP`); err != nil {
		t.Fatal(err)
	}
	if engine.RuleCount() != 0 {
		t.Error("delete failed")
	}
	if _, err := Install(env, engine, `pftables -D input -o FILE_OPEN -j DROP`); err == nil {
		t.Error("deleting a nonexistent rule should fail")
	}
}

func TestParseErrors(t *testing.T) {
	env := testEnv()
	bad := []string{
		``,
		`pftables`,
		`pftables -o NOT_AN_OP -j DROP`,
		`pftables -o FILE_OPEN`,                  // no target
		`pftables -t bogus -o FILE_OPEN -j DROP`, // bad table
		`pftables -i zzz -p /x -j DROP`,          // bad entrypoint
		`pftables -m NOSUCH -j DROP`,             // unknown match
		`pftables -m STATE --key 1 -j DROP`,      // STATE missing --cmp
		`pftables -m COMPARE --v1 C_INO -j DROP`,
		`pftables -s {} -j DROP`,
		`pftables -j`,
		`pftables --weird -j DROP`,
		`pftables -o FILE_OPEN -j DROP extra`,
	}
	for _, line := range bad {
		if _, err := Parse(env, line); err == nil {
			t.Errorf("Parse(%q) should fail", line)
		}
	}
}

// TestParseErrorColumns pins the 1-based columns cited by errors that only
// surface once the whole line has been scanned; they used to report col 0.
func TestParseErrorColumns(t *testing.T) {
	env := testEnv()
	cases := []struct {
		line    string
		col     int
		wantErr string
	}{
		{`pftables -R input -j DROP`, 10, "-R requires a 1-based rule position"},
		{`pftables -t filter -R input -j DROP`, 20, "-R requires a 1-based rule position"},
		{`pftables -A input --tag web -j DROP`, 19, "--tag is only valid with -D"},
		{`pftables --tag web -j DROP`, 10, "--tag is only valid with -D"},
		{`pftables -A input -o FILE_OPEN`, 10, "rule has no target"},
		{`pftables -R input 0 -j DROP`, 19, "bad rule position"},
	}
	for _, tc := range cases {
		_, err := ParseAt(env, tc.line, pf.Pos{File: "t.pft", Line: 1})
		if err == nil {
			t.Errorf("ParseAt(%q) should fail", tc.line)
			continue
		}
		perr, ok := err.(*Error)
		if !ok {
			t.Errorf("ParseAt(%q) error type %T, want *Error", tc.line, err)
			continue
		}
		if !strings.Contains(perr.Error(), tc.wantErr) {
			t.Errorf("ParseAt(%q) err = %v, want substring %q", tc.line, perr, tc.wantErr)
		}
		if perr.Pos.Col != tc.col {
			t.Errorf("ParseAt(%q) col = %d, want %d", tc.line, perr.Pos.Col, tc.col)
		}
	}
}

// TestJumpToBuiltinChainRejected pins that a jump must name a user chain:
// requests enter built-in chains only at their hooks (as in iptables). The
// error cites the target token's column, and neither the per-line nor the
// batched install path lets such a rule reach the engine.
func TestJumpToBuiltinChainRejected(t *testing.T) {
	env := testEnv()
	cases := []struct {
		line string
		col  int
	}{
		{`pftables -t mangle -A input -j INPUT`, 32},
		{`pftables -A u0 -j SYSCALLBEGIN`, 19},
	}
	for _, tc := range cases {
		_, err := ParseAt(env, tc.line, pf.Pos{File: "t.pft", Line: 1})
		perr, ok := err.(*Error)
		if !ok || !strings.Contains(perr.Error(), "built-in chain") {
			t.Errorf("ParseAt(%q) = %v, want a built-in chain jump error", tc.line, err)
			continue
		}
		if perr.Pos.Col != tc.col {
			t.Errorf("ParseAt(%q) col = %d, want %d", tc.line, perr.Pos.Col, tc.col)
		}
		engine := pf.New(env.Policy, pf.Optimized())
		if _, err := InstallAt(env, engine, tc.line, pf.Pos{}); err == nil {
			t.Errorf("InstallAt(%q) accepted a jump into a built-in chain", tc.line)
		}
		if _, err := ApplyAllFrom(env, engine, "t.pft", []string{tc.line}); err == nil {
			t.Errorf("ApplyAllFrom(%q) accepted a jump into a built-in chain", tc.line)
		}
		if engine.RuleCount() != 0 {
			t.Errorf("%q: rejected rule reached the engine", tc.line)
		}
	}
}

func TestInstallAllSkipsComments(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	lines := []string{
		"# Load only trusted libraries",
		"",
		`pftables -o FILE_OPEN -d ~{lib_t} -j DROP`,
	}
	n, err := InstallAll(env, engine, lines)
	if err != nil || n != 1 {
		t.Errorf("InstallAll = %d, %v", n, err)
	}
}

func TestInstallAllReportsBadLine(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	_, err := InstallAll(env, engine, []string{`pftables -o BAD -j DROP`})
	if err == nil || !strings.Contains(err.Error(), "BAD") {
		t.Errorf("err = %v", err)
	}
}

func TestNewChainCommand(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	if _, err := Install(env, engine, `pftables -N my_chain`); err != nil {
		t.Fatal(err)
	}
	if _, ok := engine.Chain("my_chain"); !ok {
		t.Error("-N did not create the chain")
	}
}

func TestTokenizeQuotes(t *testing.T) {
	toks, err := tokenize(`-m STATE --key 'my key' --cmp 1`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks {
		if tok.text == "my key" {
			found = true
		}
	}
	if !found {
		t.Errorf("tokens = %+v", toks)
	}
	if _, err := tokenize(`--key 'unterminated`); err == nil {
		t.Error("unterminated quote should fail")
	}
}

func TestEndToEndR1BlocksUntrustedLibrary(t *testing.T) {
	// Full path: parse R1, install, and filter a simulated ld.so open.
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	if _, err := Install(env, engine, paperRules[0]); err != nil {
		t.Fatal(err)
	}
	// Reuse the pf test doubles via a minimal local process.
	proc := newTestProc(env.Policy, "httpd_t", "/usr/bin/apache2")
	m := proc.as.Map("/lib/ld-2.15.so", 0)
	proc.stack.Call(m.Base + 0x10)
	proc.stack.SetPC(m.Base + 0x596b)

	tmpSID := env.Policy.SIDs().SID("tmp_t")
	libSID := env.Policy.SIDs().SID("lib_t")
	if v := engine.Filter(&pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: testRes{sid: tmpSID, id: 5}}); v != pf.VerdictDrop {
		t.Error("R1 should block loading a library from /tmp")
	}
	if v := engine.Filter(&pf.Request{Proc: proc, Op: pf.OpFileOpen, Obj: testRes{sid: libSID, id: 6}}); v != pf.VerdictAccept {
		t.Error("R1 should allow lib_t libraries")
	}
}

func TestParseNeverPanics(t *testing.T) {
	// Robustness: arbitrary input must produce an error, never a panic —
	// pftables validates rules pushed in from userspace (paper Section 5).
	env := testEnv()
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		Parse(env, s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Targeted nasties assembled from valid fragments.
	nasty := []string{
		"pftables -s ~{} -j DROP",
		"pftables -i 0xffffffffffffffff -p /x -j DROP",
		"pftables -m STATE --key --cmp -j DROP",
		"pftables -j STATE --set --key",
		"pftables -o FILE_OPEN,FILE_OPEN,FILE_OPEN -j RETURN",
		"pftables -I '' -j DROP",
		"pftables -m COMPARE --v1 C_INO --v2 --nequal -j DROP",
		"-j DROP -j DROP",
	}
	for _, line := range nasty {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Parse(%q) panicked: %v", line, r)
				}
			}()
			Parse(env, line)
		}()
	}
}

func TestParseReturnTarget(t *testing.T) {
	env := testEnv()
	cmd, err := Parse(env, `pftables -o FILE_OPEN -j RETURN`)
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Rule.Target.TargetName() != "RETURN" {
		t.Errorf("target = %q", cmd.Rule.Target.TargetName())
	}
}

func TestMangleTableInstall(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	if _, err := Install(env, engine, `pftables -t mangle -I input -o FILE_OPEN -j STATE --set --key 0x9 --value 1`); err != nil {
		t.Fatal(err)
	}
	c, ok := engine.Chain("mangle/input")
	if !ok || len(c.Rules) != 1 {
		t.Fatalf("mangle/input chain: ok=%v rules=%d", ok, len(c.Rules))
	}
	// Filter-table input must be untouched.
	in, _ := engine.Chain("input")
	if len(in.Rules) != 0 {
		t.Error("filter input should be empty")
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	lines := append([]string{}, paperRules...)
	lines = append(lines,
		`pftables -t mangle -I input -o FILE_OPEN -j STATE --set --key 0x9 --value 1`,
		`pftables -I input -j LOG --prefix "audit"`,
		`pftables --res-id 42 -o FILE_OPEN -j DROP`,
		`pftables -o FILE_OPEN -j RETURN`,
	)
	if _, err := InstallAll(env, engine, lines); err != nil {
		t.Fatal(err)
	}

	saved := Save(engine)
	engine2 := pf.New(env.Policy, pf.Optimized())
	if _, err := InstallAll(env, engine2, saved); err != nil {
		t.Fatalf("restore: %v\nsaved:\n%s", err, strings.Join(saved, "\n"))
	}
	if engine2.RuleCount() != engine.RuleCount() {
		t.Fatalf("restored %d rules, want %d", engine2.RuleCount(), engine.RuleCount())
	}
	// Fixed point: saving the restored engine yields identical lines.
	saved2 := Save(engine2)
	if len(saved) != len(saved2) {
		t.Fatalf("save lengths differ: %d vs %d", len(saved), len(saved2))
	}
	for i := range saved {
		if saved[i] != saved2[i] {
			t.Errorf("line %d differs:\n%s\n%s", i, saved[i], saved2[i])
		}
	}
}

// TestBadChainNameRejected: a chain operand or jump target that normalizes
// to nothing, to a flag, or to a name holding whitespace is rejected at its
// own column. Accepted, it would make a chain no later command can name,
// and a jump to it would render as a line that does not parse.
func TestBadChainNameRejected(t *testing.T) {
	env := testEnv()
	for _, tc := range []struct {
		line string
		col  int
	}{
		{`pftables -A input -o FILE_OPEN -j DRO/`, 35},
		{`pftables -A x/ -o FILE_OPEN -j DROP`, 13},
		{`pftables -N a/`, 13},
		{`pftables -F x/-j`, 13},
		{`pftables -R 'a b' 1 -j DROP`, 13},
	} {
		_, err := ParseAt(env, tc.line, pf.Pos{File: "t.pft", Line: 1})
		perr, ok := err.(*Error)
		if !ok || !strings.Contains(perr.Error(), "bad chain name") {
			t.Errorf("ParseAt(%q) = %v, want a bad chain name error", tc.line, err)
			continue
		}
		if perr.Pos.Col != tc.col {
			t.Errorf("ParseAt(%q) col = %d, want %d", tc.line, perr.Pos.Col, tc.col)
		}
	}
}

// TestLogPrefixSurvivesSave: Save renders a LOG prefix as a Go string
// literal and InstallAll decodes it, so backslashes, control bytes, spaces
// and quotes come back unchanged instead of growing on every round trip.
func TestLogPrefixSurvivesSave(t *testing.T) {
	env := testEnv()
	for _, line := range []string{
		`pftables -j LOG --prefix a\b`,
		`pftables -j LOG --prefix "tab\there"`,
		`pftables -j LOG --prefix 'it is'`,
		`pftables -j LOG --prefix "\x27"`,
	} {
		cmd, err := Parse(env, line)
		if err != nil {
			t.Fatal(err)
		}
		want := cmd.Rule.Target.(*pf.LogTarget).Prefix
		engine := pf.New(env.Policy, pf.Optimized())
		for i := 0; i < 3; i++ {
			if _, err := InstallAll(env, engine, []string{line}); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			c, _ := engine.Chain("input")
			if got := c.Rules[0].Target.(*pf.LogTarget).Prefix; got != want {
				t.Fatalf("%q: prefix after %d saves = %q, want %q", line, i, got, want)
			}
			line = Save(engine)[0]
			engine = pf.New(env.Policy, pf.Optimized())
		}
	}
}

// TestEmptyLabelSetRejected: a label set that names no label, whether by
// an empty member or by SYSHIGH over a policy that trusts none, is a parse
// error; it would render as "{}", which does not parse back.
func TestEmptyLabelSetRejected(t *testing.T) {
	untrusting := &Env{Policy: mac.NewPolicy(mac.NewSIDTable())}
	for _, tc := range []struct {
		env  *Env
		line string
	}{
		{untrusting, `pftables -s SYSHIGH -j DROP`},
		{untrusting, `pftables -d ~{SYSHIGH} -j DROP`},
		{testEnv(), `pftables -s {httpd_t|} -j DROP`},
		{testEnv(), `pftables -d | -j DROP`},
	} {
		if _, err := Parse(tc.env, tc.line); err == nil {
			t.Errorf("Parse(%q) accepted a set that names no label", tc.line)
		}
	}
	if _, err := Parse(testEnv(), `pftables -s SYSHIGH -j DROP`); err != nil {
		t.Errorf("SYSHIGH over a policy with trusted labels: %v", err)
	}
}
