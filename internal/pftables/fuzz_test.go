package pftables

import (
	"testing"

	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
)

// FuzzParseRule: ParseAt never panics, and an accepted -I/-A line renders
// (Rule.String) to text that ParseAt reads back to the same rendering, the
// property Save → InstallAll relies on. Single-quoted values that carry
// whitespace are quoted again by the rendering. Each line runs under a
// policy that trusts labels and under one that trusts none, where SYSHIGH
// expands to nothing.
//
// The seed corpus (testdata/fuzz) holds the lines of examples/rules/*.pft
// (standard.pft is programs.StandardRules), policyd churn lines (a wave
// rule, a drain by tag, a flush, a replace), mangle STATE/LOG lines, and
// the inputs that broke the property: chain names that normalize to
// nothing, LOG prefixes holding a backslash or a control byte, SYSHIGH
// over a policy that trusts no label, a SYSCALL_ARGS --arg past the int
// range, and quoted program paths and labels holding a space.
func FuzzParseRule(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		for _, env := range []*Env{testEnv(), {Policy: mac.NewPolicy(mac.NewSIDTable())}} {
			cmd, err := ParseAt(env, line, pf.Pos{File: "fuzz.pft", Line: 1})
			if err != nil || cmd.NewChainName != "" || (cmd.Action != 'I' && cmd.Action != 'A') {
				continue
			}
			tbl := env.Policy.SIDs()
			text := cmd.Rule.String(tbl)
			back, err := ParseAt(env, text, pf.Pos{})
			if err != nil {
				t.Fatalf("%q renders as %q, which does not parse: %v", line, text, err)
			}
			if got := back.Rule.String(tbl); got != text {
				t.Fatalf("%q renders as %q, which reads back as %q", line, text, got)
			}
		}
	})
}
