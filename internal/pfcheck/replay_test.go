package pfcheck

import (
	"reflect"
	"testing"

	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
)

// TestReplayMatchesInstall: the chains Analyze analyzes are, rule for rule,
// the chains an engine holds after ApplyAllFrom of the same lines, for
// files that together use every command the grammar has (-N, -I, -A, -D by
// rendering, -D --tag, -R, -F, -F chain, -t mangle). Each file is clean
// once replayed the way an install applies it. The first three used to
// draw false findings from a separate chain model: a rule the flush had
// removed shadowing a later one (plus a chain named ""), a rule the -R had
// replaced shadowing a later LOG, and an install error for the drain.
func TestReplayMatchesInstall(t *testing.T) {
	files := []struct {
		name  string
		lines []string
	}{
		{"flush.pft", []string{
			"pftables -A input -s httpd_t -j ACCEPT",
			"pftables -F",
			"pftables -A input -s httpd_t -d shadow_t -j DROP",
		}},
		{"replace.pft", []string{
			"pftables -A input -s httpd_t -j ACCEPT",
			"pftables -A input -s httpd_t -d tmp_t -j LOG",
			"pftables -R input 1 -s httpd_t -d shadow_t -j ACCEPT",
		}},
		{"wave.pft", []string{
			"pftables -A input -s httpd_t -j ACCEPT",
			"pftables -D input --tag wave.pft",
			"pftables -A input -s httpd_t -d shadow_t -j DROP",
		}},
		{"delete.pft", []string{
			"pftables -N web",
			"pftables -A input -s httpd_t -o FILE_OPEN -j web",
			"pftables -A web -j ACCEPT",
			"pftables -I web -d shadow_t -j DROP",
			"pftables -A web -d tmp_t -j LOG --prefix tmp",
			"pftables -D web -j ACCEPT",
		}},
		{"flush-chain.pft", []string{
			"pftables -A input -s httpd_t -j web",
			"pftables -A web -d shadow_t -j ACCEPT",
			"pftables -F web",
			"pftables -A web -d shadow_t -j DROP",
		}},
		{"mangle.pft", []string{
			"pftables -t mangle -A input -o FILE_OPEN -j STATE --set --key 0x9 --value 1",
			"pftables -t mangle -I input -o FILE_OPEN -j LOG --prefix mangle",
			"pftables -A input -s httpd_t -o FILE_OPEN -m STATE --key 0x9 --cmp 1 -j DROP",
		}},
	}
	for _, f := range files {
		env := testEnv()
		tbl := env.Policy.SIDs()
		e := pf.New(env.Policy, pf.Config{})
		if _, err := pftables.ApplyAllFrom(env, e, f.name, f.lines); err != nil {
			t.Fatalf("%s: install: %v", f.name, err)
		}
		chains, _ := replay(env, f.name, f.lines, &Report{})
		if _, ok := chains[""]; ok {
			t.Errorf("%s: replay made a chain named \"\"", f.name)
		}
		if got, want := rendered(chains, tbl), rendered(e.Program().Chains(), tbl); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replay holds\n%q\nan install holds\n%q", f.name, got, want)
		}
		if rep := Analyze(env, f.name, f.lines, nil); len(rep.Findings) != 0 {
			t.Errorf("%s: want no findings, got %v", f.name, rep.Findings)
		}
	}
}

// rendered lists each chain's rules as source position plus rule text.
func rendered(chains map[string]*pf.Chain, tbl *mac.SIDTable) map[string][]string {
	out := make(map[string][]string, len(chains))
	for name, c := range chains {
		rules := []string{}
		for _, r := range c.Rules {
			rules = append(rules, r.Src.String()+" "+r.String(tbl))
		}
		out[name] = rules
	}
	return out
}
