// Package pfcheck is the pftables static analyzer: it replays a ruleset
// through pftables.Apply on a scratch engine, so it analyzes exactly the
// chains an install would publish, and layers three kinds of semantic
// findings on top of the pf package's reachability analysis (DESIGN.md §8):
//
//   - shadowing / unreachability: rules the per-field match-space lattice
//     proves can never fire (first-match shadowing, empty sets, op-context
//     mismatches, dead chains);
//   - jump-graph defects: jumps to chains that cannot exist, jump cycles,
//     user chains no built-in chain reaches;
//   - symbol validation: labels, programs, and entrypoint offsets that are
//     not known to the MAC policy or the program registry — a rule naming
//     one parses fine and silently matches nothing, the worst failure mode
//     for a protection system.
//
// Every finding carries a source position (file:line:col) and a severity.
// Error-class findings are defects that change enforcement (conflicting
// shadowed verdicts, rules that cannot match, installs that would fail);
// warnings flag suspicious-but-harmless rules (redundant shadows, unknown
// symbols, dead side effects); info notes the rest.
package pfcheck

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
)

// Severity classifies a finding.
type Severity uint8

// Severities, in increasing order of badness.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String names the severity the way findings print it.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	}
	return "info"
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(s.String())), nil
}

// Finding codes. Codes are stable identifiers tests and tooling match on;
// messages are for humans.
const (
	CodeParse      = "parse"           // line does not parse
	CodeInstall    = "install"         // line parses but installing it would fail
	CodeShadowed   = "shadowed"        // earlier rule covers this one (conflicting or side-effecting)
	CodeRedundant  = "redundant"       // earlier rule covers this one with the same outcome
	CodeNeverMatch = "never-matches"   // match space empty or disjoint from chain's op context
	CodeDeadChain  = "dead-chain"      // chain unreachable from any built-in chain
	CodeJumpCycle  = "jump-cycle"      // chains jump in a loop
	CodeEmptyJump  = "empty-chain"     // jump to a chain holding no rules
	CodeUnknownLbl = "unknown-label"   // label not in the MAC policy
	CodeUnknownPrg = "unknown-program" // -p path not in the system image
	CodeUnknownEnt = "unknown-entry"   // -i offset not a named call site of -p
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Sev  Severity `json:"severity"`
	Code string   `json:"code"`
	Pos  pf.Pos   `json:"pos"`
	Msg  string   `json:"message"`
}

// String renders the finding compiler-style.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: [%s] %s", f.Pos, f.Sev, f.Code, f.Msg)
}

// MarshalJSON renders the position both as the compiler-style "file:line:col"
// string tooling greps for and as its split fields.
func (f Finding) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Sev  Severity `json:"severity"`
		Code string   `json:"code"`
		Pos  string   `json:"pos"`
		File string   `json:"file,omitempty"`
		Line int      `json:"line,omitempty"`
		Col  int      `json:"col,omitempty"`
		Msg  string   `json:"message"`
	}{f.Sev, f.Code, f.Pos.String(), f.Pos.File, f.Pos.Line, f.Pos.Col, f.Msg})
}

// Report is the result of one analysis run. It marshals to the stable JSON
// document pfctl -check -json emits.
type Report struct {
	// File is the name findings cite (may be empty for engine analyses).
	File string `json:"file,omitempty"`
	// Rules and Chains count what was analyzed.
	Rules  int `json:"rules"`
	Chains int `json:"chains"`
	// Findings, sorted by (line, col, severity desc, code, message) and
	// deduplicated.
	Findings []Finding `json:"findings"`
}

func (r *Report) add(sev Severity, code string, pos pf.Pos, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Sev: sev, Code: code, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Count reports how many findings carry severity sev.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Sev == sev {
			n++
		}
	}
	return n
}

// HasErrors reports whether any error-class finding exists; pfctl -check
// exits non-zero exactly when it does.
func (r *Report) HasErrors() bool { return r.Count(SevError) > 0 }

// sortFindings fixes a deterministic order: source position first, then
// severity (errors before warnings), then code and message as tiebreakers.
func (r *Report) sortFindings() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Sev != b.Sev {
			return a.Sev > b.Sev
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}

// Summary is the compact form pfctl -stats embeds.
type Summary struct {
	Rules    int `json:"rules"`
	Chains   int `json:"chains"`
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
}

// Summary tallies the report.
func (r *Report) Summary() Summary {
	return Summary{
		Rules:    r.Rules,
		Chains:   r.Chains,
		Errors:   r.Count(SevError),
		Warnings: r.Count(SevWarning),
		Infos:    r.Count(SevInfo),
	}
}

// Symbols supplies the external name registries rules are validated
// against. Nil predicates (and a nil Entrypoints map) skip that check.
type Symbols struct {
	// KnownLabel reports whether a MAC label existed before the ruleset
	// interned anything. The SID table interns on demand, so this must be
	// a snapshot taken before parsing — see LabelSnapshot.
	KnownLabel func(mac.Label) bool
	// KnownProgram reports whether a -p path exists in the system image.
	KnownProgram func(path string) bool
	// Entrypoints maps a program to its named call-site offsets (-i
	// validation). Programs absent from the map are not checked.
	Entrypoints map[string][]uint64
}

// LabelSnapshot captures the set of labels currently interned in pol's SID
// table as a KnownLabel predicate. Take it before parsing: parseSIDSet
// interns every label it sees, so a post-parse lookup can never tell a
// policy label from a ruleset typo.
func LabelSnapshot(pol *mac.Policy) func(mac.Label) bool {
	known := make(map[mac.Label]bool)
	for _, l := range pol.SIDs().Labels() {
		known[l] = true
	}
	return func(l mac.Label) bool { return known[l] }
}

// dedupe collapses findings that are exact duplicates (same severity, code,
// position, and message) into one — e.g. an unknown label cited by both the
// -s and -d set of the same rule. Requires sorted findings, so it runs right
// after sortFindings.
func (r *Report) dedupe() {
	out := r.Findings[:0]
	for i, f := range r.Findings {
		if i > 0 && f == r.Findings[i-1] {
			continue
		}
		out = append(out, f)
	}
	r.Findings = out
}

// Analyze parses and analyzes a ruleset without touching the live engine.
// The lines are replayed through pftables.Apply, the code every install
// runs, in one transaction on a scratch engine; a command that fails to
// apply becomes an install finding and the replay goes on. The chains the
// replay leaves then go through pf.AnalyzeChains, and every result is
// translated into a positioned finding.
func Analyze(env *pftables.Env, file string, lines []string, sym *Symbols) *Report {
	if sym == nil {
		sym = &Symbols{}
	}
	if sym.KnownLabel == nil && env.Policy != nil {
		s := *sym
		s.KnownLabel = LabelSnapshot(env.Policy)
		sym = &s
	}
	rep := &Report{File: file}
	chains, declared := replay(env, file, lines, rep)
	rep.analyze(env.Policy.SIDs(), chains, sym, file)

	// Jumps into empty chains: the traversal is a no-op. When the target
	// chain was never even declared, the name is almost certainly a typo
	// that the installer's auto-creation silently absorbed.
	for _, c := range chains {
		for _, r := range c.Rules {
			jt, ok := r.Target.(*pf.JumpTarget)
			if !ok {
				continue
			}
			if len(chains[jt.ChainName].Rules) > 0 {
				continue
			}
			if declared[jt.ChainName] {
				rep.add(SevInfo, CodeEmptyJump, r.Src, "jump to declared chain %q, which holds no rules", jt.ChainName)
			} else {
				rep.add(SevWarning, CodeEmptyJump, r.Src, "jump to chain %q, which holds no rules and was never declared with -N — possible chain-name typo", jt.ChainName)
			}
		}
	}

	rep.sortFindings()
	rep.dedupe()
	return rep
}

// replay applies lines to a scratch engine the way ApplyAllFrom would,
// except that a line which fails to parse or apply is reported to rep and
// skipped. It returns the chains of the program the transaction compiles
// and the names of the chains an explicit -N created; rep.Rules counts the
// -I and -A commands applied. The gate keeps the candidate, so a rule base
// whose commit the engine refuses (a jump cycle) is still analyzed.
func replay(env *pftables.Env, file string, lines []string, rep *Report) (map[string]*pf.Chain, map[string]bool) {
	declared := map[string]bool{}
	e := pf.New(env.Policy, pf.Config{})
	var cand *pf.Program
	keep := func(p *pf.Program) error { cand = p; return nil }
	// The callback never fails, and a refused commit is the analysis's
	// to report.
	_ = e.TransactionGated(func(tx *pf.Tx) error {
		for i, line := range lines {
			pos := pf.Pos{File: file, Line: i + 1}
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			cmd, err := pftables.ParseAt(env, line, pos)
			if err != nil {
				var pe *pftables.Error
				if errors.As(err, &pe) {
					pos, err = pe.Pos, pe.Err
				}
				rep.add(SevError, CodeParse, pos, "%v", err)
				continue
			}
			if err := pftables.Apply(env, tx, cmd); err != nil {
				rep.add(SevError, CodeInstall, pos, "%v", err)
				continue
			}
			switch {
			case cmd.NewChainName != "":
				declared[cmd.NewChainName] = true
			case cmd.Action == 'I' || cmd.Action == 'A':
				rep.Rules++
			}
		}
		return nil
	}, keep)
	return cand.Chains(), declared
}

// AnalyzeEngine runs the semantic analysis over an engine's installed
// ruleset (the load-time variant: rules carry positions when they were
// installed through InstallAt). Source-only checks — parse errors, install
// failures, empty-jump heuristics — do not apply here.
func AnalyzeEngine(e *pf.Engine, sym *Symbols) *Report {
	return AnalyzeRuleset(e.Policy().SIDs(), e.Program().Chains(), sym)
}

// AnalyzeRuleset is AnalyzeEngine over a bare chain map, for callers that
// hold a candidate rule base not (yet) installed in any engine — policyd
// gates each transactional delta through it before the publish commits.
func AnalyzeRuleset(tbl *mac.SIDTable, chains map[string]*pf.Chain, sym *Symbols) *Report {
	if sym == nil {
		sym = &Symbols{}
	}
	rep := &Report{}
	for _, c := range chains {
		rep.Rules += len(c.Rules)
	}
	rep.analyze(tbl, chains, sym, "")
	rep.sortFindings()
	rep.dedupe()
	return rep
}

// analyze adds the findings every analysis shares: symbol validation of
// each rule and the translated pf.AnalyzeChains results.
func (r *Report) analyze(tbl *mac.SIDTable, chains map[string]*pf.Chain, sym *Symbols, file string) {
	for _, c := range chains {
		for _, rule := range c.Rules {
			symbolFindings(r, rule, sym, tbl)
		}
	}
	r.Chains = len(chains)
	analysisFindings(r, pf.AnalyzeChains(chains), chains, file)
}

// analysisFindings translates a pf.RulesetAnalysis into findings.
func analysisFindings(rep *Report, an *pf.RulesetAnalysis, chains map[string]*pf.Chain, file string) {
	for _, u := range an.Unreachable {
		pos := u.Rule.Src
		switch u.Kind {
		case pf.UnreachEmptySubject:
			rep.add(SevError, CodeNeverMatch, pos, "rule can never match: its -s set is empty (no process carries a matching label)")
		case pf.UnreachEmptyObject:
			rep.add(SevError, CodeNeverMatch, pos, "rule can never match: its -d set is empty (no resource carries a matching label)")
		case pf.UnreachOpContext:
			rep.add(SevError, CodeNeverMatch, pos, "rule can never match: no operation that reaches chain %q satisfies its -o mask", u.Chain)
		case pf.UnreachShadowed:
			by := ruleRef(u.Chain, u.ByIndex, u.By)
			switch {
			case u.SameVerdict:
				rep.add(SevWarning, CodeRedundant, pos, "redundant: %s already applies %s to every request this rule can match", by, targetName(u.Rule))
			case isTerminal(u.Rule):
				rep.add(SevError, CodeShadowed, pos, "unreachable: %s covers this rule's entire match space, so its %s verdict never applies", by, targetName(u.Rule))
			default:
				rep.add(SevWarning, CodeShadowed, pos, "dead side effect: %s covers this rule's entire match space, so its %s target never fires", by, targetName(u.Rule))
			}
		case pf.UnreachDeadChain:
			// Reported once per chain below.
		}
	}
	for _, name := range an.DeadChains {
		c := chains[name]
		pos := pf.Pos{File: file}
		if len(c.Rules) > 0 {
			pos = c.Rules[0].Src
		}
		sev, detail := SevWarning, fmt.Sprintf("its %d rules are dead", len(c.Rules))
		if len(c.Rules) == 0 {
			sev, detail = SevInfo, "it holds no rules"
		}
		rep.add(sev, CodeDeadChain, pos, "chain %q is unreachable from any built-in chain; %s", name, detail)
	}
	for _, cyc := range an.Cycles {
		pos := pf.Pos{File: file}
		// Cite the jump that closes the cycle (last chain back to first).
		if from := chains[cyc[len(cyc)-1]]; from != nil {
			for _, r := range from.Rules {
				if jt, ok := r.Target.(*pf.JumpTarget); ok && jt.ChainName == cyc[0] && r.Src.IsSet() {
					pos = r.Src
					break
				}
			}
		}
		rep.add(SevError, CodeJumpCycle, pos, "jump cycle: %s -> %s", strings.Join(cyc, " -> "), cyc[0])
	}
}

// CycleJumps reports, as jump-cycle errors, every jump rule from source file
// that lies on a jump cycle of chains: a jump from chain a to chain b closes
// a loop exactly when a is reachable from b. The analyses cite each cycle
// at the one jump that closes it in DFS order, which may belong to another
// file; a gate that vetoes a batch's own defects asks this instead, so
// whether a batch may close a cycle does not depend on chain names.
func CycleJumps(chains map[string]*pf.Chain, file string) []Finding {
	type jump struct {
		from, to string
		r        *pf.Rule
	}
	var own []jump
	edges := make(map[string][]string, len(chains))
	for name, c := range chains {
		for _, r := range c.Rules {
			jt, ok := r.Target.(*pf.JumpTarget)
			if !ok || chains[jt.ChainName] == nil {
				continue
			}
			edges[name] = append(edges[name], jt.ChainName)
			if r.Src.File == file {
				own = append(own, jump{name, jt.ChainName, r})
			}
		}
	}
	var out []Finding
	for _, j := range own {
		// Breadth-first from the jump's target back to its chain; prev keeps
		// the search tree so the way back can be printed.
		prev := map[string]string{j.to: j.to}
		for queue := []string{j.to}; len(queue) > 0 && prev[j.from] == ""; queue = queue[1:] {
			for _, n := range edges[queue[0]] {
				if prev[n] == "" {
					prev[n] = queue[0]
					queue = append(queue, n)
				}
			}
		}
		if prev[j.from] == "" {
			continue
		}
		cyc := []string{j.from}
		if j.from != j.to {
			var walk []string // the chain that jumps back to j.from, ..., j.to
			for n := prev[j.from]; ; n = prev[n] {
				walk = append(walk, n)
				if n == j.to {
					break
				}
			}
			slices.Reverse(walk)
			cyc = append(cyc, walk...)
		}
		out = append(out, Finding{Sev: SevError, Code: CodeJumpCycle, Pos: j.r.Src,
			Msg: fmt.Sprintf("jump cycle: %s -> %s", strings.Join(cyc, " -> "), j.from)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].String() < out[b].String() })
	return out
}

// symbolFindings validates one rule's labels, program, and entrypoint
// against the registries.
func symbolFindings(rep *Report, r *pf.Rule, sym *Symbols, tbl *mac.SIDTable) {
	pos := r.Src
	if known := sym.KnownLabel; known != nil {
		for _, set := range []*pf.SIDSet{r.Subject, r.Object} {
			if set == nil {
				continue
			}
			for _, sid := range set.SIDs() {
				if lbl := tbl.Label(sid); lbl != "" && !known(lbl) {
					rep.add(SevWarning, CodeUnknownLbl, pos, "label %q is not defined by the MAC policy; the rule matches nothing until it is", lbl)
				}
			}
		}
	}
	progKnown := true
	if r.Program != "" && sym.KnownProgram != nil {
		if progKnown = sym.KnownProgram(r.Program); !progKnown {
			rep.add(SevWarning, CodeUnknownPrg, pos, "program %q does not exist in the system image", r.Program)
		}
	}
	if r.EntrySet && progKnown && sym.Entrypoints != nil {
		if offs, ok := sym.Entrypoints[r.Program]; ok && !containsOff(offs, r.Entry) {
			rep.add(SevWarning, CodeUnknownEnt, pos, "%#x is not a named call site of %s (known: %s)", r.Entry, r.Program, offList(offs))
		}
	}
}

func containsOff(offs []uint64, off uint64) bool {
	for _, o := range offs {
		if o == off {
			return true
		}
	}
	return false
}

func offList(offs []uint64) string {
	parts := make([]string, len(offs))
	for i, o := range offs {
		parts[i] = fmt.Sprintf("%#x", o)
	}
	return strings.Join(parts, ", ")
}

// ruleRef names a shadowing rule for a message, preferring its source line.
func ruleRef(chain string, idx int, r *pf.Rule) string {
	if r != nil && r.Src.Line > 0 {
		return fmt.Sprintf("the rule at line %d", r.Src.Line)
	}
	return fmt.Sprintf("rule #%d of chain %q", idx, chain)
}

func targetName(r *pf.Rule) string {
	if r.Target == nil {
		return "(none)"
	}
	return r.Target.TargetName()
}

func isTerminal(r *pf.Rule) bool {
	switch r.Target.(type) {
	case *pf.VerdictTarget, *pf.ReturnTarget:
		return true
	}
	return false
}
