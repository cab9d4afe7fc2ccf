// Package pftables implements the Process Firewall rule language of paper
// Table 3 — the userspace side that parses pftables command lines,
// validates them, translates symbolic names (SELinux labels, SYSHIGH,
// filenames, NR_* syscall names) into the integer forms the kernel engine
// matches on, and installs the result (paper Section 5.2: "The PF rule
// setup module translates input rules into an enforceable form ... it
// translates filenames into inode numbers and SELinux security labels into
// security IDs for fast matching").
//
// Grammar (Table 3):
//
//	pftables [-t table] [-I|-A|-D] [chain] rule_spec
//	rule_spec : [def_match] [list of match] [target]
//	match     : -m match_mod_name [match_mod_options]
//	target    : -j target_mod_name [target_mod_options]
//	def_match : -s process_label -d object_label
//	          : -i entry_point -o lsm_operation -p program [-f filename]
package pftables

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"unicode"

	"pfirewall/internal/ipc"
	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
)

// Env supplies the system facilities rule compilation needs.
type Env struct {
	// Policy resolves labels to SIDs and expands SYSHIGH.
	Policy *mac.Policy
	// LookupPath translates a filename in a rule into its inode number;
	// nil disables -f. ok is false for nonexistent paths.
	LookupPath func(path string) (ino uint64, ok bool)
	// Syscalls resolves NR_<name> constants; nil disables them.
	Syscalls map[string]int
}

// Cmd is a parsed pftables command line.
type Cmd struct {
	Table  string // filter (default) or mangle
	Action byte   // 'I' insert, 'A' append, 'D' delete, 'R' replace, 'F' flush
	Chain  string
	Rule   *pf.Rule
	// NewChainName is set for "-N chain" commands.
	NewChainName string
	// RulePos is the 1-based chain position for "-R chain N rule_spec".
	RulePos int
	// Tag is set for "-D chain --tag <src>": remove every rule whose
	// recorded source file equals the tag, however many there are. Churn
	// controllers tag their waves and drain them in one command without
	// rendering rules for matching.
	Tag string
	// Pos is where the command came from (set by ParseAt / InstallAll).
	Pos pf.Pos
}

// Error is a pftables parse or install error carrying the source position
// of the offending line (and, for parse errors, the offending token's
// column). Errors from Parse (no position supplied) report only a column.
type Error struct {
	Pos pf.Pos
	Err error
}

// Error renders the position compiler-style ahead of the message.
func (e *Error) Error() string {
	if e.Pos.IsSet() {
		return fmt.Sprintf("%s: %v", e.Pos, e.Err)
	}
	return e.Err.Error()
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// KeyFor hashes a symbolic STATE key (e.g. 'sig') into the dictionary key
// space; numeric keys are used directly by the parser.
func KeyFor(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// token is one whitespace-delimited word plus the 1-based rune column of
// its first character, so parse errors can point inside the line.
type token struct {
	text string
	col  int
}

// tokenize splits a command line on whitespace, honoring single quotes.
func tokenize(line string) ([]token, error) {
	var toks []token
	var cur strings.Builder
	inQuote := false
	col, startCol := 0, 0
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, token{text: cur.String(), col: startCol})
			cur.Reset()
		}
	}
	for _, r := range line {
		col++
		switch {
		case r == '\'':
			inQuote = !inQuote
			if cur.Len() == 0 {
				startCol = col
			}
			// Preserve emptiness markers: quotes delimit a token even if empty.
			cur.WriteRune(0)
		case !inQuote && (r == ' ' || r == '\t'):
			flush()
		default:
			if cur.Len() == 0 {
				startCol = col
			}
			cur.WriteRune(r)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("pftables: unterminated quote")
	}
	flush()
	// Strip the NUL markers inserted for quotes.
	for i := range toks {
		toks[i].text = strings.ReplaceAll(toks[i].text, "\x00", "")
	}
	return toks, nil
}

// builtinChains are always present.
var builtinChains = map[string]bool{
	"input": true, "output": true, "syscallbegin": true, "mangle/input": true,
}

// Parse parses one pftables command line into a Cmd. The rule is not yet
// bound to an engine; use Compile/Install.
func Parse(env *Env, line string) (*Cmd, error) {
	return ParseAt(env, line, pf.Pos{})
}

// ParseAt is Parse with a source position: errors come back as *Error
// pointing at the offending token, and the parsed rule carries pos in its
// Src field so downstream findings can cite the source line.
func ParseAt(env *Env, line string, pos pf.Pos) (*Cmd, error) {
	cmd, errCol, err := parseLine(env, line)
	if err != nil {
		return nil, &Error{Pos: pos.WithCol(errCol), Err: err}
	}
	cmd.Pos = pos
	if cmd.Rule != nil {
		cmd.Rule.Src = pos
	}
	return cmd, nil
}

// parseLine does the parsing proper; errCol is the column of the token the
// parser was positioned at when the error occurred (0 when unknown).
func parseLine(env *Env, line string) (cmd *Cmd, errCol int, err error) {
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "#") {
		return nil, 0, fmt.Errorf("pftables: comment line")
	}
	toks, err := tokenize(line)
	if err != nil {
		return nil, 0, err
	}
	if len(toks) == 0 {
		return nil, 0, fmt.Errorf("pftables: empty command")
	}
	if toks[0].text == "pftables" {
		toks = toks[1:]
	}
	cmd = &Cmd{Table: "filter", Action: 'A', Chain: "input", Rule: &pf.Rule{}}
	var matches []pf.Match
	// Columns of flags whose validity is only known once the whole line has
	// been scanned; the end-of-parse checks cite them instead of column 0.
	rCol, tagCol := 0, 0
	i := 0

	next := func(i int, opt string) (string, error) {
		if i+1 >= len(toks) {
			return "", fmt.Errorf("pftables: %s requires an argument", opt)
		}
		return toks[i+1].text, nil
	}
	// chainOperand consumes the optional chain operand after toks[i].
	chainOperand := func() error {
		if i+1 >= len(toks) || strings.HasPrefix(toks[i+1].text, "-") {
			i++
			return nil
		}
		name, err := chainName(toks[i+1].text)
		if err != nil {
			errCol = toks[i+1].col
			return err
		}
		cmd.Chain = name
		i += 2
		return nil
	}
	texts := func(from int) []string {
		out := make([]string, 0, len(toks)-from)
		for _, tk := range toks[from:] {
			out = append(out, tk.text)
		}
		return out
	}

	for i < len(toks) {
		errCol = toks[i].col
		t := toks[i].text
		switch t {
		case "-t":
			v, err := next(i, t)
			if err != nil {
				return nil, errCol, err
			}
			if v != "filter" && v != "mangle" {
				return nil, errCol, fmt.Errorf("pftables: unknown table %q", v)
			}
			cmd.Table = v
			i += 2
		case "-I", "-A", "-D":
			cmd.Action = t[1]
			if err := chainOperand(); err != nil {
				return nil, errCol, err
			}
		case "-R":
			// Replace-by-position: -R chain N rule_spec (1-based, like
			// iptables -R). The position operand is required.
			cmd.Action = 'R'
			rCol = errCol
			if err := chainOperand(); err != nil {
				return nil, errCol, err
			}
			if i < len(toks) && !strings.HasPrefix(toks[i].text, "-") {
				errCol = toks[i].col
				v, err := parseUint(toks[i].text)
				if err != nil || v == 0 {
					return nil, errCol, fmt.Errorf("pftables: -R: bad rule position %q", toks[i].text)
				}
				cmd.RulePos = int(v)
				i++
			}
		case "-F":
			// Flush: -F [chain]; without a chain every chain is emptied.
			cmd.Action = 'F'
			cmd.Chain = ""
			if err := chainOperand(); err != nil {
				return nil, errCol, err
			}
		case "--tag":
			tagCol = errCol
			v, err := next(i, t)
			if err != nil {
				return nil, errCol, err
			}
			cmd.Tag = v
			i += 2
		case "-N":
			v, err := next(i, t)
			if err != nil {
				return nil, errCol, err
			}
			if cmd.NewChainName, err = chainName(v); err != nil {
				return nil, toks[i+1].col, err
			}
			i += 2
		case "-s":
			v, err := next(i, t)
			if err != nil {
				return nil, errCol, err
			}
			set, err := parseSIDSet(env, v)
			if err != nil {
				return nil, errCol, err
			}
			cmd.Rule.Subject = set
			i += 2
		case "-d":
			v, err := next(i, t)
			if err != nil {
				return nil, errCol, err
			}
			set, err := parseSIDSet(env, v)
			if err != nil {
				return nil, errCol, err
			}
			cmd.Rule.Object = set
			i += 2
		case "-p", "-b": // -b "binary" appears in template T2
			v, err := next(i, t)
			if err != nil {
				return nil, errCol, err
			}
			cmd.Rule.Program = v
			i += 2
		case "-i":
			v, err := next(i, t)
			if err != nil {
				return nil, errCol, err
			}
			off, err := parseUint(v)
			if err != nil {
				return nil, errCol, fmt.Errorf("pftables: bad entrypoint %q: %v", v, err)
			}
			cmd.Rule.Entry = off
			cmd.Rule.EntrySet = true
			i += 2
		case "-o":
			v, err := next(i, t)
			if err != nil {
				return nil, errCol, err
			}
			var ops pf.OpSet
			for _, name := range strings.Split(v, ",") {
				op, err := pf.ParseOp(name)
				if err != nil {
					return nil, errCol, err
				}
				ops |= pf.NewOpSet(op)
				// Backward compatibility: fifo creation used to be mediated
				// as the generic FILE_CREATE, so rule files written before
				// FIFO_CREATE existed keep covering mkfifo.
				if op == pf.OpFileCreate {
					ops |= pf.NewOpSet(pf.OpFifoCreate)
				}
			}
			cmd.Rule.Ops = ops
			i += 2
		case "--res-id":
			v, err := next(i, t)
			if err != nil {
				return nil, errCol, err
			}
			id, err := parseUint(v)
			if err != nil {
				return nil, errCol, fmt.Errorf("pftables: bad --res-id %q", v)
			}
			cmd.Rule.ResID = id
			cmd.Rule.ResIDSet = true
			i += 2
		case "-f":
			v, err := next(i, t)
			if err != nil {
				return nil, errCol, err
			}
			if env.LookupPath == nil {
				return nil, errCol, fmt.Errorf("pftables: -f unsupported without path lookup")
			}
			ino, ok := env.LookupPath(v)
			if !ok {
				return nil, errCol, fmt.Errorf("pftables: -f %s: no such file", v)
			}
			cmd.Rule.ResID = ino
			cmd.Rule.ResIDSet = true
			i += 2
		case "-m":
			name, err := next(i, t)
			if err != nil {
				return nil, errCol, err
			}
			m, n, err := parseMatch(env, name, texts(i+2))
			if err != nil {
				return nil, errCol, err
			}
			matches = append(matches, m)
			i += 2 + n
		case "-j":
			name, err := next(i, t)
			if err != nil {
				return nil, errCol, err
			}
			tg, n, err := parseTarget(env, name, texts(i+2))
			if err != nil {
				return nil, errCol, err
			}
			if j, ok := tg.(*pf.JumpTarget); ok {
				if j.ChainName, err = chainName(name); err != nil {
					return nil, toks[i+1].col, err
				}
				if builtinChains[j.ChainName] {
					// Like iptables: requests enter built-in chains only at
					// their hooks, so a jump must name a user chain.
					return nil, toks[i+1].col, fmt.Errorf("pftables: cannot jump to built-in chain %q", name)
				}
			}
			cmd.Rule.Target = tg
			i += 2 + n
		default:
			return nil, errCol, fmt.Errorf("pftables: unexpected token %q", t)
		}
	}
	cmd.Rule.Matches = matches
	if cmd.Action == 'R' && cmd.RulePos == 0 {
		return nil, rCol, fmt.Errorf("pftables: -R requires a 1-based rule position")
	}
	if cmd.Tag != "" && cmd.Action != 'D' {
		return nil, tagCol, fmt.Errorf("pftables: --tag is only valid with -D")
	}
	needRule := cmd.NewChainName == "" && cmd.Action != 'F' && cmd.Tag == ""
	if needRule && cmd.Rule.Target == nil {
		col := 0
		if len(toks) > 0 {
			col = toks[0].col
		}
		return nil, col, fmt.Errorf("pftables: rule has no target (-j)")
	}
	return cmd, 0, nil
}

// normalizeChain lowercases chain names and collapses the paper's
// "create/input" spelling onto input.
func normalizeChain(name string) string {
	n := strings.ToLower(name)
	if strings.Contains(n, "/") {
		parts := strings.Split(n, "/")
		n = parts[len(parts)-1]
	}
	return n
}

// chainName normalizes a chain operand and rejects one that normalizes to
// nothing ("x/"), to a flag ("x/-j") or to a name holding whitespace: no
// command could name that chain again, and a jump to it would render as a
// line that does not parse back.
func chainName(s string) (string, error) {
	n := normalizeChain(s)
	if n == "" || strings.HasPrefix(n, "-") || strings.ContainsFunc(n, unicode.IsSpace) {
		return "", fmt.Errorf("pftables: bad chain name %q", s)
	}
	return n, nil
}

// parseSIDSet handles "label", "~{a|b|c}", "{a|b}", "SYSHIGH", "~{SYSHIGH}".
func parseSIDSet(env *Env, s string) (*pf.SIDSet, error) {
	negate := strings.HasPrefix(s, "~")
	body := strings.TrimPrefix(s, "~")
	body = strings.TrimPrefix(body, "{")
	body = strings.TrimSuffix(body, "}")
	if body == "" {
		return nil, fmt.Errorf("pftables: empty label set")
	}
	var sids []mac.SID
	for _, name := range strings.Split(body, "|") {
		name = strings.TrimSpace(name)
		switch name {
		case "":
			return nil, fmt.Errorf("pftables: empty label in set %q", s)
		case "SYSHIGH":
			// The TCB keyword expands to every trusted label at install
			// time (paper Section 5.2).
			sids = append(sids, env.Policy.TrustedSet()...)
		default:
			sids = append(sids, env.Policy.SIDs().SID(mac.Label(name)))
		}
	}
	if len(sids) == 0 {
		// SYSHIGH over a policy that trusts no label.
		return nil, fmt.Errorf("pftables: label set %q is empty: the policy trusts no label", s)
	}
	return pf.NewSIDSet(negate, sids...), nil
}

// parseUint accepts decimal or 0x-prefixed hex.
func parseUint(s string) (uint64, error) {
	return strconv.ParseUint(strings.TrimPrefix(s, "0x"), map[bool]int{true: 16, false: 10}[strings.HasPrefix(s, "0x")], 64)
}

// parseValue handles literals, C_* context references, and NR_* syscall
// numbers.
func parseValue(env *Env, s string) (pf.Value, error) {
	if ref, ok := pf.ParseRef(s); ok {
		return pf.Value{Ref: ref}, nil
	}
	if strings.HasPrefix(s, "NR_") {
		if env.Syscalls == nil {
			return pf.Value{}, fmt.Errorf("pftables: NR_ constants unsupported without syscall table")
		}
		nr, ok := env.Syscalls[strings.TrimPrefix(s, "NR_")]
		if !ok {
			return pf.Value{}, fmt.Errorf("pftables: unknown syscall %q", s)
		}
		return pf.Literal(uint64(nr)), nil
	}
	v, err := parseUint(s)
	if err != nil {
		return pf.Value{}, fmt.Errorf("pftables: bad value %q", s)
	}
	return pf.Literal(v), nil
}

// parseKey accepts hex/decimal keys or symbolic names (hashed).
func parseKey(s string) uint64 {
	if v, err := parseUint(s); err == nil {
		return v
	}
	return KeyFor(s)
}

// parseMatch consumes a match module's options from toks, returning the
// module and the number of tokens consumed.
func parseMatch(env *Env, name string, toks []string) (pf.Match, int, error) {
	switch name {
	case "STATE":
		m := &pf.StateMatch{}
		i := 0
		seenKey, seenCmp := false, false
		for i < len(toks) {
			switch toks[i] {
			case "--key":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: STATE --key needs a value")
				}
				m.Key = parseKey(toks[i+1])
				seenKey = true
				i += 2
			case "--cmp":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: STATE --cmp needs a value")
				}
				v, err := parseValue(env, toks[i+1])
				if err != nil {
					return nil, 0, err
				}
				m.Cmp = v
				seenCmp = true
				i += 2
			case "--nequal":
				m.Nequal = true
				i++
			case "--equal":
				m.Nequal = false
				i++
			default:
				goto doneState
			}
		}
	doneState:
		if !seenKey || !seenCmp {
			return nil, 0, fmt.Errorf("pftables: STATE match requires --key and --cmp")
		}
		return m, i, nil
	case "COMPARE":
		m := &pf.CompareMatch{}
		i := 0
		seen1, seen2 := false, false
		for i < len(toks) {
			switch toks[i] {
			case "--v1", "--v2":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: COMPARE %s needs a value", toks[i])
				}
				v, err := parseValue(env, toks[i+1])
				if err != nil {
					return nil, 0, err
				}
				if toks[i] == "--v1" {
					m.V1, seen1 = v, true
				} else {
					m.V2, seen2 = v, true
				}
				i += 2
			case "--nequal":
				m.Nequal = true
				i++
			case "--equal":
				m.Nequal = false
				i++
			default:
				goto doneCompare
			}
		}
	doneCompare:
		if !seen1 || !seen2 {
			return nil, 0, fmt.Errorf("pftables: COMPARE requires --v1 and --v2")
		}
		return m, i, nil
	case "SIGNAL_MATCH":
		return &pf.SignalMatch{}, 0, nil
	case "SYSCALL_ARGS":
		m := &pf.SyscallArgsMatch{}
		i := 0
		for i < len(toks) {
			switch toks[i] {
			case "--arg":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: SYSCALL_ARGS --arg needs a value")
				}
				// Slot 0 is the syscall number; a request carries at most
				// 8 argument words (pf.Request.SetArgs).
				v, err := parseUint(toks[i+1])
				if err != nil || v > 8 {
					return nil, 0, fmt.Errorf("pftables: SYSCALL_ARGS: bad --arg %q (0-8)", toks[i+1])
				}
				m.Arg = int(v)
				i += 2
			case "--equal":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: SYSCALL_ARGS --equal needs a value")
				}
				v, err := parseValue(env, toks[i+1])
				if err != nil {
					return nil, 0, err
				}
				if v.Ref != pf.RefLiteral {
					return nil, 0, fmt.Errorf("pftables: SYSCALL_ARGS --equal must be a literal")
				}
				m.Equal = v.Lit
				i += 2
			default:
				goto doneSys
			}
		}
	doneSys:
		return m, i, nil
	case "PEER_CRED":
		m := &pf.PeerCredMatch{}
		i := 0
		seenUID := false
		for i < len(toks) {
			switch toks[i] {
			case "--uid":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: PEER_CRED --uid needs a value")
				}
				v, err := parseValue(env, toks[i+1])
				if err != nil {
					return nil, 0, err
				}
				m.UID = v
				seenUID = true
				i += 2
			case "--nequal":
				m.Nequal = true
				i++
			case "--equal":
				m.Nequal = false
				i++
			default:
				goto donePeer
			}
		}
	donePeer:
		if !seenUID {
			return nil, 0, fmt.Errorf("pftables: PEER_CRED requires --uid")
		}
		return m, i, nil
	case "SOCK_NS":
		m := &pf.SockNSMatch{}
		i := 0
		for i < len(toks) {
			switch toks[i] {
			case "--ns":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: SOCK_NS --ns needs a value")
				}
				ns, ok := ipc.ParseNS(toks[i+1])
				if !ok {
					return nil, 0, fmt.Errorf("pftables: SOCK_NS: unknown namespace %q", toks[i+1])
				}
				m.NS = ns.String()
				i += 2
			default:
				goto doneNS
			}
		}
	doneNS:
		if m.NS == "" {
			return nil, 0, fmt.Errorf("pftables: SOCK_NS requires --ns")
		}
		return m, i, nil
	case "PORT":
		m := &pf.PortMatch{}
		i := 0
		seen := false
		parsePort := func(s string) (uint16, error) {
			v, err := parseUint(s)
			if err != nil || v > 0xffff {
				return 0, fmt.Errorf("pftables: PORT: bad port %q", s)
			}
			return uint16(v), nil
		}
		for i < len(toks) {
			switch toks[i] {
			case "--port":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: PORT --port needs a value")
				}
				v, err := parsePort(toks[i+1])
				if err != nil {
					return nil, 0, err
				}
				m.Min, m.Max = v, v
				seen = true
				i += 2
			case "--min":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: PORT --min needs a value")
				}
				v, err := parsePort(toks[i+1])
				if err != nil {
					return nil, 0, err
				}
				m.Min = v
				seen = true
				i += 2
			case "--max":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: PORT --max needs a value")
				}
				v, err := parsePort(toks[i+1])
				if err != nil {
					return nil, 0, err
				}
				m.Max = v
				seen = true
				i += 2
			default:
				goto donePort
			}
		}
	donePort:
		if !seen {
			return nil, 0, fmt.Errorf("pftables: PORT requires --port or --min/--max")
		}
		return m, i, nil
	case "ADV_ACCESS":
		m := &pf.AdvAccessMatch{Want: true}
		i := 0
		for i < len(toks) {
			switch toks[i] {
			case "--write":
				m.Write = true
				i++
			case "--read":
				m.Write = false
				i++
			case "--is":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: ADV_ACCESS --is needs a value")
				}
				m.Want = toks[i+1] == "true" || toks[i+1] == "1"
				i += 2
			default:
				goto doneAdv
			}
		}
	doneAdv:
		return m, i, nil
	default:
		return nil, 0, fmt.Errorf("pftables: unknown match module %q", name)
	}
}

// parseTarget consumes a target module's options.
func parseTarget(env *Env, name string, toks []string) (pf.Target, int, error) {
	switch name {
	case "DROP":
		return pf.Drop(), 0, nil
	case "ACCEPT":
		return pf.Accept(), 0, nil
	case "RETURN":
		return &pf.ReturnTarget{}, 0, nil
	case "LOG":
		t := &pf.LogTarget{}
		if len(toks) == 0 || toks[0] != "--prefix" {
			return t, 0, nil
		}
		if len(toks) < 2 {
			return nil, 0, fmt.Errorf("pftables: LOG --prefix needs a value")
		}
		// Rule.String renders the prefix as a Go string literal, so its
		// escapes decode; a bare word keeps only its double quotes trimmed.
		t.Prefix = strings.Trim(toks[1], `"`)
		if u, err := strconv.Unquote(toks[1]); err == nil && strings.HasPrefix(toks[1], `"`) {
			t.Prefix = u
		}
		return t, 2, nil
	case "STATE":
		t := &pf.StateTarget{}
		i := 0
		seenKey, seenVal := false, false
		for i < len(toks) {
			switch toks[i] {
			case "--set":
				i++
			case "--key":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: STATE --key needs a value")
				}
				t.Key = parseKey(toks[i+1])
				seenKey = true
				i += 2
			case "--value":
				if i+1 >= len(toks) {
					return nil, 0, fmt.Errorf("pftables: STATE --value needs a value")
				}
				v, err := parseValue(env, toks[i+1])
				if err != nil {
					return nil, 0, err
				}
				t.Val = v
				seenVal = true
				i += 2
			default:
				goto doneStateT
			}
		}
	doneStateT:
		if !seenKey || !seenVal {
			return nil, 0, fmt.Errorf("pftables: STATE target requires --key and --value")
		}
		return t, i, nil
	default:
		// Any other name is a jump to a user chain (e.g. SIGNAL_CHAIN),
		// which the caller normalizes.
		if strings.HasPrefix(name, "-") {
			return nil, 0, fmt.Errorf("pftables: bad target %q", name)
		}
		return &pf.JumpTarget{ChainName: name}, 0, nil
	}
}

// Install parses line and applies it to engine as one transaction (see
// Apply). It returns the parsed Cmd.
func Install(env *Env, engine *pf.Engine, line string) (*Cmd, error) {
	return InstallAt(env, engine, line, pf.Pos{})
}

// InstallAt is Install with a source position threaded through to the
// installed rule and to any parse or install error.
func InstallAt(env *Env, engine *pf.Engine, line string, pos pf.Pos) (*Cmd, error) {
	cmd, err := ParseAt(env, line, pos)
	if err != nil {
		return nil, err
	}
	if err := engine.Transaction(func(tx *pf.Tx) error { return Apply(env, tx, cmd) }); err != nil {
		return nil, cmd.errorAt(err)
	}
	return cmd, nil
}

// Save renders the engine's entire rule base as pftables command lines
// that reproduce it through InstallAll — the pftables-save facility OS
// distributors ship rule packages with.
func Save(engine *pf.Engine) []string {
	var out []string
	tbl := engine.Policy().SIDs()
	for _, name := range engine.Chains() {
		c, _ := engine.Chain(name)
		if len(c.Rules) == 0 {
			continue
		}
		table, chain := "filter", name
		if strings.HasPrefix(name, "mangle/") {
			table, chain = "mangle", strings.TrimPrefix(name, "mangle/")
		}
		if !builtinChains[name] && table == "filter" {
			out = append(out, fmt.Sprintf("pftables -N %s", chain))
		}
	}
	for _, name := range engine.Chains() {
		c, _ := engine.Chain(name)
		table, chain := "filter", name
		if strings.HasPrefix(name, "mangle/") {
			table, chain = "mangle", strings.TrimPrefix(name, "mangle/")
		}
		for _, r := range c.Rules {
			out = append(out, fmt.Sprintf("pftables -t %s -A %s %s", table, chain, r.String(tbl)))
		}
	}
	return out
}

// InstallAll applies every non-empty, non-comment line as one transaction
// (see ApplyAllFrom), returning the number of commands applied. Errors
// carry the 1-based line number of the offending line.
func InstallAll(env *Env, engine *pf.Engine, lines []string) (int, error) {
	return ApplyAllFrom(env, engine, "", lines)
}

// InstallAllFrom is InstallAll with a source name: each rule's recorded
// position carries src as its file, so provenance spans and analyzer
// findings can name where a generated rule base came from.
func InstallAllFrom(env *Env, engine *pf.Engine, src string, lines []string) (int, error) {
	return ApplyAllFrom(env, engine, src, lines)
}

// ApplyAllFrom parses every non-empty, non-comment line and applies the
// whole batch as ONE engine transaction: one publish, one generation bump,
// one program derivation. It is all-or-nothing: on any parse or apply
// error nothing is installed, and the mediation path never observes a
// partially applied batch. A "-F" line followed by rule lines is therefore
// an atomic hitless reload: traffic sees the old ruleset until the instant
// the fully rebuilt one lands.
func ApplyAllFrom(env *Env, engine *pf.Engine, src string, lines []string) (int, error) {
	return ApplyAllGated(env, engine, src, lines, nil)
}

// ApplyAllGated is ApplyAllFrom with a pre-publish gate (see
// pf.Engine.TransactionGated): after the batch is staged and compiled, gate
// inspects the candidate program; a non-nil error vetoes the publish. The
// policy daemon runs pfcheck and pfverify here so a bad delta can never
// reach the mediation path.
func ApplyAllGated(env *Env, engine *pf.Engine, src string, lines []string, gate func(*pf.Program) error) (int, error) {
	cmds := make([]*Cmd, 0, len(lines))
	for i, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cmd, err := ParseAt(env, line, pf.Pos{File: src, Line: i + 1})
		if err != nil {
			return 0, fmt.Errorf("%q: %w", line, err)
		}
		cmds = append(cmds, cmd)
	}
	err := engine.TransactionGated(func(tx *pf.Tx) error {
		for _, cmd := range cmds {
			if err := Apply(env, tx, cmd); err != nil {
				return cmd.errorAt(err)
			}
		}
		return nil
	}, gate)
	if err != nil {
		return 0, err
	}
	return len(cmds), nil
}

// Apply applies one parsed command to an open transaction. It is the one
// place a pftables command turns into rule-base changes: Install, the batch
// applies and pfcheck's replay all run it. The chains a new rule names, its
// own (-I, -A) and a jump target (-I, -A, -R), are created on demand, so
// rule files need no -N lines (matching the paper's listings); -D, -R and
// -F act on a chain that exists. Mangle-table chains live under a "mangle/"
// prefix so the engine can run them ahead of the filter table.
func Apply(env *Env, tx *pf.Tx, cmd *Cmd) error {
	if cmd.NewChainName != "" {
		return tx.NewChain(cmd.NewChainName)
	}
	chain := cmd.Chain
	if cmd.Table == "mangle" && chain != "" {
		chain = "mangle/" + chain
	}
	ensure := func(name string) {
		if _, ok := tx.Chain(name); !ok && name != "" && !builtinChains[name] {
			_ = tx.NewChain(name) // cannot fail: no chain has the name
		}
	}
	ensureTarget := func() {
		if j, ok := cmd.Rule.Target.(*pf.JumpTarget); ok {
			ensure(j.ChainName)
		}
	}
	switch {
	case cmd.Action == 'I':
		ensure(chain)
		ensureTarget()
		return tx.Insert(chain, cmd.Rule)
	case cmd.Action == 'A':
		ensure(chain)
		ensureTarget()
		return tx.Append(chain, cmd.Rule)
	case cmd.Action == 'D' && cmd.Tag != "":
		_, err := tx.RemoveAll(chain, func(r *pf.Rule) bool { return r.Src.File == cmd.Tag })
		return err
	case cmd.Action == 'D':
		tbl := env.Policy.SIDs()
		want := cmd.Rule.String(tbl)
		return tx.Remove(chain, func(r *pf.Rule) bool { return r.String(tbl) == want })
	case cmd.Action == 'R':
		if err := tx.ReplaceAt(chain, cmd.RulePos-1, cmd.Rule); err != nil {
			return err
		}
		ensureTarget()
		return nil
	case cmd.Action == 'F':
		if chain == "" {
			tx.Flush()
			return nil
		}
		return tx.FlushChain(chain)
	}
	return fmt.Errorf("pftables: unknown action %q", cmd.Action)
}

// errorAt attaches the command's source position, when it has one, to an
// error applying it.
func (cmd *Cmd) errorAt(err error) error {
	if cmd.Pos.IsSet() {
		return &Error{Pos: cmd.Pos, Err: err}
	}
	return err
}
