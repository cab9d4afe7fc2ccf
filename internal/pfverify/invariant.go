package pfverify

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
)

// An Invariant is one declarative property over the abstract request
// space: every point inside its scope must reach only the required
// verdict. The textual form (.inv files) is a block:
//
//	invariant ld-untrusted-library {
//	    require DROP
//	    op FILE_OPEN
//	    subject trusted
//	    object !lib_t !textrel_shlib_t !httpd_modules_t
//	    entry /lib/ld-2.15.so:0x596b
//	}
//
// Scope directives (all optional except op):
//
//	require ACCEPT|DROP          verdict every in-scope point must reach
//	op NAME...                   operations to sweep
//	subject any|trusted|untrusted|<glob...>   subject labels (globs; ! negates the whole set)
//	object  none|any|trusted|untrusted|<glob...>  object labels, or no object
//	entry <path>:<hexoff> ...    entrypoint frames to pin (one point per frame)
//	program <path>               process binary (ExecPath)
//	adv-write yes|no             keep only (subject, object) pairs where the
//	                             MAC policy does / does not let an adversary
//	                             of the subject write the object
//	adv-read yes|no              same for adversary readability
//	owner-diff yes|no            symlink interposition: object is a link whose
//	                             target owner differs / matches the link owner
//	cross-prefix N               keep only pairs whose labels differ in their
//	                             first N bytes (tenant non-interference)
//	sockns fs|abstract|port      pin the socket rendezvous namespace
//	port N[-M]                   pin the socket port (sweeps the bounds)
//	peer-uid N                   pin the peer credential uid
type Invariant struct {
	Name    string
	Require pf.Verdict
	Ops     []pf.Op
	Subject scope
	Object  scope
	// ObjectNone sweeps points with no object (req.Obj == nil).
	ObjectNone bool
	Program    string
	Entries    []pf.Entrypoint

	AdvWrite  opt
	AdvRead   opt
	OwnerDiff opt

	CrossPrefix int

	SockNS  string
	HasPort bool
	PortMin uint16
	PortMax uint16
	PeerUID int
	HasPeer bool

	Pos pf.Pos
}

// opt is an optional yes/no scope directive.
type opt uint8

const (
	optUnset opt = iota
	optYes
	optNo
)

func (o opt) keep(v bool) bool { return o == optUnset || (o == optYes) == v }

// scope selects labels: all, the trusted set, its complement, or globs
// (negated as a whole with a leading "!" on each pattern).
type scope struct {
	Any       bool
	Trusted   bool
	Untrusted bool
	Globs     []string
	Negate    bool
}

func (s scope) match(pol *mac.Policy, tbl *mac.SIDTable, lbl mac.Label) bool {
	switch {
	case s.Trusted || s.Untrusted:
		sid, ok := tbl.Lookup(lbl)
		if !ok {
			return false
		}
		t := pol.Trusted(sid)
		if s.Trusted {
			return t
		}
		return !t
	case len(s.Globs) > 0:
		hit := false
		for _, g := range s.Globs {
			if matchGlob(g, string(lbl)) {
				hit = true
				break
			}
		}
		return hit != s.Negate
	default:
		return true // any
	}
}

// matchGlob matches a '*'/'?' pattern against s.
func matchGlob(pat, s string) bool {
	for len(pat) > 0 {
		switch pat[0] {
		case '*':
			for len(pat) > 0 && pat[0] == '*' {
				pat = pat[1:]
			}
			if pat == "" {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if matchGlob(pat, s[i:]) {
					return true
				}
			}
			return false
		case '?':
			if s == "" {
				return false
			}
			pat, s = pat[1:], s[1:]
		default:
			if s == "" || s[0] != pat[0] {
				return false
			}
			pat, s = pat[1:], s[1:]
		}
	}
	return s == ""
}

// --- parser --------------------------------------------------------------

// ParseInvariants parses the textual invariant form. file names the source
// for positions; src is the file body.
func ParseInvariants(file, src string) ([]*Invariant, error) {
	var invs []*Invariant
	var cur *Invariant
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		pos := pf.Pos{File: file, Line: ln + 1, Col: 1 + leadingSpace(raw)}
		fields := strings.Fields(line)
		if cur == nil {
			if fields[0] != "invariant" || len(fields) < 3 || fields[len(fields)-1] != "{" {
				return nil, fmt.Errorf("%s: expected `invariant <name> {`, got %q", pos, line)
			}
			cur = &Invariant{Name: fields[1], Require: pf.VerdictDrop, Pos: pos}
			continue
		}
		if line == "}" {
			if len(cur.Ops) == 0 {
				return nil, fmt.Errorf("%s: invariant %q has no `op` directive", pos, cur.Name)
			}
			invs = append(invs, cur)
			cur = nil
			continue
		}
		if err := parseDirective(cur, fields, pos); err != nil {
			return nil, err
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("%s: invariant %q: missing closing `}`", file, cur.Name)
	}
	return invs, nil
}

func leadingSpace(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] != ' ' && s[i] != '\t' {
			return i
		}
	}
	return 0
}

func parseDirective(inv *Invariant, fields []string, pos pf.Pos) error {
	args := fields[1:]
	switch fields[0] {
	case "require":
		if len(args) != 1 {
			return fmt.Errorf("%s: require takes ACCEPT or DROP", pos)
		}
		switch args[0] {
		case "ACCEPT":
			inv.Require = pf.VerdictAccept
		case "DROP":
			inv.Require = pf.VerdictDrop
		default:
			return fmt.Errorf("%s: require takes ACCEPT or DROP, got %q", pos, args[0])
		}
	case "op":
		if len(args) == 0 {
			return fmt.Errorf("%s: op needs at least one operation name", pos)
		}
		for _, a := range args {
			op, err := pf.ParseOp(a)
			if err != nil {
				return fmt.Errorf("%s: unknown operation %q", pos, a)
			}
			inv.Ops = append(inv.Ops, op)
		}
	case "subject":
		s, _, err := parseScope(args, false, pos)
		if err != nil {
			return err
		}
		inv.Subject = s
	case "object":
		s, none, err := parseScope(args, true, pos)
		if err != nil {
			return err
		}
		inv.Object, inv.ObjectNone = s, none
	case "entry":
		for _, a := range args {
			i := strings.LastIndexByte(a, ':')
			if i < 0 {
				return fmt.Errorf("%s: entry wants <path>:<hexoff>, got %q", pos, a)
			}
			off, err := strconv.ParseUint(strings.TrimPrefix(a[i+1:], "0x"), 16, 64)
			if err != nil {
				return fmt.Errorf("%s: bad entry offset %q: %v", pos, a[i+1:], err)
			}
			inv.Entries = append(inv.Entries, pf.Entrypoint{Path: a[:i], Off: off})
		}
	case "program":
		if len(args) != 1 {
			return fmt.Errorf("%s: program takes one path", pos)
		}
		inv.Program = args[0]
	case "adv-write", "adv-read", "owner-diff":
		o, err := parseYesNo(args, fields[0], pos)
		if err != nil {
			return err
		}
		switch fields[0] {
		case "adv-write":
			inv.AdvWrite = o
		case "adv-read":
			inv.AdvRead = o
		default:
			inv.OwnerDiff = o
		}
	case "cross-prefix":
		if len(args) != 1 {
			return fmt.Errorf("%s: cross-prefix takes one number", pos)
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			return fmt.Errorf("%s: bad cross-prefix %q", pos, args[0])
		}
		inv.CrossPrefix = n
	case "sockns":
		if len(args) != 1 {
			return fmt.Errorf("%s: sockns takes fs|abstract|port", pos)
		}
		inv.SockNS = args[0]
	case "port":
		if len(args) != 1 {
			return fmt.Errorf("%s: port takes N or N-M", pos)
		}
		lo, hi, ok := parsePortRange(args[0])
		if !ok {
			return fmt.Errorf("%s: bad port %q", pos, args[0])
		}
		inv.HasPort, inv.PortMin, inv.PortMax = true, lo, hi
	case "peer-uid":
		if len(args) != 1 {
			return fmt.Errorf("%s: peer-uid takes one uid", pos)
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("%s: bad peer-uid %q", pos, args[0])
		}
		inv.HasPeer, inv.PeerUID = true, n
	default:
		return fmt.Errorf("%s: unknown directive %q", pos, fields[0])
	}
	return nil
}

func parseScope(args []string, allowNone bool, pos pf.Pos) (scope, bool, error) {
	if len(args) == 0 {
		return scope{}, false, fmt.Errorf("%s: scope needs an argument", pos)
	}
	switch args[0] {
	case "any":
		return scope{Any: true}, false, nil
	case "trusted":
		return scope{Trusted: true}, false, nil
	case "untrusted":
		return scope{Untrusted: true}, false, nil
	case "none":
		if !allowNone {
			return scope{}, false, fmt.Errorf("%s: `none` is only valid for object", pos)
		}
		return scope{}, true, nil
	}
	s := scope{}
	for _, a := range args {
		g := a
		if strings.HasPrefix(a, "!") {
			s.Negate = true
			g = a[1:]
		}
		if g == "" {
			return scope{}, false, fmt.Errorf("%s: empty glob in scope", pos)
		}
		s.Globs = append(s.Globs, g)
	}
	return s, false, nil
}

func parseYesNo(args []string, name string, pos pf.Pos) (opt, error) {
	if len(args) != 1 {
		return optUnset, fmt.Errorf("%s: %s takes yes or no", pos, name)
	}
	switch args[0] {
	case "yes":
		return optYes, nil
	case "no":
		return optNo, nil
	}
	return optUnset, fmt.Errorf("%s: %s takes yes or no, got %q", pos, name, args[0])
}

func parsePortRange(s string) (uint16, uint16, bool) {
	lo, hi := s, s
	if i := strings.IndexByte(s, '-'); i > 0 {
		lo, hi = s[:i], s[i+1:]
	}
	a, err1 := strconv.ParseUint(lo, 10, 16)
	b, err2 := strconv.ParseUint(hi, 10, 16)
	if err1 != nil || err2 != nil || a > b {
		return 0, 0, false
	}
	return uint16(a), uint16(b), true
}

// --- checking ------------------------------------------------------------

// A Violation is one in-scope point that reached a forbidden verdict.
type Violation struct {
	Invariant string
	Require   pf.Verdict
	Got       pf.Verdict
	// Definite: the forbidden verdict is reachable along a fork-free path,
	// so a concrete request realizes it; only definite violations carry a
	// replayable witness and gate publishes. Non-definite violations are
	// "potential" — the widened STATE/syscall abstraction allowed the
	// verdict, but no concrete request is proven to reach it.
	Definite bool
	// Rule decided the violating path; nil means the default allow.
	Rule *pf.Rule
	// Ctx is the violating abstract point, fully pinned (the minimal
	// witness): realize it concretely to replay the violation.
	Ctx Ctx
	// Human-readable witness coordinates.
	Subject mac.Label
	Object  mac.Label
}

func (v *Violation) String() string {
	rule := "default-allow"
	if v.Rule != nil {
		rule = "rule"
		if v.Rule.Src.Line > 0 {
			rule = "rule " + v.Rule.Src.String()
		}
	}
	obj := string(v.Object)
	if !v.Ctx.HasObject {
		obj = "<none>"
	}
	ep := ""
	if len(v.Ctx.Entries) > 0 {
		ep = fmt.Sprintf(" entry=%s:0x%x", v.Ctx.Entries[0].Path, v.Ctx.Entries[0].Off)
	}
	kind := "definite"
	if !v.Definite {
		kind = "potential"
	}
	return fmt.Sprintf("invariant %s: %s violation: %s subject=%s object=%s%s got %s (want %s) via %s",
		v.Invariant, kind, v.Ctx.Op, v.Subject, obj, ep, v.Got, v.Require, rule)
}

// InvariantResult is one invariant's sweep outcome.
type InvariantResult struct {
	Invariant  *Invariant
	Points     int
	Holds      bool // no definite violation
	Definitely bool // no violation of any kind (holds even under widening)
	Violations []Violation
	// ViolationCount counts every violating point, including those beyond
	// the stored cap.
	ViolationCount int
}

// Report is a full Check run.
type Report struct {
	Results []InvariantResult
	Points  int
}

// Violated reports whether any invariant has a definite violation.
func (r *Report) Violated() bool {
	for _, res := range r.Results {
		if !res.Holds {
			return true
		}
	}
	return false
}

// Violations flattens every stored violation, definite first.
func (r *Report) Violations() []Violation {
	var out []Violation
	for _, res := range r.Results {
		out = append(out, res.Violations...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Definite && !out[j].Definite })
	return out
}

// maxStoredViolations caps witnesses kept per invariant; the count still
// covers every violating point.
const maxStoredViolations = 8

// Check sweeps every invariant's scope against the snapshot. tbl interns
// the label universe the sweep enumerates (use the world's or policy's SID
// table so every label rules and files mention is covered).
func Check(ev *Evaluator, tbl *mac.SIDTable, invs []*Invariant) *Report {
	rep := &Report{}
	labels := tbl.Labels()
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	for _, inv := range invs {
		res := checkOne(ev, tbl, inv, labels)
		rep.Points += res.Points
		rep.Results = append(rep.Results, res)
	}
	return rep
}

func checkOne(ev *Evaluator, tbl *mac.SIDTable, inv *Invariant, labels []mac.Label) InvariantResult {
	res := InvariantResult{Invariant: inv, Holds: true, Definitely: true}
	pol := ev.Policy()

	var subjects []mac.Label
	for _, l := range labels {
		if inv.Subject.match(pol, tbl, l) {
			subjects = append(subjects, l)
		}
	}
	var objects []mac.Label
	if !inv.ObjectNone {
		for _, l := range labels {
			if inv.Object.match(pol, tbl, l) {
				objects = append(objects, l)
			}
		}
	}

	entries := inv.Entries
	sweepEntries := make([][]pf.Entrypoint, 0, len(entries)+1)
	if len(entries) == 0 {
		sweepEntries = append(sweepEntries, nil)
	} else {
		for _, e := range entries {
			sweepEntries = append(sweepEntries, []pf.Entrypoint{e})
		}
	}

	// Object identifiers: one fresh (arbitrary object) plus each pinned
	// --res-id, so identifier-specific rules are covered.
	objIDs := []uint64{ev.FreshResID()}
	objIDs = append(objIDs, ev.PinnedResIDs()...)

	ownerCases := []opt{optUnset}
	switch inv.OwnerDiff {
	case optYes:
		ownerCases = []opt{optYes}
	case optNo:
		ownerCases = []opt{optNo}
	}

	eval := func(c *Ctx, subj, obj mac.Label) {
		res.Points++
		r := ev.Eval(c)
		var bad, definite bool
		var got pf.Verdict
		var rule *pf.Rule
		if inv.Require == pf.VerdictDrop {
			bad, definite, got, rule = r.MayAccept, r.DefiniteAccept, pf.VerdictAccept, r.AcceptRule
		} else {
			bad, definite, got, rule = r.MayDrop, r.DefiniteDrop, pf.VerdictDrop, r.DropRule
		}
		if !bad {
			return
		}
		res.ViolationCount++
		res.Definitely = false
		if definite {
			res.Holds = false
		}
		if len(res.Violations) < maxStoredViolations {
			res.Violations = append(res.Violations, Violation{
				Invariant: inv.Name,
				Require:   inv.Require,
				Got:       got,
				Definite:  definite,
				Rule:      rule,
				Ctx:       *c,
				Subject:   subj,
				Object:    obj,
			})
		}
	}

	sweepObj := objects
	if inv.ObjectNone {
		sweepObj = []mac.Label{""}
	}
	for _, op := range inv.Ops {
		for _, subj := range subjects {
			ssid := tbl.SID(subj)
			for _, obj := range sweepObj {
				if !inv.ObjectNone {
					osid := tbl.SID(obj)
					if !inv.AdvWrite.keep(pol.AdversaryWritable(ssid, osid)) {
						continue
					}
					if !inv.AdvRead.keep(pol.AdversaryReadable(ssid, osid)) {
						continue
					}
					if inv.CrossPrefix > 0 && !crossPrefix(subj, obj, inv.CrossPrefix) {
						continue
					}
				}
				for _, eps := range sweepEntries {
					for oi, oc := range ownerCases {
						for idx, oid := range objIDs {
							if idx > 0 && oi > 0 {
								break // pinned ids only need one owner case
							}
							c := pointCtx(inv, op, ssid, subj, obj, tbl, eps, oc, oid)
							eval(c, subj, obj)
						}
					}
				}
			}
		}
	}
	return res
}

// crossPrefix reports whether two labels differ within their first n bytes
// (tenant prefixes differ).
func crossPrefix(a, b mac.Label, n int) bool {
	as, bs := string(a), string(b)
	if len(as) < n || len(bs) < n {
		return false
	}
	return as[:n] != bs[:n]
}

// pointCtx builds the abstract point for one sweep coordinate. Process
// history (STATE) and the in-flight syscall are left open so proofs cover
// processes with arbitrary pasts; everything else is pinned, which is what
// makes violations replayable.
func pointCtx(inv *Invariant, op pf.Op, ssid mac.SID, subj, obj mac.Label, tbl *mac.SIDTable, eps []pf.Entrypoint, oc opt, oid uint64) *Ctx {
	c := &Ctx{
		Op:                 op,
		Subject:            ssid,
		Program:            inv.Program,
		Entries:            eps,
		StateUnknown:       true,
		SyscallArgsUnknown: true,
		SyscallNR:          Unknown(),
	}
	if c.Program == "" && len(eps) > 0 {
		c.Program = eps[0].Path
	}
	if !inv.ObjectNone {
		c.HasObject = true
		c.Object = tbl.SID(obj)
		c.ObjID = Known(oid)
		c.Owner = KnownInt(0)
		switch oc {
		case optYes:
			c.Owner = KnownInt(1000)
			c.TgtOwner = KnownInt(0)
		case optNo:
			c.TgtOwner = KnownInt(0)
		}
	}
	if op == pf.OpSignalDeliver {
		c.Sig = &pf.SignalInfo{Signal: 15, HasHandler: true}
	}
	if inv.SockNS != "" {
		c.NSOK, c.NS = true, inv.SockNS
	}
	if inv.HasPort {
		c.PortOK = true
		c.Port = Known(uint64(inv.PortMin))
	}
	if inv.HasPeer {
		c.PeerOK = true
		c.PeerUID = KnownInt(inv.PeerUID)
		c.PeerPID = Known(4242)
	}
	return c
}

// --- refinement ----------------------------------------------------------

// A Regression is an invariant the current snapshot satisfies but the
// candidate does not.
type Regression struct {
	Invariant string
	// Violations are the candidate's definite violations (witnesses).
	Violations []Violation
}

// Refines checks publish-time refinement: every invariant the current
// snapshot satisfies (no definite violation) must still hold under the
// candidate. Invariants the current snapshot already violates don't gate —
// a publish can't regress what was never guaranteed.
func Refines(cur, cand *Evaluator, tbl *mac.SIDTable, invs []*Invariant) []Regression {
	curRep := Check(cur, tbl, invs)
	candRep := Check(cand, tbl, invs)
	var regs []Regression
	for i := range curRep.Results {
		if !curRep.Results[i].Holds {
			continue
		}
		cr := &candRep.Results[i]
		if cr.Holds {
			continue
		}
		var wits []Violation
		for _, v := range cr.Violations {
			if v.Definite {
				wits = append(wits, v)
			}
		}
		regs = append(regs, Regression{Invariant: cr.Invariant.Name, Violations: wits})
	}
	return regs
}

// Gate returns a pf.TransactionGated gate that vetoes any publish whose
// candidate program weakens an invariant the engine's current generation
// satisfies. The gate runs pre-publish under the engine's write lock, so
// FromEngine still observes the current generation while the candidate is
// the program the gate receives — exactly what would be published.
func Gate(e *pf.Engine, tbl *mac.SIDTable, invs []*Invariant) func(*pf.Program) error {
	return func(prog *pf.Program) error {
		cur := FromEngine(e)
		cand := FromProgram(e.Policy(), prog)
		regs := Refines(cur, cand, tbl, invs)
		if len(regs) == 0 {
			return nil
		}
		var b strings.Builder
		fmt.Fprintf(&b, "pfverify: publish weakens %d invariant(s):", len(regs))
		for _, reg := range regs {
			fmt.Fprintf(&b, " %s", reg.Invariant)
			if len(reg.Violations) > 0 {
				fmt.Fprintf(&b, " [%s]", reg.Violations[0].String())
			}
		}
		return fmt.Errorf("%s", b.String())
	}
}
