package pf

import (
	"cmp"
	"slices"
	"sort"

	"pfirewall/internal/mac"
)

// Static ruleset analysis (DESIGN.md §8). The compiled dispatch index of
// compile.go proves, per request, that the rules outside its buckets cannot
// match. This file runs the same per-field reasoning in the other
// direction: over all requests, at publish/analysis time, to prove that a
// rule can never fire at all — because its match space is empty, because no
// operation that reaches its chain is in its op mask, because its chain is
// unreachable from any built-in chain, or because an earlier terminal rule
// covers its entire match space (first-match shadowing).
//
// Every claim is an under-approximation of "dead": the analysis only
// reports a rule unreachable when the per-field lattice PROVES coverage, so
// a reported rule provably has Hits==0 for any request sequence (the
// differential property test in compile_test.go enforces exactly this).
// Rules it cannot prove dead are reported reachable, which may be
// optimistic — completeness is not claimed, soundness is.

// UnreachKind says why the analysis proved a rule can never fire.
type UnreachKind uint8

// Unreachability kinds.
const (
	// UnreachEmptySubject: a non-negated empty -s set matches no process.
	UnreachEmptySubject UnreachKind = iota + 1
	// UnreachEmptyObject: a non-negated empty -d set matches no resource.
	UnreachEmptyObject
	// UnreachOpContext: the rule's op mask is disjoint from every
	// operation that can reach its chain (e.g. a FILE_OPEN rule in the
	// syscallbegin chain, which only ever sees SYSCALL_BEGIN).
	UnreachOpContext
	// UnreachShadowed: an earlier terminal rule in the same chain covers
	// the rule's entire match space, so first-match semantics never reach
	// it.
	UnreachShadowed
	// UnreachDeadChain: the rule lives in a user chain no jump from a
	// built-in chain can reach.
	UnreachDeadChain
)

// String names the kind for findings.
func (k UnreachKind) String() string {
	switch k {
	case UnreachEmptySubject:
		return "empty-subject-set"
	case UnreachEmptyObject:
		return "empty-object-set"
	case UnreachOpContext:
		return "op-context"
	case UnreachShadowed:
		return "shadowed"
	case UnreachDeadChain:
		return "dead-chain"
	}
	return "unknown"
}

// Unreachable is one proven-dead rule.
type Unreachable struct {
	Chain string
	Index int // position in the chain's Rules list
	Rule  *Rule
	Kind  UnreachKind
	// By identifies the shadowing rule for UnreachShadowed (ByIndex is its
	// position in the same chain); nil otherwise.
	By      *Rule
	ByIndex int
	// SameVerdict reports that the shadower produces the identical outcome,
	// making the rule redundant rather than conflicting.
	SameVerdict bool
}

// RulesetAnalysis is the result of AnalyzeChains.
type RulesetAnalysis struct {
	// Unreachable lists proven-dead rules, ordered by (chain, index).
	Unreachable []Unreachable
	// DeadChains lists non-builtin chains unreachable from any built-in
	// chain, sorted by name.
	DeadChains []string
	// Cycles lists jump cycles, each as the chain names along the cycle
	// (a traversal entering one would loop forever).
	Cycles [][]string
	// OpContext maps each chain to the set of operations that can reach it
	// (zero for unreachable chains). Built-in chains start from the
	// engine's routing: syscallbegin sees only SYSCALL_BEGIN, the input and
	// mangle/input chains everything else; user chains get the union over
	// incoming jump edges of (source context ∩ jump rule ops).
	OpContext map[string]OpSet
}

// allOps is the op-context universe: every representable operation.
const allOps OpSet = 1<<opCount - 1

// builtinOpContext is how Filter routes requests into built-in chains.
var builtinOpContext = map[string]OpSet{
	"input":        allOps &^ (1 << OpSyscallBegin),
	"syscallbegin": 1 << OpSyscallBegin,
	"mangle/input": allOps &^ (1 << OpSyscallBegin),
}

// Analyze runs the static reachability analysis over the engine's current
// ruleset snapshot.
func (e *Engine) Analyze() *RulesetAnalysis {
	return AnalyzeChains(e.rs.Load().chains)
}

// AnalyzeChains analyzes a chain map (engine snapshot or one assembled from
// parsed source) and returns every rule it can prove dead.
func AnalyzeChains(chains map[string]*Chain) *RulesetAnalysis {
	an := &RulesetAnalysis{OpContext: make(map[string]OpSet, len(chains))}

	names := make([]string, 0, len(chains))
	for n := range chains {
		names = append(names, n)
	}
	sort.Strings(names)

	// Jump graph: one edge per JUMP rule, carrying the rule's op mask.
	// Every jump counts, even from rules themselves proven dead — an
	// over-approximation of reachability keeps the dead-chain claim sound.
	type edge struct {
		ops OpSet
		to  string
	}
	edges := make(map[string][]edge)
	for _, name := range names {
		for _, r := range chains[name].Rules {
			if jt, ok := r.Target.(*JumpTarget); ok {
				ops := r.Ops
				if ops == 0 {
					ops = allOps
				}
				edges[name] = append(edges[name], edge{ops: ops, to: jt.ChainName})
			}
		}
	}

	// Op-context fixpoint over the jump graph.
	ctx := make(map[string]OpSet, len(chains))
	for n, m := range builtinOpContext {
		if _, ok := chains[n]; ok {
			ctx[n] = m
		}
	}
	for changed := true; changed; {
		changed = false
		for _, from := range names {
			fctx := ctx[from]
			if fctx == 0 {
				continue
			}
			for _, e := range edges[from] {
				if _, ok := chains[e.to]; !ok {
					continue
				}
				if c := ctx[e.to] | (fctx & e.ops); c != ctx[e.to] {
					ctx[e.to] = c
					changed = true
				}
			}
		}
	}
	for _, n := range names {
		an.OpContext[n] = ctx[n]
	}

	// Jump cycles (a traversal entering one would push frames forever).
	const (
		white = iota
		grey
		black
	)
	color := make(map[string]int, len(chains))
	var stack []string
	var visit func(string)
	visit = func(n string) {
		color[n] = grey
		stack = append(stack, n)
		for _, e := range edges[n] {
			if _, ok := chains[e.to]; !ok {
				continue
			}
			switch color[e.to] {
			case white:
				visit(e.to)
			case grey:
				// Slice the cycle out of the DFS stack.
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == e.to {
						an.Cycles = append(an.Cycles, append([]string(nil), stack[i:]...))
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
	}
	for _, n := range names {
		if color[n] == white {
			visit(n)
		}
	}

	// Per-chain rule analysis.
	var search shadowSearch
	for _, name := range names {
		c := chains[name]
		if ctx[name] == 0 {
			if _, builtin := builtinOpContext[name]; !builtin {
				an.DeadChains = append(an.DeadChains, name)
				for i, r := range c.Rules {
					an.Unreachable = append(an.Unreachable, Unreachable{
						Chain: name, Index: i, Rule: r, Kind: UnreachDeadChain, ByIndex: -1,
					})
				}
			}
			continue
		}
		search.chainRules(an, name, c, ctx[name])
	}
	return an
}

// shadowCand is a terminal rule eligible to shadow later rules.
type shadowCand struct {
	idx      int
	r        *Rule
	isReturn bool
	hasState bool
}

// shadowSearch holds one chain's shadow lanes. Lanes are keyed like the
// compiled index — an op slot, then one SID of an exact subject set or the
// wildcard (nil and negated subjects) — and split by entry class, since
// entryCovers lets only a generic rule or one with the same -p/-i
// predicate cover another. A class other than the generic one keeps all
// its rules in its wildcard lanes: few rules share a predicate. Every
// terminal rule is filed under each lane it can shadow from, in one list
// sorted by lane and then install order, so a lane is a run of the list.
// AnalyzeChains reuses one search across its chains.
type shadowSearch struct {
	lanes []laneEntry
	dead  []bool // per rule: it never matches or is shadowed
	mut   []int
}

// laneEntry files the rule at index idx under lane.
type laneEntry struct {
	lane uint64
	idx  int32
}

// laneOf packs a lane key: the op slot, the entry class, a wildcard flag
// and a subject SID. Lanes whose keys collide only gain candidates, which
// covers then rejects, so the class may be a hash.
func laneOf(slot uint8, class uint32, wild bool, sid mac.SID) uint64 {
	k := uint64(slot)<<56 | uint64(class&(1<<23-1))<<33 | uint64(sid)
	if wild {
		k |= 1 << 32
	}
	return k
}

// classOf hashes r's entry class (FNV-1a over its -p/-i predicate): 0 for
// a generic rule, nonzero otherwise. A program-only rule's class ignores
// Entry, as entryCovers does.
func classOf(r *Rule) uint32 {
	if r.Program == "" && !r.EntrySet {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(r.Program); i++ {
		h = (h ^ uint32(r.Program[i])) * 16777619
	}
	if r.EntrySet {
		for e, n := r.Entry, 0; n < 8; e, n = e>>8, n+1 {
			h = (h ^ uint32(e&0xff)) * 16777619
		}
	}
	return h | 1
}

// chainRules finds never-matching and shadowed rules within one reachable
// chain. A rule tests only the earlier live candidates of the lanes that
// can hold its shadower (firstShadower), merged in install order, so the
// first candidate that covers it is the one a scan of every earlier rule
// would find.
func (s *shadowSearch) chainRules(an *RulesetAnalysis, name string, c *Chain, cctx OpSet) {
	// Most rules enter one or two lanes.
	s.lanes = slices.Grow(s.lanes[:0], 2*len(c.Rules))
	s.dead = append(s.dead[:0], make([]bool, len(c.Rules))...)
	for i, r := range c.Rules {
		if _, ok := candidateOf(i, r); ok {
			s.file(i, r)
		}
	}
	slices.SortFunc(s.lanes, func(a, b laneEntry) int {
		if a.lane != b.lane {
			return cmp.Compare(a.lane, b.lane)
		}
		return cmp.Compare(a.idx, b.idx)
	})
	mutBetween := s.mutations(c)

	for j, r := range c.Rules {
		// Never-matching rules first: they are dead regardless of order,
		// and are excluded from the shadower candidate set.
		if kind := neverMatches(r, cctx); kind != 0 {
			s.dead[j] = true
			an.Unreachable = append(an.Unreachable, Unreachable{Chain: name, Index: j, Rule: r, Kind: kind, ByIndex: -1})
			continue
		}
		if a, ok := s.firstShadower(c, j, mutBetween); ok {
			// Shadowed rules never fire, so they are not candidates; their
			// own shadower already covers anything they would have covered.
			s.dead[j] = true
			an.Unreachable = append(an.Unreachable, Unreachable{
				Chain: name, Index: j, Rule: r, Kind: UnreachShadowed,
				By: a.r, ByIndex: a.idx, SameVerdict: sameOutcome(a.r.Target, r.Target),
			})
		}
	}
}

// neverMatches reports why r can match no request reaching a chain whose
// op context is cctx, or 0 when it may match one.
func neverMatches(r *Rule, cctx OpSet) UnreachKind {
	switch {
	case r.Subject != nil && !r.Subject.Negate && len(r.Subject.sids) == 0:
		return UnreachEmptySubject
	case r.Object != nil && !r.Object.Negate && len(r.Object.sids) == 0:
		return UnreachEmptyObject
	case r.Ops != 0 && r.Ops&cctx == 0:
		return UnreachOpContext
	}
	return 0
}

// candidateOf returns the rule at index j as a shadower candidate for the
// rules after it, if its target is terminal.
func candidateOf(j int, r *Rule) (shadowCand, bool) {
	switch r.Target.(type) {
	case *VerdictTarget, *ReturnTarget:
		_, isReturn := r.Target.(*ReturnTarget)
		return shadowCand{idx: j, r: r, isReturn: isReturn, hasState: hasStateMatch(r)}, true
	}
	return shadowCand{}, false
}

// mutations returns whether a state-mutating or control-transferring
// target lies strictly between two rule indexes, for the STATE staleness
// guard (see coverageShadows).
func (s *shadowSearch) mutations(c *Chain) func(i, j int) bool {
	mut := append(slices.Grow(s.mut[:0], len(c.Rules)+1), 0)
	for i, r := range c.Rules {
		mut = append(mut, mut[i])
		switch r.Target.(type) {
		case *StateTarget, *JumpTarget:
			mut[i+1]++
		}
	}
	s.mut = mut
	return func(i, j int) bool { return mut[j]-mut[i+1] > 0 }
}

// file enters the terminal rule r at index i under every lane it can
// shadow from: each op slot its op mask may match, then each SID of an
// exact subject set of a generic rule, or the wildcard.
func (s *shadowSearch) file(i int, r *Rule) {
	class := classOf(r)
	wild := class != 0 || r.Subject == nil || r.Subject.Negate
	for slot := 0; slot < opSlots; slot++ {
		if !slotMayMatch(r.Ops, slot) {
			continue
		}
		if wild {
			s.lanes = append(s.lanes, laneEntry{laneOf(uint8(slot), class, true, 0), int32(i)})
			continue
		}
		for _, sid := range r.Subject.sids {
			s.lanes = append(s.lanes, laneEntry{laneOf(uint8(slot), 0, false, sid), int32(i)})
		}
	}
}

// firstShadower returns the earliest live candidate before the rule at
// index j whose claim survives every soundness guard. It merges, in
// install order, the lanes that can hold a shadower: a shadower's op mask
// is empty or holds every op of the rule, so it sits in the rule's first
// op slot; its entry class is generic or the rule's own; a generic
// shadower's subject is the wildcard or an exact set holding every SID of
// the rule's exact set, the first one included (only the wildcard can
// cover a nil or negated subject). No candidate is in two of those lanes.
func (s *shadowSearch) firstShadower(c *Chain, j int, mutBetween func(i, j int) bool) (shadowCand, bool) {
	r := c.Rules[j]
	slot := firstSlot(r.Ops)
	var keys [3]uint64
	lanes := append(keys[:0], laneOf(slot, 0, true, 0))
	if r.Subject != nil && !r.Subject.Negate {
		lanes = append(lanes, laneOf(slot, 0, false, r.Subject.sids[0]))
	}
	if class := classOf(r); class != 0 {
		lanes = append(lanes, laneOf(slot, class, true, 0))
	}
	var at [3]int
	for l, key := range lanes {
		at[l], _ = slices.BinarySearchFunc(s.lanes, key, func(e laneEntry, key uint64) int { return cmp.Compare(e.lane, key) })
	}
	for {
		next, i := -1, j
		for l, key := range lanes {
			if p := at[l]; p < len(s.lanes) && s.lanes[p].lane == key && int(s.lanes[p].idx) < i {
				next, i = l, int(s.lanes[p].idx)
			}
		}
		if next < 0 {
			return shadowCand{}, false
		}
		at[next]++
		if s.dead[i] {
			continue
		}
		if a, _ := candidateOf(i, c.Rules[i]); coverageShadows(a, r, mutBetween, j) {
			return a, true
		}
	}
}

// firstSlot is the first bucket slot a rule with op mask ops can match.
func firstSlot(ops OpSet) uint8 {
	slot := 0
	for !slotMayMatch(ops, slot) {
		slot++
	}
	return uint8(slot)
}

// coverageShadows applies the full per-claim soundness checks for
// "candidate a shadows rule r at index j".
func coverageShadows(a shadowCand, r *Rule, mutBetween func(i, j int) bool, j int) bool {
	// RETURN ends the current chain walk, but under EptChains the
	// entrypoint-indexed rules of a built-in chain are scanned in a
	// separate pass that a RETURN in the generic pass does not stop — so a
	// RETURN shadower proves nothing about an entrypoint-bearing rule.
	if a.isReturn && r.EntrySet {
		return false
	}
	if !covers(a.r, r) {
		return false
	}
	// STATE staleness guard: a STATE extension match in the shadower reads
	// the live per-process dictionary, which a STATE target — or a jump
	// into a chain holding one — between the two rules could flip between
	// the shadower's evaluation and r's. Demand a mutation-free interval.
	if a.hasState && mutBetween(a.idx, j) {
		return false
	}
	return true
}

// covers reports whether every request that fully matches b at its position
// in a traversal would also have fully matched a at a's earlier position in
// the same traversal — per-field containment of match spaces.
func covers(a, b *Rule) bool {
	if !opsCover(a.Ops, b.Ops) || !entryCovers(a, b) {
		return false
	}
	if a.ResIDSet && (!b.ResIDSet || a.ResID != b.ResID) {
		return false
	}
	if !subjectCovers(a.Subject, b.Subject) || !objectCovers(a.Object, b.Object) {
		return false
	}
	return matchesSubset(a.Matches, b.Matches)
}

// opsCover: the empty mask is the rule-language "any op"; a non-empty mask
// covers exactly its bits, so it can never cover the universe.
func opsCover(a, b OpSet) bool {
	return a == 0 || (b != 0 && b&^a == 0)
}

// subjectCovers compares -s spaces; a nil set matches any subject.
func subjectCovers(a, b *SIDSet) bool {
	if a == nil {
		return true
	}
	if b == nil {
		// b is the universe; only a negated-empty set also matches it all.
		return a.Negate && len(a.sids) == 0
	}
	return lanesCover(a, b)
}

// objectCovers compares -d spaces. Unlike subjects, a non-nil object set —
// even a negated one — additionally requires the request to carry an
// object at all, so it can never cover the nil set's space.
func objectCovers(a, b *SIDSet) bool {
	if a == nil {
		return true
	}
	if b == nil {
		return false
	}
	return lanesCover(a, b)
}

// lanesCover decides set containment across the exact and negated lanes.
// The SID space is open (labels intern on demand), so a finite set can
// never cover a negated (co-finite) one.
func lanesCover(a, b *SIDSet) bool {
	switch {
	case !a.Negate && !b.Negate:
		return subsetOf(b.sids, a.sids)
	case !a.Negate && b.Negate:
		return false
	case a.Negate && !b.Negate:
		return disjointFrom(b.sids, a.sids)
	default: // both negated: ~A ⊇ ~B iff A ⊆ B
		return subsetOf(a.sids, b.sids)
	}
}

// subsetOf merges two ascending SID lists.
func subsetOf(inner, outer []mac.SID) bool {
	if len(inner) > len(outer) {
		return false
	}
	j := 0
	for _, s := range inner {
		for j < len(outer) && outer[j] < s {
			j++
		}
		if j == len(outer) || outer[j] != s {
			return false
		}
		j++
	}
	return true
}

// disjointFrom merges two ascending SID lists.
func disjointFrom(xs, ys []mac.SID) bool {
	for i, j := 0, 0; i < len(xs) && j < len(ys); {
		switch {
		case xs[i] < ys[j]:
			i++
		case xs[i] > ys[j]:
			j++
		default:
			return false
		}
	}
	return true
}

// entryCovers compares the -p/-i space. A program-only rule matches by the
// process's exec path; an entrypoint rule matches by a (program, offset)
// stack frame — different predicates, so neither covers the other except
// exactly.
func entryCovers(a, b *Rule) bool {
	switch {
	case a.Program == "" && !a.EntrySet:
		return true
	case a.EntrySet:
		return b.EntrySet && b.Program == a.Program && b.Entry == a.Entry
	default: // program-only
		return !b.EntrySet && b.Program == a.Program
	}
}

// matchesSubset demands that every extension match of a appears verbatim in
// b (multiset containment by module name and rendered arguments): then b's
// full match implies each shared module matched, and — state staleness
// aside, guarded separately — it would have matched identically at a.
func matchesSubset(a, b []Match) bool {
	if len(a) == 0 {
		return true
	}
	if len(a) > len(b) {
		return false
	}
	have := make(map[string]int, len(b))
	for _, m := range b {
		have[matchKey(m)]++
	}
	for _, m := range a {
		k := matchKey(m)
		if have[k] == 0 {
			return false
		}
		have[k]--
	}
	return true
}

func matchKey(m Match) string { return m.ModName() + "\x00" + m.Args() }

func hasStateMatch(r *Rule) bool {
	for _, m := range r.Matches {
		if _, ok := m.(*StateMatch); ok {
			return true
		}
	}
	return false
}

// sameOutcome reports whether two terminal targets produce the identical
// effect, downgrading a shadow from "conflicting" to "redundant".
func sameOutcome(a, b Target) bool {
	switch ta := a.(type) {
	case *VerdictTarget:
		tb, ok := b.(*VerdictTarget)
		return ok && tb.V == ta.V
	case *ReturnTarget:
		_, ok := b.(*ReturnTarget)
		return ok
	}
	return false
}
