package pf

import (
	"slices"
	"sort"

	"pfirewall/internal/mac"
)

// The decision program (DESIGN.md §7, §12). Every published snapshot is
// compiled once into an immutable program, and that program is the only
// thing that decides a verdict: Batch.Filter executes it, and pfverify
// interprets the same program three-valued.
//
// Every chain — built-in or user — gets a dispatch index bucketed by
// operation and then by subject SID. Under EptChains each entrypoint key
// (chain, program, offset) gets the same index over the entrypoint rules of
// the built-in chain it names (paper Section 4.3), and those rules leave the
// chain's own index. A request consults only the buckets that can contain
// rules matching its (op, subject) pair; every other rule is provably
// non-matching and is never inspected, so per-request cost scales with the
// number of possibly-matching rules instead of the total rule count.
//
// Soundness rests on two static facts about rule predicates:
//
//   - OpSet membership: a rule whose op mask excludes the request's op can
//     never match it (an empty mask matches every op and fans into every
//     bucket).
//   - Exact subject SIDs: a rule with a non-negated subject set only matches
//     requests whose subject SID is in the set, so it lives in exactly those
//     SID buckets. Rules with no subject — or a negated one — go to the
//     per-op wildcard bucket, which every request scans.
//
// Both are over-approximations: a candidate still runs the full predicate
// (matchesDefaults + match modules), so false positives cost a comparison,
// never a wrong verdict. First-match order is preserved by a Cursor, which
// merges the two candidate streams by each rule's order key. JUMP and RETURN
// are edges the dispatch loop follows on the per-process frame stack; a jump
// resolves its target by name through the snapshot's own chain table, never
// through a pointer kept in a bucket shared with older snapshots.
//
// Publishes are incremental (DESIGN.md §12): a transaction records the rules
// it added to or removed from each chain, and patch clones only the indexes
// and (op, SID) buckets those rules fan into, sharing every untouched one
// with the previous snapshot. For order keys to survive such surgery they
// cannot be positional indexes — inserting one rule would shift every later
// rule's position and invalidate the shared buckets — so each chain carries
// a stable order key per rule (Chain.ords): installs take first-ordGap or
// last+ordGap, and a replacement inherits the key of the rule it replaces.
// The keys live in the chain snapshot, not in *Rule, so compiling never
// writes anything an older snapshot shares: a compile the publish gate
// vetoes leaves no trace, and a rolled-back snapshot's keys still agree with
// its own buckets.

// ordGap is the spacing between order keys at either end of a chain.
const ordGap = int64(1) << 20

// indexedRule is one compiled candidate: the rule plus its order key, so
// merged bucket scans preserve install order.
type indexedRule struct {
	ord int64
	r   *Rule
}

// opBucket holds the candidate rules for one operation.
type opBucket struct {
	exact []sidRules    // exact, non-negated subject sets; sorted by sid
	wild  []indexedRule // no subject, or a negated subject set
}

// sidRules holds a bucket's candidates for one subject SID. A sorted slice
// of these costs one allocation per bucket where a map costs several, which
// matters because every entrypoint key carries buckets and every snapshot
// of the rollback history keeps the ones it patched.
type sidRules struct {
	sid   mac.SID
	rules []indexedRule
}

// find returns the position of sid's entry in b.exact, or where it would
// be inserted, and whether it is there.
func (b *opBucket) find(sid mac.SID) (int, bool) {
	lo, hi := 0, len(b.exact)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.exact[m].sid < sid {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(b.exact) && b.exact[lo].sid == sid
}

// insertSID adds an entry for sid at position i. The bucket must be owned
// by the caller: the slice is grown in place.
func (b *opBucket) insertSID(i int, sid mac.SID, rules []indexedRule) {
	b.exact = append(b.exact, sidRules{})
	copy(b.exact[i+1:], b.exact[i:])
	b.exact[i] = sidRules{sid: sid, rules: rules}
}

// opSlots is the number of per-op buckets: one per known operation plus a
// last slot for requests whose op lies outside the known range.
const opSlots = int(opCount) + 1

// chainIndex is the dispatch index of one chain, or of one entrypoint key.
type chainIndex struct {
	// chain is the indexed chain (nil for entrypoint keys): entering it
	// counts a traversal and names it in the request's span.
	chain *Chain
	// rules counts the rules routed here, bucketless ones included, so a
	// patch can tell when an entrypoint key has emptied.
	rules int
	ops   [opSlots]*opBucket
}

// Program is one ruleset snapshot compiled into its decision program. The
// filter path reads the current one through an atomic pointer with no
// locking — the same read-copy-update discipline in-kernel packet filters
// use so rule updates never stall the hot path (and so the engine stays
// re-entrant and preemptible, paper Section 5.1). Once published, a
// Program is immutable; it is safe for concurrent use.
type Program struct {
	chains map[string]*Chain
	// index holds every chain's dispatch index; ept the per-entrypoint-key
	// indexes (EptChains only). Both are derived at compile time,
	// incrementally from the previous snapshot's where possible. builtin
	// holds the built-in chains' indexes by slot, so a request enters the
	// program without a name lookup.
	index     map[string]*chainIndex
	ept       map[entryKey]*chainIndex
	builtin   [builtinSlots]*chainIndex
	eptChains bool

	// Summaries, maintained by the transaction (widened on install,
	// recomputed on removal) except eptPrograms, eptOps and nrGuard, which
	// compile derives with the indexes.
	eptPrograms map[string]bool
	// eptOps[slot] has bit s set when some entrypoint key of slot holds a
	// candidate in op bucket s. nrGuard bounds the syscall numbers the
	// syscallbegin chain's candidates can match. With the dispatch index
	// they let Batch.Filter accept a request no rule can match before it
	// builds any evaluation context (provablyAccepts).
	eptOps      [entrySlots]uint32
	nrGuard     nrGuard
	hasEptRules bool
	allNeeds    CtxKind
	totalRules  int
	// opsPresent has bit op set when some installed rule could apply to
	// op (a rule with an empty op set applies to every op). The kernel
	// consults it through MayFilter to skip request construction entirely
	// for operations no rule mediates.
	opsPresent uint32

	// gen identifies this snapshot. Generations are globally unique (drawn
	// from rulesetGen), so per-process caches keyed on gen can never alias
	// a snapshot of a different engine.
	gen uint64
	// version is this snapshot's position in the engine's publish sequence,
	// monotonic per engine. Unlike gen it is stable across rollback: rolling
	// back re-exposes the old snapshot with its old version, so control-plane
	// clients can tell exactly which ruleset is enforcing.
	version uint64
}

// entryKey names one entrypoint-specific index. The chain's slot is part
// of the key so input-chain rules never run from the syscallbegin hook.
type entryKey struct {
	slot    uint8
	program string
	off     uint64
}

// Built-in chain slots. The first entrySlots are the filter chains whose
// entrypoint rules route by entrypoint key under EptChains.
const (
	slotInput = iota
	slotSyscallBegin
	slotMangle
	builtinSlots
	entrySlots = slotMangle
)

// builtinChains names the chains every engine has, by slot: the filter
// table's input and syscallbegin hooks and the mangle table's input hook.
// Requests enter only through them, so a jump must target a user chain.
var builtinChains = [builtinSlots]string{"input", "syscallbegin", "mangle/input"}

// entrySlot returns the slot of chain when it routes entrypoint rules by
// key (input or syscallbegin).
func entrySlot(chain string) (int, bool) {
	switch chain {
	case "input":
		return slotInput, true
	case "syscallbegin":
		return slotSyscallBegin, true
	}
	return 0, false
}

// Compile builds the decision program of a chain snapshot under cfg (only
// EptChains shapes the program). It reads the chains and never writes them,
// so it may compile the chains of a live engine or a transaction's
// candidate. pfverify compiles through it, and so does every full publish.
func Compile(chains map[string]*Chain, cfg Config) *Program {
	p := &Program{chains: chains, eptChains: cfg.EptChains}
	p.summarize()
	p.compile()
	return p
}

// Chains returns the program's chain snapshot. Treat it as read-only.
func (p *Program) Chains() map[string]*Chain { return p.chains }

// RuleCount returns the number of rules in the program.
func (p *Program) RuleCount() int { return p.totalRules }

// Cursor returns a cursor over the candidates of chain name for a request
// with op by subject, in first-match order; ok is false when the program
// has no such chain. Under EptChains the built-in filter chains' cursors
// omit their entrypoint rules, which EntryCursor serves.
func (p *Program) Cursor(name string, op Op, subject mac.SID) (Cursor, bool) {
	ci := p.index[name]
	if ci == nil {
		return Cursor{}, false
	}
	return ci.cursor(op, subject), true
}

// EntryCursor returns a cursor over the entrypoint rules of built-in chain
// name keyed on ep, for a request with op by subject. It is empty unless
// the program was compiled with EptChains.
func (p *Program) EntryCursor(name string, ep Entrypoint, op Op, subject mac.SID) Cursor {
	if slot, ok := entrySlot(name); ok {
		if ci := p.entryIndex(slot, ep); ci != nil {
			return ci.cursor(op, subject)
		}
	}
	return Cursor{}
}

// entryIndex returns the index of entrypoint key (slot, ep), or nil. It is
// the one lookup behind EntryCursor and the route lists Batch.Filter walks.
func (p *Program) entryIndex(slot int, ep Entrypoint) *chainIndex {
	return p.ept[entryKey{uint8(slot), ep.Path, ep.Off}]
}

// routes lists the indexes of the entrypoint keys of slot that the frames
// eps hit, in stack order with duplicates kept: what EntryCursor yields
// frame by frame, minus the empty cursors.
//
//pflint:allow-fn — route-list miss path, once per (stack, exec, program) generation; cached hits allocate nothing.
func (p *Program) routes(slot int, eps []Entrypoint) []*chainIndex {
	var out []*chainIndex
	for _, ep := range eps {
		if ci := p.entryIndex(slot, ep); ci != nil {
			out = append(out, ci)
		}
	}
	return out
}

// nrGuard is the set of syscall numbers a syscallbegin request can match
// through the syscallbegin chain: the N of each candidate's
// SYSCALL_ARGS --arg 0 --equal N match, or any when some candidate has no
// such match.
type nrGuard struct {
	any bool
	nrs []uint64 // sorted, without duplicates
}

// admits reports whether a request for syscall nr passes the guard. The
// conversion is the one SyscallArgsMatch compares with.
func (g *nrGuard) admits(nr int) bool {
	if g.any {
		return true
	}
	_, ok := slices.BinarySearch(g.nrs, uint64(nr))
	return ok
}

// syscallNR returns the syscall number r's first arg-0 SYSCALL_ARGS match
// requires; ok is false when r has none and may match any syscall.
func syscallNR(r *Rule) (nr uint64, ok bool) {
	for _, m := range r.Matches {
		if sm, isSys := m.(*SyscallArgsMatch); isSys && sm.Arg == 0 {
			return sm.Equal, true
		}
	}
	return 0, false
}

// provablyAccepts reports that no rule of p can match req, which enters the
// program at built-in slot, so the request takes the default accept without
// an evaluation context. It holds when the index's two static facts (op
// mask, exact subject SIDs) leave mangle/input and the start chain no
// candidate — at syscallbegin, also when the arg-0 guard excludes the
// request's syscall number — and no entrypoint key of the slot has a
// bucket for the op, or none can appear on the process's stack. Jumps need
// no check of their own: a rule jumps only once it has matched.
func (p *Program) provablyAccepts(slot int, req *Request) bool {
	subject := req.Proc.SubjectSID()
	if slot == slotSyscallBegin {
		if p.nrGuard.admits(req.SyscallNR) && p.builtin[slot].hasCandidate(req.Op, subject) {
			return false
		}
	} else if p.builtin[slotMangle].hasCandidate(req.Op, subject) || p.builtin[slot].hasCandidate(req.Op, subject) {
		return false
	}
	return p.eptOps[slot]&(1<<opSlot(req.Op)) == 0 || !mayMatchEpt(p, req.Proc)
}

// Cursor walks one index's candidates for one request in first-match order:
// an order-preserving merge of the exact-SID bucket and the wildcard bucket
// of the request's op. It is a small value; copying it forks the walk.
type Cursor struct {
	exact, wild []indexedRule
}

// opSlot returns the bucket slot that serves op.
func opSlot(op Op) int {
	if int(op) >= opSlots {
		return opSlots - 1
	}
	return int(op)
}

// cursor opens a cursor over ci's candidates for (op, subject).
func (ci *chainIndex) cursor(op Op, subject mac.SID) Cursor {
	b := ci.ops[opSlot(op)]
	if b == nil {
		return Cursor{}
	}
	c := Cursor{wild: b.wild}
	if i, ok := b.find(subject); ok {
		c.exact = b.exact[i].rules
	}
	return c
}

// hasCandidate reports whether ci's cursor for (op, subject) would yield a
// rule. A nil index (no such chain) has none.
func (ci *chainIndex) hasCandidate(op Op, subject mac.SID) bool {
	if ci == nil {
		return false
	}
	c := ci.cursor(op, subject)
	return len(c.exact) > 0 || len(c.wild) > 0
}

// opMask has bit s set for every op bucket s of ci that holds a candidate.
func (ci *chainIndex) opMask() uint32 {
	var m uint32
	for s, b := range ci.ops {
		if b != nil && (len(b.wild) > 0 || len(b.exact) > 0) {
			m |= 1 << s
		}
	}
	return m
}

// nrGuard derives the syscallbegin guard from ci, the syscallbegin chain's
// index: a syscallbegin request consults only its SYSCALL_BEGIN bucket.
func (ci *chainIndex) nrGuard() nrGuard {
	var g nrGuard
	if ci == nil || ci.ops[OpSyscallBegin] == nil {
		return g
	}
	add := func(rules []indexedRule) {
		for _, ir := range rules {
			if nr, ok := syscallNR(ir.r); ok {
				g.nrs = append(g.nrs, nr)
			} else {
				g.any = true
			}
		}
	}
	b := ci.ops[OpSyscallBegin]
	add(b.wild)
	for _, e := range b.exact {
		add(e.rules)
	}
	if g.any {
		return nrGuard{any: true}
	}
	slices.Sort(g.nrs)
	g.nrs = slices.Compact(g.nrs)
	return g
}

// NextRule returns the next candidate, or nil when the cursor is exhausted.
func (c *Cursor) NextRule() *Rule {
	if len(c.exact) > 0 && (len(c.wild) == 0 || c.exact[0].ord < c.wild[0].ord) {
		r := c.exact[0].r
		c.exact = c.exact[1:]
		return r
	}
	if len(c.wild) > 0 {
		r := c.wild[0].r
		c.wild = c.wild[1:]
		return r
	}
	return nil
}

// eptKeyOf reports the entrypoint key r is routed to when r lives in chain:
// under EptChains, an entrypoint rule of a built-in filter chain leaves the
// chain's index for its key's. Entrypoint rules in mangle/input and in user
// chains stay inline.
func (p *Program) eptKeyOf(chain string, r *Rule) (entryKey, bool) {
	slot, ok := entrySlot(chain)
	if !p.eptChains || !r.EntrySet || !ok {
		return entryKey{}, false
	}
	return entryKey{uint8(slot), r.Program, r.Entry}, true
}

// ordAt returns the order key of the chain's i-th rule. Chains built outside
// an engine carry no keys; their rules order by position.
func (c *Chain) ordAt(i int) int64 {
	if len(c.ords) == len(c.Rules) {
		return c.ords[i]
	}
	return (int64(i) + 1) * ordGap
}

// compile builds every index of p from scratch. It runs on a program no
// reader can see yet (under the engine's write lock for publishes).
func (p *Program) compile() {
	p.index = make(map[string]*chainIndex, len(p.chains))
	p.ept = make(map[entryKey]*chainIndex)
	for name, c := range p.chains {
		ci := &chainIndex{chain: c}
		p.index[name] = ci
		for i, r := range c.Rules {
			dst := ci
			if k, ok := p.eptKeyOf(name, r); ok {
				if dst = p.ept[k]; dst == nil {
					dst = &chainIndex{}
					p.ept[k] = dst
				}
			}
			dst.add(indexedRule{ord: c.ordAt(i), r: r})
		}
	}
	p.fillBuiltins(nil)
	p.deriveEptSummaries()
}

// fillBuiltins points the built-in slots at their chains' indexes and
// derives the syscallbegin guard, reusing prev's while the syscallbegin
// index is the one prev had.
func (p *Program) fillBuiltins(prev *Program) {
	for slot, name := range builtinChains {
		p.builtin[slot] = p.index[name]
	}
	if prev != nil && prev.builtin[slotSyscallBegin] == p.builtin[slotSyscallBegin] {
		p.nrGuard = prev.nrGuard
		return
	}
	p.nrGuard = p.builtin[slotSyscallBegin].nrGuard()
}

// deriveEptSummaries rebuilds the set of programs some entrypoint key
// names, which mayMatchEpt consults to skip unwinding processes none can
// match, and each entry slot's eptOps.
func (p *Program) deriveEptSummaries() {
	p.eptPrograms = make(map[string]bool, len(p.ept))
	p.eptOps = [entrySlots]uint32{}
	for k, ci := range p.ept {
		p.eptPrograms[k.program] = true
		p.eptOps[k.slot] |= ci.opMask()
	}
}

// add fans one rule into the buckets its predicate can reach, appending in
// bucket order (callers guarantee ascending ord).
func (ci *chainIndex) add(ir indexedRule) {
	ci.rules++
	r := ir.r
	exact := r.Subject != nil && !r.Subject.Negate
	if exact && len(r.Subject.sids) == 0 {
		// A non-negated empty subject set matches no request; the rule is
		// unreachable and needs no buckets.
		return
	}
	// Fresh SID entries share one backing array. Its capacity is 1, so a
	// later append to any of them copies instead of writing into it.
	one := []indexedRule{ir}
	for slot := 0; slot < opSlots; slot++ {
		if !slotMayMatch(r.Ops, slot) {
			continue
		}
		b := ci.ops[slot]
		if b == nil {
			b = &opBucket{}
			ci.ops[slot] = b
		}
		if !exact {
			b.wild = append(b.wild, ir)
			continue
		}
		for _, sid := range r.Subject.sids {
			if i, ok := b.find(sid); ok {
				b.exact[i].rules = append(b.exact[i].rules, ir)
			} else {
				b.insertSID(i, sid, one)
			}
		}
	}
}

// slotMayMatch reports whether a rule with op mask ops can match a request
// dispatched to bucket slot. Op(0) is OpInvalid; only an empty op mask —
// which matches every op, including a zero-valued one — lands in its
// bucket. The last slot serves ops outside the known range.
func slotMayMatch(ops OpSet, slot int) bool {
	if slot == opSlots-1 {
		return ops == 0 || ops>>opCount != 0
	}
	return ops.Has(Op(slot))
}

// --- incremental recompilation -----------------------------------------

// ruleDelta records one chain mutation for incremental recompilation: rule
// r, with order key ord, entered (add) or left the chain.
type ruleDelta struct {
	add bool
	r   *Rule
	ord int64
}

// patch derives p's indexes from prev's, re-fanning only the rules in delta
// and sharing every untouched index and bucket with prev. It returns false
// when the delta cannot be applied consistently (the caller then compiles
// from scratch). Runs under the engine's write lock.
func (p *Program) patch(prev *Program, delta map[string][]ruleDelta) bool {
	p.index = make(map[string]*chainIndex, len(p.chains))
	for name, c := range p.chains {
		ci := prev.index[name]
		switch {
		case ci == nil: // chain created by this transaction
			ci = &chainIndex{chain: c}
		case ci.chain != c: // chain copied by this transaction
			n := *ci
			n.chain = c
			ci = &n
		}
		p.index[name] = ci
	}
	p.ept, p.eptPrograms, p.eptOps = prev.ept, prev.eptPrograms, prev.eptOps

	// Group the deltas by the index they land in — their chain's own, or
	// an entrypoint key's — then patch each index once.
	type target struct {
		chain string
		key   entryKey
		ept   bool
	}
	groups := make(map[target][]ruleDelta)
	for name, ds := range delta {
		for _, d := range ds {
			t := target{chain: name}
			t.key, t.ept = p.eptKeyOf(name, d.r)
			groups[t] = append(groups[t], d)
		}
	}
	eptOwned := false
	for t, ds := range groups {
		if !t.ept {
			ci := p.index[t.chain]
			if ci = ci.patched(ds); ci == nil {
				return false
			}
			p.index[t.chain] = ci
			continue
		}
		if !eptOwned {
			m := make(map[entryKey]*chainIndex, len(p.ept)+len(groups))
			for k, ci := range p.ept {
				m[k] = ci
			}
			p.ept, eptOwned = m, true
		}
		ci := p.ept[t.key]
		if ci == nil {
			ci = &chainIndex{}
		}
		if ci = ci.patched(ds); ci == nil {
			return false
		}
		if ci.rules == 0 {
			delete(p.ept, t.key)
		} else {
			p.ept[t.key] = ci
		}
	}
	p.fillBuiltins(prev)
	if eptOwned {
		p.deriveEptSummaries()
	}
	return true
}

// patched applies deltas to a copy of ci. Buckets are copy-on-write: the
// ops array is copied wholesale (it is small), but each opBucket is only
// cloned the first time a delta touches it; everything else stays shared
// with ci. Returns nil on inconsistency (a removal that finds no bucket
// entry).
func (ci *chainIndex) patched(ds []ruleDelta) *chainIndex {
	n := *ci
	var owned [opSlots]bool
	for _, d := range ds {
		r := d.r
		if d.add {
			n.rules++
		} else {
			n.rules--
		}
		exact := r.Subject != nil && !r.Subject.Negate
		if exact && len(r.Subject.sids) == 0 {
			continue // bucketless either way; nothing to patch
		}
		// one is the delta as a slice of capacity 1, shared by every slot it
		// starts: insertOrd never appends to its input, so no slot can write
		// into another's backing array.
		one := []indexedRule{{ord: d.ord, r: r}}
		for slot := 0; slot < opSlots; slot++ {
			if !slotMayMatch(r.Ops, slot) {
				continue
			}
			b := n.ops[slot]
			if d.add && b == nil {
				b = &opBucket{}
				n.ops[slot] = b
				owned[slot] = true
			}
			if b == nil {
				return nil // removing from an op with no bucket: inconsistent
			}
			if !owned[slot] {
				b = b.cow()
				n.ops[slot] = b
				owned[slot] = true
			}
			if exact {
				for _, sid := range r.Subject.sids {
					i, found := b.find(sid)
					switch {
					case d.add && found:
						b.exact[i].rules = insertOrd(b.exact[i].rules, one)
					case d.add:
						b.insertSID(i, sid, one)
					case !found:
						return nil
					default:
						rules, ok := removeOrd(b.exact[i].rules, one[0])
						if !ok {
							return nil
						}
						if len(rules) == 0 {
							b.exact = append(b.exact[:i], b.exact[i+1:]...)
						} else {
							b.exact[i].rules = rules
						}
					}
				}
				continue
			}
			if d.add {
				b.wild = insertOrd(b.wild, one)
				continue
			}
			rules, ok := removeOrd(b.wild, one[0])
			if !ok {
				return nil
			}
			b.wild = rules
		}
	}
	return &n
}

// cow returns a bucket whose exact entries can be mutated without touching
// the original. The entries are copied; the rule slices inside them (and
// wild) stay shared — insertOrd/removeOrd never write in place.
func (b *opBucket) cow() *opBucket {
	return &opBucket{exact: append([]sidRules(nil), b.exact...), wild: b.wild}
}

// insertOrd returns rules with one's single entry spliced in at its ord
// position: a fresh slice, or one itself when rules is empty. The input
// slice is shared with previous snapshots and is never written.
func insertOrd(rules, one []indexedRule) []indexedRule {
	if len(rules) == 0 {
		return one
	}
	ir := one[0]
	i := sort.Search(len(rules), func(k int) bool { return rules[k].ord > ir.ord })
	out := make([]indexedRule, 0, len(rules)+1)
	out = append(out, rules[:i]...)
	out = append(out, ir)
	return append(out, rules[i:]...)
}

// removeOrd returns a fresh slice with ir's entry removed, or ok=false when
// no entry matches it (the index disagrees with the delta). Matching the
// order key as well as the rule keeps a rule installed twice in one chain
// apart from its twin.
func removeOrd(rules []indexedRule, ir indexedRule) ([]indexedRule, bool) {
	i := sort.Search(len(rules), func(k int) bool { return rules[k].ord >= ir.ord })
	if i == len(rules) || rules[i] != ir {
		return nil, false
	}
	out := make([]indexedRule, 0, len(rules)-1)
	out = append(out, rules[:i]...)
	return append(out, rules[i+1:]...), true
}

// --- dispatch -----------------------------------------------------------

// run executes the program from chain index ci: it pushes ci's cursor on
// the process's frame stack and steps the top cursor, firing each
// candidate's target, until a final verdict or the stack drains. JUMP
// pushes the target chain's cursor, resolved through the snapshot's chain
// table; RETURN pops back to the calling chain (at the base chain it ends
// the walk). Entering a chain counts a traversal; the caller names ci in
// the span, run names every jump target.
func (e *Engine) run(ctx *EvalCtx, rs *Program, ci *chainIndex) Action {
	ps := ctx.Req.Proc.PFState()
	pid := ctx.Req.Proc.PID()
	op, subject := ctx.Req.Op, ctx.Req.Proc.SubjectSID()
	// Per-process traversal state (paper Section 5.1): we reuse the
	// process's stack buffer; a re-entrant call simply appends deeper
	// frames and unwinds them before returning.
	base := len(ps.traversal)
	ps.traversal = append(ps.traversal, ci.cursor(op, subject))
	defer func() { ps.traversal = ps.traversal[:base] }()
	if ci.chain.Traversals != nil {
		ci.chain.Traversals.Add(pid, 1)
	}
	for len(ps.traversal) > base {
		// Re-index every step: a target may re-enter the engine and grow
		// the stack buffer.
		r := ps.traversal[len(ps.traversal)-1].NextRule()
		if r == nil {
			ps.traversal = ps.traversal[:len(ps.traversal)-1]
			continue
		}
		act := e.evalRule(ctx, r)
		switch {
		case act.Final:
			return act
		case act.Return:
			ps.traversal = ps.traversal[:len(ps.traversal)-1]
		case act.Jump != "":
			if tgt := rs.index[act.Jump]; tgt != nil {
				ps.traversal = append(ps.traversal, tgt.cursor(op, subject))
				if tgt.chain.Traversals != nil {
					tgt.chain.Traversals.Add(pid, 1)
				}
				if sp := ctx.Req.Span; sp != nil {
					sp.PushChain(tgt.chain.Name)
				}
			}
		}
	}
	return Continue
}
