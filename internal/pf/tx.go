package pf

// Transactional rule-base updates (DESIGN.md §12). A Tx batches any number
// of rule mutations into one atomic publish: one cloned snapshot, one
// generation bump, one program derivation, one pointer store. The
// mediation path never blocks on a publish and never observes a partial
// batch — it either runs against the previous snapshot or the new one.
//
// Ownership discipline: Tx.rs starts as a shallow clone sharing every
// *Chain and compiled index with the published snapshot. The first
// mutation of a chain copies it (ownChain); compiled indexes are only ever
// replaced by patched copies (compile.go). Shared state is therefore never
// written — concurrent readers of any historical snapshot (including ones a
// Rollback may re-expose) keep an immutable view.

import (
	"fmt"
	"slices"
	"sort"
)

// historyCap bounds the engine's rollback window: how many previously
// published snapshots Rollback can restore, newest first.
const historyCap = 8

// Tx is an in-flight rule-base transaction. All methods run under the
// engine's write lock (Transaction holds it); a Tx must not escape the
// callback it is passed to.
type Tx struct {
	e  *Engine
	rs *Program

	owned     map[string]bool // chains copied from prev
	delta     map[string][]ruleDelta
	full      bool     // bulk change: skip deltas, full-compile at publish
	derived   bool     // a removal may have narrowed the derived summaries
	newChains []string // register observability after publish
}

// Transaction runs fn against a transactional view of the rule base and, if
// fn succeeds, publishes every mutation as one new snapshot (one version,
// one generation, one program derivation). If fn returns an error
// nothing is published and the error is returned.
func (e *Engine) Transaction(fn func(*Tx) error) error {
	return e.TransactionGated(fn, nil)
}

// TransactionGated is Transaction with a pre-publish gate: after fn succeeds
// the transaction's snapshot is compiled and the gate inspects that
// candidate program — exactly what would be published, and immutable; a
// non-nil error vetoes the publish. The control plane uses this to run
// pfcheck and the pfverify refinement check over each delta before it can
// reach the mediation path. A vetoed compile leaves no trace: it wrote
// nothing the live snapshot shares.
func (e *Engine) TransactionGated(fn func(*Tx) error, gate func(*Program) error) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	prev := e.rs.Load()
	tx := &Tx{e: e, rs: prev.clone(), owned: make(map[string]bool)}
	if err := fn(tx); err != nil {
		return err
	}
	if tx.derived {
		tx.rs.summarize()
	}
	full := tx.full || e.fullRecompile || !tx.rs.patch(prev, tx.delta)
	if full {
		tx.rs.compile()
	}
	if gate != nil {
		if err := gate(tx.rs); err != nil {
			return err
		}
	}
	e.publishLocked(tx.rs, full)
	for _, name := range tx.newChains {
		e.registerChainObs(name)
	}
	return nil
}

// publishLocked stamps the compiled snapshot's version and generation,
// pushes the previous snapshot onto the rollback ring, and atomically
// exposes the new snapshot to readers.
func (e *Engine) publishLocked(n *Program, full bool) {
	e.versionCtr++
	n.version = e.versionCtr
	n.gen = rulesetGen.Add(1)
	if full {
		e.fullCompiles.Add(1)
	} else {
		e.deltaCompiles.Add(1)
	}
	e.history = append(e.history, e.rs.Load())
	if len(e.history) > historyCap {
		copy(e.history, e.history[len(e.history)-historyCap:])
		e.history = e.history[:historyCap]
	}
	e.rs.Store(n)
	e.publishes.Add(1)
}

// Rollback atomically re-exposes the most recently superseded snapshot and
// returns its version. Verdicts in flight keep the snapshot they started
// with; new requests see the restored ruleset immediately. The rollback
// window is the last historyCap publishes.
func (e *Engine) Rollback() (uint64, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if len(e.history) == 0 {
		return 0, fmt.Errorf("pf: no snapshot to roll back to")
	}
	prev := e.history[len(e.history)-1]
	e.history[len(e.history)-1] = nil
	e.history = e.history[:len(e.history)-1]
	e.rs.Store(prev)
	e.rollbacks.Add(1)
	return prev.version, nil
}

// Version returns the currently enforcing snapshot's publish version.
func (e *Engine) Version() uint64 { return e.rs.Load().version }

// Generation returns the currently enforcing snapshot's globally unique
// generation (bumped on every publish and never reused, unlike Version,
// which a rollback restores).
func (e *Engine) Generation() uint64 { return e.rs.Load().gen }

// PublishStats counts control-plane activity since the engine was created.
type PublishStats struct {
	Publishes     uint64 `json:"publishes"`
	FullCompiles  uint64 `json:"full_compiles"`
	DeltaCompiles uint64 `json:"delta_compiles"`
	Rollbacks     uint64 `json:"rollbacks"`
}

// PublishStats returns a snapshot of the publish-path counters.
func (e *Engine) PublishStats() PublishStats {
	return PublishStats{
		Publishes:     e.publishes.Load(),
		FullCompiles:  e.fullCompiles.Load(),
		DeltaCompiles: e.deltaCompiles.Load(),
		Rollbacks:     e.rollbacks.Load(),
	}
}

// --- copy-on-write helpers ----------------------------------------------

// ownChain returns chain name's *Chain, copied from the published snapshot
// the first time the transaction mutates it. Returns nil for unknown chains.
func (tx *Tx) ownChain(name string) *Chain {
	c := tx.rs.chains[name]
	if c == nil || tx.owned[name] {
		return c
	}
	n := c.clone()
	tx.rs.chains[name] = n
	tx.owned[name] = true
	return n
}

// bulkDeltaMax bounds the per-chain delta a publish will patch. Each patched
// rule copies the buckets it lands in, so a huge batch degrades toward
// O(batch × bucket) — past this point a from-scratch compile is cheaper and
// the transaction flips to full.
const bulkDeltaMax = 256

// recordDelta notes that r, with order key ord, entered or left chain.
// Pointless once the transaction went bulk (full).
func (tx *Tx) recordDelta(chain string, add bool, r *Rule, ord int64) {
	if tx.full {
		return
	}
	if tx.delta == nil {
		tx.delta = make(map[string][]ruleDelta)
	}
	tx.delta[chain] = append(tx.delta[chain], ruleDelta{add: add, r: r, ord: ord})
	if len(tx.delta[chain]) > bulkDeltaMax {
		tx.full = true
		tx.delta = nil
	}
}

// --- mutations ----------------------------------------------------------

// Append adds a rule at the end of chain.
func (tx *Tx) Append(chain string, r *Rule) error { return tx.install(chain, r, false) }

// Insert adds a rule at the head of chain.
func (tx *Tx) Insert(chain string, r *Rule) error { return tx.install(chain, r, true) }

// checkRule validates a rule about to enter a chain.
func checkRule(r *Rule) error {
	if r.Target == nil {
		return fmt.Errorf("pf: rule without target")
	}
	if r.EntrySet && r.Program == "" {
		return fmt.Errorf("pf: entrypoint match requires a program (-p with -i)")
	}
	// Requests enter built-in chains only at their hooks, as in iptables;
	// a jump must name a user chain.
	if j, ok := r.Target.(*JumpTarget); ok && slices.Contains(builtinChains, j.ChainName) {
		return fmt.Errorf("pf: jump target %q is a built-in chain", j.ChainName)
	}
	return nil
}

// widen folds a newly installed rule into the snapshot's summaries.
func (tx *Tx) widen(r *Rule) {
	rs := tx.rs
	rs.allNeeds |= r.needs()
	rs.opsPresent |= opsMaskOf(r)
	if r.EntrySet {
		rs.hasEptRules = true
	}
}

func (tx *Tx) install(chain string, r *Rule, front bool) error {
	if err := checkRule(r); err != nil {
		return err
	}
	c := tx.ownChain(chain)
	if c == nil {
		return fmt.Errorf("pf: no such chain %q", chain)
	}
	tx.widen(r)
	tx.rs.totalRules++
	// Order keys step outward from the chain's current extremes, so the
	// patch can splice r in without disturbing its neighbors.
	ord := ordGap
	if n := len(c.ords); n > 0 {
		if front {
			ord = c.ords[0] - ordGap
		} else {
			ord = c.ords[n-1] + ordGap
		}
	}
	if front {
		c.Rules = append([]*Rule{r}, c.Rules...)
		c.ords = append([]int64{ord}, c.ords...)
	} else {
		c.Rules = append(c.Rules, r)
		c.ords = append(c.ords, ord)
	}
	tx.recordDelta(chain, true, r, ord)
	return nil
}

// Remove deletes the first rule in chain for which match returns true.
func (tx *Tx) Remove(chain string, match func(*Rule) bool) error {
	n, err := tx.removeMatching(chain, match, 1)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("pf: no matching rule in %q", chain)
	}
	return nil
}

// RemoveAll deletes every rule in chain for which match returns true and
// returns how many were removed (zero is not an error).
func (tx *Tx) RemoveAll(chain string, match func(*Rule) bool) (int, error) {
	return tx.removeMatching(chain, match, 0)
}

func (tx *Tx) removeMatching(chain string, match func(*Rule) bool, limit int) (int, error) {
	c := tx.ownChain(chain)
	if c == nil {
		return 0, fmt.Errorf("pf: no such chain %q", chain)
	}
	removed := 0
	for i := 0; i < len(c.Rules); {
		r, ord := c.Rules[i], c.ords[i]
		if !match(r) {
			i++
			continue
		}
		// Owned chain: in-place removal is safe.
		c.Rules = append(c.Rules[:i], c.Rules[i+1:]...)
		c.ords = append(c.ords[:i], c.ords[i+1:]...)
		tx.recordDelta(chain, false, r, ord)
		removed++
		if limit > 0 && removed >= limit {
			break
		}
	}
	if removed > 0 {
		tx.rs.totalRules -= removed
		tx.derived = true
	}
	return removed, nil
}

// ReplaceAt swaps the rule at position idx (0-based, over the chain's full
// rule list) for r, preserving evaluation order: r slots exactly where the
// old rule was, inheriting its order key. This is the pftables -R primitive
// — at 10k rules it patches a handful of dispatch buckets instead of
// recompiling the program.
func (tx *Tx) ReplaceAt(chain string, idx int, r *Rule) error {
	if err := checkRule(r); err != nil {
		return err
	}
	c := tx.ownChain(chain)
	if c == nil {
		return fmt.Errorf("pf: no such chain %q", chain)
	}
	if idx < 0 || idx >= len(c.Rules) {
		return fmt.Errorf("pf: %s: no rule at position %d", chain, idx+1)
	}
	old, ord := c.Rules[idx], c.ords[idx]
	c.Rules[idx] = r
	tx.recordDelta(chain, false, old, ord)
	tx.recordDelta(chain, true, r, ord)
	tx.widen(r)
	tx.derived = true // the removal may have narrowed the summaries
	return nil
}

// Flush removes every rule from every chain (the chains themselves stay).
func (tx *Tx) Flush() {
	rs := tx.rs
	for name := range rs.chains {
		c := tx.ownChain(name)
		c.Rules, c.ords = nil, nil
	}
	rs.hasEptRules = false
	rs.allNeeds = 0
	rs.totalRules = 0
	rs.opsPresent = 0
	// Summaries are exact again (subsequent installs re-widen them), and
	// any earlier deltas are moot: this is a bulk rebuild.
	tx.full = true
	tx.delta = nil
	tx.derived = false
}

// FlushChain removes every rule from one chain.
func (tx *Tx) FlushChain(chain string) error {
	c := tx.ownChain(chain)
	if c == nil {
		return fmt.Errorf("pf: no such chain %q", chain)
	}
	if _, err := tx.removeMatching(chain, func(*Rule) bool { return true }, 0); err != nil {
		return err
	}
	return nil
}

// NewChain creates a user-defined chain.
func (tx *Tx) NewChain(name string) error {
	if _, ok := tx.rs.chains[name]; ok {
		return fmt.Errorf("pf: chain %q exists", name)
	}
	tx.rs.chains[name] = newChain(name)
	tx.owned[name] = true
	tx.newChains = append(tx.newChains, name)
	return nil
}

// Chain exposes the transaction's working view of a chain (nil when
// unknown). Callers must treat it as read-only.
func (tx *Tx) Chain(name string) (*Chain, bool) {
	c, ok := tx.rs.chains[name]
	return c, ok
}

// Chains returns the transaction's chain names in sorted order.
func (tx *Tx) Chains() []string {
	out := make([]string, 0, len(tx.rs.chains))
	for n := range tx.rs.chains {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// summarize rebuilds the summaries install() maintains incrementally
// (allNeeds, hasEptRules, opsPresent, totalRules). Installation only ever
// widens them; removal must recompute from scratch or deleting the last
// entrypoint rule would leave mayMatchEpt unwinding stacks — and non-lazy
// mode over-collecting context — forever. A transaction runs it once, at
// commit, however many rules the batch removed.
func (p *Program) summarize() {
	p.allNeeds = 0
	p.hasEptRules = false
	p.opsPresent = 0
	p.totalRules = 0
	for _, c := range p.chains {
		p.totalRules += len(c.Rules)
		for _, r := range c.Rules {
			p.allNeeds |= r.needs()
			p.opsPresent |= opsMaskOf(r)
			if r.EntrySet {
				p.hasEptRules = true
			}
		}
	}
}
