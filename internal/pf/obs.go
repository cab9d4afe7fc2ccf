package pf

import (
	"pfirewall/internal/obs"
)

// engineObs is the engine's attached instrumentation. Every series is
// pre-registered and indexed directly by Op, so the Filter hot path does
// no map lookups and no locking — one atomic pointer load decides whether
// any of this runs at all. The engine reads no clock: the latency
// histograms observe the spans the kernel times (Batch.ObserveLatency).
type engineObs struct {
	reg *obs.Registry

	mediations [opCount][2]*obs.Counter // [op][verdict]
	latency    [opCount]*obs.Histogram

	logEmissions *obs.Counter
}

// AttachObs registers the engine's metric series on reg and arms the
// Filter instrumentation. Idempotent per registry (series registration
// dedupes); the hot path notices the attachment through one atomic load.
func (e *Engine) AttachObs(reg *obs.Registry) {
	ob := &engineObs{reg: reg}
	const medHelp = "Mediation requests by operation and verdict."
	for op := Op(1); op < opCount; op++ {
		name := op.String()
		ob.mediations[op][VerdictAccept] = reg.Counter("pf_mediations_total", medHelp,
			obs.L("op", name), obs.L("verdict", VerdictAccept.String()))
		ob.mediations[op][VerdictDrop] = reg.Counter("pf_mediations_total", medHelp,
			obs.L("op", name), obs.L("verdict", VerdictDrop.String()))
		ob.latency[op] = reg.Histogram("pf_gauntlet_latency_ns",
			"Sampled PF gauntlet latency per operation, in nanoseconds.",
			obs.L("op", name))
	}
	ob.logEmissions = reg.Counter("pf_log_emissions_total", "LOG-target records emitted.")

	// Engine totals are already counted exactly by Stats; export them
	// rather than double-counting on the hot path.
	reg.CounterFunc("pf_requests_total", "Requests filtered.", e.Stats.Requests.Load)
	reg.CounterFunc("pf_verdicts_total", "Verdicts by outcome.",
		e.Stats.Accepts.Load, obs.L("verdict", VerdictAccept.String()))
	reg.CounterFunc("pf_verdicts_total", "Verdicts by outcome.",
		e.Stats.Drops.Load, obs.L("verdict", VerdictDrop.String()))
	reg.CounterFunc("pf_rules_evaluated_total", "Rules evaluated across all requests.", e.Stats.RulesEvaluated.Load)
	reg.CounterFunc("pf_ctx_collections_total", "Context fields collected.", e.Stats.CtxCollections.Load)
	reg.CounterFunc("pf_ctx_cache_hits_total", "Context cache hits.", e.Stats.CtxCacheHits.Load)

	e.obs.Store(ob)
	// Per-chain traversal counts. The Traversals counter is shared across
	// ruleset snapshots (like Rule.Hits), so capturing it here stays
	// correct over later rule updates.
	for _, name := range e.Chains() {
		e.registerChainObs(name)
	}
}

// Obs returns the attached registry; nil when observability is off.
func (e *Engine) Obs() *obs.Registry {
	if ob := e.obs.Load(); ob != nil {
		return ob.reg
	}
	return nil
}

// registerChainObs exports one chain's traversal counter.
func (e *Engine) registerChainObs(name string) {
	ob := e.obs.Load()
	if ob == nil {
		return
	}
	c, okc := e.Chain(name)
	if !okc || c.Traversals == nil {
		return
	}
	ob.reg.CounterFunc("pf_chain_traversals_total", "Chain traversals by chain.",
		c.Traversals.Load, obs.L("chain", name))
}

// count adds one request to its exact op×verdict counter.
func (ob *engineObs) count(pid int, op Op, v Verdict) {
	if op >= opCount {
		op = OpInvalid
	}
	vi := 0
	if v == VerdictDrop {
		vi = 1
	}
	if c := ob.mediations[op][vi]; c != nil {
		c.Add(pid, 1)
	}
}

// ObserveLatency records one timed request's gauntlet latency — the span
// stamps its caller took around Filter — in pf_gauntlet_latency_ns{op}.
// A no-op when observability is not attached.
func (b *Batch) ObserveLatency(op Op, ns uint64) {
	if b.ob == nil || op >= opCount {
		return
	}
	if h := b.ob.latency[op]; h != nil {
		h.Observe(b.pid, ns)
	}
}
