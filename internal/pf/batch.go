package pf

import (
	"pfirewall/internal/obs"
)

// Batch amortizes mediation-gauntlet setup — ruleset and observability
// snapshot loads, per-process state lookup, evaluation-context acquisition —
// across the several Filter calls one logical operation makes: the
// per-component checks of a pathname walk, or an ipc send/recv burst. The
// paper's hook fires once per resource request; a batch keeps that
// semantics (every request is filtered and counted individually) while
// paying the setup once.
//
// Usage:
//
//	var b pf.Batch
//	engine.StartBatch(&b, proc)
//	for each resource request {
//		v := b.Filter(req)
//	}
//	b.Finish()
//
// All requests in one batch must be made on behalf of the process passed
// to StartBatch (req.Proc == proc): the batch caches that process's pid
// and firewall state. A Batch is not safe for concurrent use; like the
// rest of the engine it relies on the kernel's one-flow-per-process
// mediation discipline. Declaring the Batch as a local variable keeps it
// on the caller's stack — no StartBatch/Filter/Finish path retains the
// pointer.
type Batch struct {
	e   *Engine
	rs  *Program
	ob  *engineObs
	ps  *ProcState
	pid int
	ctx *EvalCtx
}

// StartBatch initializes b against the current ruleset snapshot for
// requests by proc. Every batch sees one consistent snapshot: a rule
// update published mid-batch applies from the next batch, exactly like a
// packet in flight under RCU.
func (e *Engine) StartBatch(b *Batch, proc Process) {
	b.e = e
	b.rs = e.rs.Load()
	b.ob = e.obs.Load()
	b.ps = proc.PFState()
	b.pid = proc.PID()
	b.ctx = nil
}

// Filter evaluates one request within the batch. Verdicts, rule hit
// counters, statistics, and observability records are identical to
// Engine.Filter — batching changes only where setup costs are paid.
func (b *Batch) Filter(req *Request) Verdict {
	e, rs, pid := b.e, b.rs, b.pid

	// Observability: when attached, count every request exactly, but take
	// the two timestamps only on sampled requests — the timer calls, not
	// the sharded counter adds, are what would bust the overhead budget.
	// The sampling decision piggybacks on the request counter this shard
	// is about to increment anyway (first request per shard samples, so
	// short workloads still populate the histograms).
	ob := b.ob
	var t0 int64
	sampled := false
	if ob != nil && e.Stats.Requests.LoadKey(pid)&ob.sampleMask == 0 {
		sampled = true
		t0 = obs.MonoNow()
	}

	// Provenance: a trace-sampled request carries a kernel-armed span the
	// gauntlet annotates in place — chain path, deciding rule, cache bits,
	// rules evaluated. sp is nil on virtually every request; each fill
	// point below is one predictable branch. Latency is the one thing not
	// stamped here: the span's publisher already brackets the gauntlet
	// call, so paying more clock reads inside it would only double-measure.
	sp := req.Span

	// Fast path: with no rules installed, every request takes the default
	// allow without building evaluation context (the BASE configuration of
	// Table 6 measures exactly this hook cost).
	if rs.totalRules == 0 {
		if sp != nil {
			sp.Flags |= obs.SpanEmptyRuleset
		}
		return b.accept(req, sampled, t0, "")
	}

	slot := slotInput
	if req.Op == OpSyscallBegin {
		slot = slotSyscallBegin
	}
	start := builtinChains[slot]

	// Zero-context path: a request no rule can match (the index has no
	// candidate for it and the syscallbegin guard or the entrypoint
	// summaries rule out the rest) enters its built-in chains and takes the
	// default accept without an evaluation context, cursor or stack unwind.
	// Lazy retrieval only: the eager configurations collect everything at
	// hook entry by definition (Table 6).
	if e.cfg.LazyCtx && rs.provablyAccepts(slot, req) {
		if mangle := rs.builtin[slotMangle]; slot == slotInput && mangle != nil && len(mangle.chain.Rules) > 0 {
			if sp != nil {
				sp.PushChain(builtinChains[slotMangle])
			}
			b.traversed(mangle)
		}
		if sp != nil {
			sp.PushChain(start)
		}
		if ci := rs.builtin[slot]; ci != nil {
			b.traversed(ci)
		}
		return b.accept(req, sampled, t0, start)
	}

	// The evaluation context is recycled through the per-process free
	// list; it is acquired on the batch's first non-trivial request and
	// held until Finish. Between requests it is reset, not released: the
	// object-specific fields must not bleed across requests, and the
	// expensive shared field (entrypoints) re-attaches from the
	// generation-keyed per-process cache in O(1).
	ctx := b.ctx
	if ctx == nil {
		ctx = b.ps.acquireCtx() //pflint:allow — pool-miss allocation inlined here; steady state hits the freelist
		b.ctx = ctx
	}
	ctx.reset(req, e, rs)
	if !e.cfg.LazyCtx {
		// Unoptimized mode gathers every context field any rule may need
		// before matching begins (the "naive design" of Section 4.2).
		ctx.Require(rs.allNeeds)
	}

	v, final := VerdictAccept, false
	// The mangle table runs first for resource requests (it may mark state
	// or log but can also issue verdicts, as in iptables).
	if slot == slotInput {
		if mangle := rs.builtin[slotMangle]; mangle != nil && len(mangle.chain.Rules) > 0 {
			if sp != nil {
				sp.PushChain(builtinChains[slotMangle])
			}
			if act := e.run(ctx, rs, mangle); act.Final {
				v, final = act.Verdict, true
			}
		}
	}
	if !final {
		if sp != nil {
			sp.PushChain(start)
		}
		if ci := rs.builtin[slot]; ci != nil {
			if act := e.run(ctx, rs, ci); act.Final {
				v, final = act.Verdict, true
			}
		}
	}

	// Entrypoint-specific chains: only rules whose entrypoint appears on
	// the current stack are considered (Section 4.3), keys in stack order.
	// If none of the process's mapped binaries (or interpreter) can appear
	// in a key, the stack is not even unwound. The keys the stack hits come
	// from the process's cached route list. A jump walks its target and
	// resumes the scan; RETURN from an entrypoint rule is ignored.
	if !final && rs.eptChains && rs.hasEptRules && mayMatchEpt(rs, req.Proc) {
		subject := req.Proc.SubjectSID()
	scan:
		for _, ci := range ctx.entryRoutes(slot) {
			cur := ci.cursor(req.Op, subject)
			for r := cur.NextRule(); r != nil; r = cur.NextRule() {
				act := e.evalRule(ctx, r)
				if !act.Final && act.Jump != "" {
					if tgt := rs.index[act.Jump]; tgt != nil {
						act = e.run(ctx, rs, tgt)
					}
				}
				if act.Final {
					v = act.Verdict
					break scan
				}
			}
		}
	}

	if v == VerdictDrop && e.LogDenials {
		e.emitLog(ctx, "denied", VerdictDrop)
	}

	// Flush batched statistics in one round of sharded atomics per request.
	e.Stats.Requests.Add(pid, 1)
	if v == VerdictDrop {
		e.Stats.Drops.Add(pid, 1)
	} else {
		e.Stats.Accepts.Add(pid, 1)
	}
	if ctx.rulesEvaluated > 0 {
		e.Stats.RulesEvaluated.Add(pid, ctx.rulesEvaluated)
	}
	if ctx.ctxCollections > 0 {
		e.Stats.CtxCollections.Add(pid, ctx.ctxCollections)
	}
	if ctx.ctxCacheHits > 0 {
		e.Stats.CtxCacheHits.Add(pid, ctx.ctxCacheHits)
	}
	if sp != nil {
		sp.RulesEvaluated = uint32(ctx.rulesEvaluated)
		if ctx.ctxCacheHits > 0 {
			sp.Flags |= obs.SpanEptCacheHit
		}
		if ctx.ctxCollections > 0 {
			sp.Flags |= obs.SpanEptUnwound
		}
	}
	if ob != nil {
		ob.finish(pid, req, v, sampled, t0, start)
	}
	return v
}

// accept ends a request that takes the default accept without a walk,
// counting and recording it exactly as Filter's full path does. start names
// the built-in chain it entered ("" for none).
func (b *Batch) accept(req *Request, sampled bool, t0 int64, start string) Verdict {
	b.e.Stats.Requests.Add(b.pid, 1)
	b.e.Stats.Accepts.Add(b.pid, 1)
	if b.ob != nil {
		b.ob.finish(b.pid, req, VerdictAccept, sampled, t0, start)
	}
	return VerdictAccept
}

// traversed counts an entry into built-in chain ci that finds no candidate
// to walk, as run would count it.
func (b *Batch) traversed(ci *chainIndex) {
	if ci.chain.Traversals != nil {
		ci.chain.Traversals.Add(b.pid, 1)
	}
}

// Finish releases the batch's evaluation context back to the process free
// list and drops every snapshot reference. The Batch may be reused with a
// fresh StartBatch.
func (b *Batch) Finish() {
	if b.ctx != nil {
		b.ps.releaseCtx(b.ctx)
		b.ctx = nil
	}
	b.e, b.rs, b.ob, b.ps = nil, nil, nil, nil
}
