package pf

// The linear oracle: the reference semantics every compiled program must
// reproduce, written as the paper's Figure 3 walk over Chain.Rules with no
// index at all. The differential tests run it beside the compiled dispatch
// on twin engines and compare verdicts, rule hits, LOG records and STATE
// side effects.
//
// Routing follows Batch.Filter: mangle/input first, then the start chain
// (skipping its entrypoint rules under EptChains), then — under EptChains —
// the entrypoint rules keyed on each unwound frame in stack order, each key
// in its chain's list order. A jump from an entrypoint rule walks its target
// and resumes the scan; RETURN from an entrypoint rule is ignored.

// linearFilter decides req against e's current snapshot by linear walk. It
// fires targets (hits, LOG, STATE) exactly as Filter does but keeps no
// statistics, traversal counts or spans.
func linearFilter(e *Engine, req *Request) Verdict {
	rs := e.rs.Load()
	if rs.totalRules == 0 {
		return VerdictAccept
	}
	ps := req.Proc.PFState()
	ctx := ps.acquireCtx()
	defer ps.releaseCtx(ctx)
	ctx.reset(req, e, rs)
	if !e.cfg.LazyCtx {
		ctx.Require(rs.allNeeds)
	}
	start := "input"
	if req.Op == OpSyscallBegin {
		start = "syscallbegin"
	}
	v, final := VerdictAccept, false
	if start == "input" {
		if m := rs.chains["mangle/input"]; m != nil && len(m.Rules) > 0 {
			if act := linearWalk(ctx, rs, m, false); act.Final {
				v, final = act.Verdict, true
			}
		}
	}
	if !final {
		if c := rs.chains[start]; c != nil {
			if act := linearWalk(ctx, rs, c, e.cfg.EptChains); act.Final {
				v, final = act.Verdict, true
			}
		}
	}
	if !final && e.cfg.EptChains && rs.hasEptRules && mayMatchEpt(rs, req.Proc) {
		eps, _ := ctx.Entrypoints()
	scan:
		for _, ep := range eps {
			for _, r := range rs.chains[start].Rules {
				if !r.EntrySet || r.Program != ep.Path || r.Entry != ep.Off {
					continue
				}
				act := e.evalRule(ctx, r)
				if !act.Final && act.Jump != "" {
					if c := rs.chains[act.Jump]; c != nil {
						act = linearWalk(ctx, rs, c, false)
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
	return v
}

// linearWalk walks start's rule list, following jumps and returns on a
// local frame stack. skipEpt omits the entrypoint rules of a built-in
// filter chain, which the entrypoint scan runs instead.
func linearWalk(ctx *EvalCtx, rs *Program, start *Chain, skipEpt bool) Action {
	type frame struct {
		c *Chain
		i int
	}
	stack := []frame{{c: start}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.i >= len(top.c.Rules) {
			stack = stack[:len(stack)-1]
			continue
		}
		r := top.c.Rules[top.i]
		top.i++
		if skipEpt && r.EntrySet && (top.c.Name == "input" || top.c.Name == "syscallbegin") {
			continue
		}
		act := ctx.engine.evalRule(ctx, r)
		switch {
		case act.Final:
			return act
		case act.Return:
			stack = stack[:len(stack)-1]
		case act.Jump != "":
			if c := rs.chains[act.Jump]; c != nil {
				stack = append(stack, frame{c: c})
			}
		}
	}
	return Continue
}
