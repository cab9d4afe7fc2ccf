package kernel

import (
	"pfirewall/internal/ipc"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/vfs"
)

// medState is the per-syscall mediation scratch: one Process Firewall batch
// (the gauntlet snapshot amortized across every check the syscall performs),
// plus preallocated request/resource/resolution storage so the mediation
// path — path-walk per-component checks included — performs no heap
// allocation in the steady state.
//
// Ownership model: a medState belongs to exactly one in-flight syscall on
// its process. enterSyscall acquires one (pushing it on p.curMed, a LIFO —
// signal-handler re-entry nests by pushing deeper), the syscall's deferred
// exitSyscall releases it back to p.medFree. The paper's single-flow
// invariant (a process mediates on its own flow) is what makes the
// lock-free per-proc freelist sound.
type medState struct {
	p  *Proc
	nr Syscall

	b   pf.Batch
	req pf.Request

	// One scratch slot per resource shape the kernel mediates.
	res      resource
	ipcRes   ipcResource
	sigRes   signalResource
	sig      pf.SignalInfo
	resolved vfs.Resolved

	prev        *medState // enclosing syscall's scratch (signal re-entry)
	batchActive bool

	// Span scratch. ob is non-nil exactly when this syscall was sampled at
	// entry: every request it mediates carries a timed span, embedded here
	// by value, and the latency histograms observe that span's stamps.
	// Outside a sampled syscall only a DROP publishes a span, untimed
	// (dropSpan). Arming, filling and publishing (a value copy into the
	// tracer ring) allocate nothing; an unsampled accept pays one nil
	// check per filter site.
	ob         *kernelObs
	span       obs.Span
	spanT0     int64  // syscall entry stamp (obs.MonoNow)
	medT0      int64  // open mediation's entry stamp (zero once it is timed)
	gT0        int64  // current request's gauntlet-entry stamp
	syscallSeq uint64 // kernel-wide syscall ordinal (groups batch members)
	spanIdx    uint32 // requests spanned so far in this syscall
	dcHits     uint32 // resolved.DcacheHits already attributed to spans
	dcMisses   uint32
}

// Mediate implements vfs.Mediator: every object touched during path
// resolution runs the DAC → MAC → PF gauntlet for the owning syscall.
func (ms *medState) Mediate(a vfs.Access) error { return ms.p.mediate(ms.nr, a) }

// acquireMed pops a scratch off the process freelist (or allocates on the
// cold first use / deepest-ever nesting) and pushes it as the current one.
func (p *Proc) acquireMed(nr Syscall) *medState {
	var ms *medState
	if n := len(p.medFree); n > 0 {
		ms = p.medFree[n-1]
		p.medFree[n-1] = nil
		p.medFree = p.medFree[:n-1]
	} else {
		ms = &medState{}
	}
	ms.p = p
	ms.nr = nr
	ms.prev = p.curMed
	p.curMed = ms
	return ms
}

// exitSyscall finishes the current syscall's batch and recycles its scratch.
// Deferred by every syscall entry point right after enterSyscall succeeds;
// enterSyscall itself releases on its own denial path.
func (p *Proc) exitSyscall() {
	ms := p.curMed
	if ms == nil {
		return
	}
	p.curMed = ms.prev
	if ms.batchActive {
		ms.b.Finish()
		ms.batchActive = false
	}
	// Drop references so recycled scratch does not pin inodes, conns, or
	// processes. The resolved Trail keeps its backing array — that reuse is
	// the point — but is truncated; ResolveInto resets it on entry anyway.
	ms.p = nil
	ms.nr = 0
	ms.req.Reset()
	ms.res = resource{}
	ms.ipcRes = ipcResource{}
	ms.sigRes = signalResource{}
	ms.sig = pf.SignalInfo{}
	ms.resolved.Node, ms.resolved.Parent = nil, nil
	ms.resolved.Name, ms.resolved.Path = "", ""
	ms.resolved.Trail = ms.resolved.Trail[:0]
	ms.resolved.DcacheHits, ms.resolved.DcacheMisses = 0, 0
	ms.prev = nil
	if ms.ob != nil {
		ms.ob = nil
		ms.span = obs.Span{}
		ms.spanT0, ms.gT0 = 0, 0
		ms.syscallSeq, ms.spanIdx = 0, 0
		ms.dcHits, ms.dcMisses = 0, 0
	}
	p.medFree = append(p.medFree, ms)
}

// filter runs the armed request through the syscall's batch and publishes
// its span: timed when the syscall was sampled, untimed for a DROP
// otherwise.
func (ms *medState) filter() pf.Verdict {
	if ms.ob == nil {
		v := ms.b.Filter(&ms.req)
		if v == pf.VerdictDrop {
			ms.p.dropSpan(ms.nr, &ms.req)
		}
		return v
	}
	ms.beginSpan()
	v := ms.b.Filter(&ms.req)
	ms.endSpan(v)
	return v
}

// beginSpan fills the provenance header for the request about to enter the
// gauntlet and arms ms.req.Span so the engine annotates it in place. Every
// string stored is interned or pre-existing; no allocation occurs. Called
// only on a sampled syscall.
func (ms *medState) beginSpan() {
	now := ms.spanT0
	if ms.req.Op != pf.OpSyscallBegin {
		// The syscall-begin probe runs at syscall entry and reuses the
		// entry stamp; every later request reads the clock.
		now = obs.MonoNow()
	}
	sp := &ms.span
	*sp = obs.Span{}
	sp.PID = ms.p.pid
	sp.SyscallSeq = ms.syscallSeq
	sp.BatchIndex = ms.spanIdx
	if ms.spanIdx > 0 {
		sp.Flags |= obs.SpanBatch
	}
	sp.Syscall = ms.nr.String()
	sp.Op = ms.req.Op.String()
	if ms.req.Obj != nil {
		sp.Path = ms.req.Obj.Path()
	}
	sp.Subject = ms.p.subject
	sp.KernelNs = uint64(now - ms.spanT0)
	if ms.medT0 != 0 {
		// The request came through the vfs mediation wrapper: DAC and MAC
		// ran between medT0 and now.
		sp.CheckNs = uint64(now - ms.medT0)
		sp.KernelNs = uint64(ms.medT0 - ms.spanT0)
	}
	// Dentry-cache lookups performed since the previous span are the ones
	// that located this request's object; attribute them here and advance
	// the consumed-counter watermark.
	if ms.resolved.DcacheHits > ms.dcHits {
		sp.Flags |= obs.SpanDcacheHit
	}
	if ms.resolved.DcacheMisses > ms.dcMisses {
		sp.Flags |= obs.SpanDcacheMiss
	}
	ms.dcHits, ms.dcMisses = ms.resolved.DcacheHits, ms.resolved.DcacheMisses
	ms.gT0 = now
	ms.req.Span = sp
}

// endSpan stamps verdict, deciding rule and latency totals, disarms the
// request, feeds the gauntlet histogram, and publishes the span (a value
// copy into the tracer ring and any subscriber buffers).
func (ms *medState) endSpan(v pf.Verdict) {
	sp := &ms.span
	now := obs.MonoNow()
	sp.Verdict = v.String()
	// One end stamp covers both latency fields: the gauntlet ran the whole
	// beginSpan→endSpan bracket (the engine stamps no clocks of its own),
	// and the total adds the DAC+MAC prelude beginSpan measured (zero when
	// the request had no vfs wrapper).
	sp.GauntletNs = uint64(now - ms.gT0)
	sp.TotalNs = sp.CheckNs + sp.GauntletNs
	sp.TimeUnixNano = obs.WallNano(now)
	spanRule(sp, ms.req.Decider)
	ms.spanIdx++
	ms.req.Span = nil
	ms.b.ObserveLatency(ms.req.Op, sp.GauntletNs)
	if ms.medT0 != 0 {
		// The verdict ends the vfs mediation this request came through: its
		// latency is the span's total.
		ms.ob.medLatency.Observe(ms.p.pid, sp.TotalNs)
		ms.medT0 = 0
	}
	ms.ob.tracer.Publish(sp)
}

// dropSpan publishes a DROP outside a sampled syscall as an untimed span:
// who asked for what, and the rule that refused it, stamped once with the
// wall clock. Every DROP is published — the tracer ring is the flight
// recorder an operator reviews.
func (p *Proc) dropSpan(nr Syscall, req *pf.Request) {
	ob := p.k.obs.Load()
	if ob == nil {
		return
	}
	sp := obs.Span{
		TimeUnixNano: obs.WallNano(obs.MonoNow()),
		PID:          p.pid,
		Flags:        obs.SpanUntimed,
		Syscall:      nr.String(),
		Op:           req.Op.String(),
		Verdict:      pf.VerdictDrop.String(),
		Subject:      p.subject,
	}
	if req.Obj != nil {
		sp.Path = req.Obj.Path()
	}
	spanRule(&sp, req.Decider)
	ob.tracer.Publish(&sp)
}

// spanRule records the rule that decided a request; r is nil when the
// default accept applied.
func spanRule(sp *obs.Span, r *pf.Rule) {
	if r == nil {
		return
	}
	sp.Flags |= obs.SpanRuleDecided
	sp.RuleFile, sp.RuleLine, sp.RuleCol = r.Src.File, r.Src.Line, r.Src.Col
	sp.RuleTarget = r.Target.TargetName()
}

// pfObj names the object of one firewall consultation, in exactly one of
// its forms: an inode reached by path, a caller-built resource, a connected
// socket, or a rendezvous point.
type pfObj struct {
	node *vfs.Inode
	path string
	res  pf.Resource
	conn *ipc.Conn
	lis  *ipc.Listener
}

// fill returns the pf.Resource for o. On the hot path it fills ms's
// preallocated scratch slot; with ms nil (no syscall scratch) it builds a
// fresh one.
func (o pfObj) fill(k *Kernel, ms *medState) pf.Resource {
	switch {
	case o.res != nil:
		return o.res
	case o.conn != nil:
		if ms == nil {
			return connResource(o.conn)
		}
		ms.ipcRes.fromConn(o.conn)
		return &ms.ipcRes
	case o.lis != nil:
		if ms == nil {
			r := &ipcResource{}
			r.fromLis(o.lis)
			return r
		}
		ms.ipcRes.fromLis(o.lis)
		return &ms.ipcRes
	}
	if ms == nil {
		return &resource{k: k, node: o.node, path: o.path}
	}
	ms.res = resource{k: k, node: o.node, path: o.path}
	return &ms.res
}

// pfFilter consults the Process Firewall about op on obj. The per-op rule
// mask is checked before any request is built: an op no installed rule can
// match is a guaranteed default-accept, so the hot path skips straight past
// the firewall (verdict parity is tested). The rare
// call without an active syscall scratch (helpers invoked outside syscall
// dispatch) takes a one-shot request that allocates; the hot paths never
// reach it.
func (p *Proc) pfFilter(op pf.Op, obj pfObj, nr Syscall) error {
	pfe := p.k.PF
	if pfe == nil || !pfe.MayFilter(op) {
		return nil
	}
	ms := p.curMed
	if ms == nil || !ms.batchActive {
		req := pf.Request{Proc: p, Op: op, Obj: obj.fill(p.k, nil), SyscallNR: int(nr)}
		if pfe.Filter(&req) == pf.VerdictDrop {
			p.dropSpan(nr, &req)
			return ErrPFDenied
		}
		return nil
	}
	ms.req.Reset()
	ms.req.Proc = p
	ms.req.Op = op
	ms.req.Obj = obj.fill(p.k, ms)
	ms.req.SyscallNR = int(nr)
	if ms.filter() == pf.VerdictDrop {
		return ErrPFDenied
	}
	return nil
}
