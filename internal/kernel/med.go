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

	// Decision-provenance tracing scratch. tracer is non-nil exactly when
	// this syscall was trace-sampled at entry; the span record is embedded
	// by value, so arming, filling, and publishing (a value copy into the
	// tracer ring) allocate nothing. With tracing disabled every filter
	// site pays one nil check.
	tracer     *obs.Tracer
	span       obs.Span
	spanT0     int64  // syscall entry stamp (obs.MonoNow)
	medT0      int64  // current mediation's entry stamp (zero outside a vfs wrapper)
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
	ms.tracer = nil
	ms.span = obs.Span{}
	ms.spanT0, ms.medT0, ms.gT0 = 0, 0, 0
	ms.syscallSeq, ms.spanIdx = 0, 0
	ms.dcHits, ms.dcMisses = 0, 0
	p.medFree = append(p.medFree, ms)
}

// beginSpan fills the provenance header for the request about to enter the
// gauntlet and arms ms.req.Span so the engine annotates it in place. Every
// string stored is interned or pre-existing; no allocation occurs. Called
// only when ms.tracer != nil.
func (ms *medState) beginSpan(op pf.Op, path string) {
	now := obs.MonoNow()
	sp := &ms.span
	*sp = obs.Span{}
	sp.PID = ms.p.pid
	sp.SyscallSeq = ms.syscallSeq
	sp.BatchIndex = ms.spanIdx
	if ms.spanIdx > 0 {
		sp.Flags |= obs.SpanBatch
	}
	sp.Syscall = ms.nr.String()
	sp.Op = op.String()
	sp.Path = path
	sp.Subject = ms.p.subject
	sp.KernelNs = uint64(now - ms.spanT0)
	if ms.medT0 != 0 {
		// The request came through the vfs mediation wrapper: DAC and MAC
		// ran between medT0 and now. Consume the stamp so a mediation whose
		// op the firewall skips (MayFilter false) cannot leak its stamp
		// into a later request's split.
		sp.CheckNs = uint64(now - ms.medT0)
		sp.KernelNs = uint64(ms.medT0 - ms.spanT0)
		ms.medT0 = 0
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

// endSpan stamps verdict and latency totals, disarms the request, and
// publishes the span (a value copy into the tracer ring and any
// subscriber buffers).
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
	ms.spanIdx++
	ms.req.Span = nil
	ms.tracer.Publish(sp)
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
			return ErrPFDenied
		}
		return nil
	}
	ms.req.Reset()
	ms.req.Proc = p
	ms.req.Op = op
	ms.req.Obj = obj.fill(p.k, ms)
	ms.req.SyscallNR = int(nr)
	if ms.tracer != nil {
		ms.beginSpan(op, ms.req.Obj.Path())
	}
	v := ms.b.Filter(&ms.req)
	if ms.tracer != nil {
		ms.endSpan(v)
	}
	if v == pf.VerdictDrop {
		return ErrPFDenied
	}
	return nil
}
