package main

import (
	"fmt"

	"pfirewall/internal/kernel"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/pfverify"
	"pfirewall/internal/policyd"
	"pfirewall/internal/programs"
	"pfirewall/internal/worldgen"
)

// The rule churn replays internal/fleet's ruleChurn as a precomputed list.
const (
	churnTag   = "<bench-churn>"
	churnWave  = 16 // rules per tagged wave, the canary included
	churnReads = 8  // page reads after every acknowledged apply
	// canaryEntry is the call site the canary rule guards; the probe
	// process opens hotPath from there after every ack.
	canaryEntry = 0xcafe0
)

const (
	kWave uint8 = iota
	kDrain
	kRollback
	kReload
	nChurnKinds
)

var churnKindNames = [nChurnKinds]string{"wave", "drain", "rollback", "reload"}

// churnOp is one acknowledged control-plane request, the rule delta the
// live base must show after it, the canary verdict it implies, and the
// page reads that follow it.
type churnOp struct {
	kind       uint8
	req        policyd.Request
	delta      int
	canaryDrop bool
	reads      []string
}

func (o *churnOp) String() string {
	return fmt.Sprintf("%s %s %q delta=%d canary_drop=%v reads=%q",
		churnKindNames[o.kind], o.req.Op, o.req.Lines, o.delta, o.canaryDrop, o.reads)
}

// genChurnOps draws the cycles of fleet.ruleChurn: a 16-rule tagged wave
// (one of its rules the canary), drained by tag or, every 5th cycle,
// rolled back by version; every 8th cycle is instead an atomic -F plus
// base reload. The list holds whole cycles, so replaying it from the top
// finds the base as it started.
func genChurnOps(r *xorshift, cycles int, baseSrc string, base []string, page func(*xorshift) string, withReload bool) []churnOp {
	canary := fmt.Sprintf("pftables -p %s -i 0x%x -d {etc_t} -o FILE_OPEN -j DROP", programs.BinBash, canaryEntry)
	reads := func() []string {
		out := make([]string, churnReads)
		for i := range out {
			out[i] = page(r)
		}
		return out
	}
	var ops []churnOp
	for c := 0; c < cycles; c++ {
		if withReload && c%8 == 7 {
			ops = append(ops, churnOp{kind: kReload, reads: reads(),
				req: policyd.Request{Op: "apply", Src: baseSrc, Lines: append([]string{"pftables -F"}, base...)}})
			continue
		}
		// Inert rules on distinct dead call sites of an unrelated binary,
		// so live verdicts other than the canary's never change.
		first := r.intn(256 - churnWave)
		at := r.intn(churnWave)
		lines := make([]string, 0, churnWave)
		for i := 0; i < churnWave; i++ {
			if i == at {
				lines = append(lines, canary)
				continue
			}
			lines = append(lines, fmt.Sprintf("pftables -p %s -i 0x%x -d {tmp_t} -o FILE_UNLINK -j DROP",
				programs.BinBash, 0xdead00+first+i))
		}
		ops = append(ops, churnOp{kind: kWave, delta: churnWave, canaryDrop: true, reads: reads(),
			req: policyd.Request{Op: "apply", Src: churnTag, Lines: lines}})
		if c%5 == 4 {
			ops = append(ops, churnOp{kind: kRollback, reads: reads(), req: policyd.Request{Op: "rollback"}})
		} else {
			ops = append(ops, churnOp{kind: kDrain, reads: reads(),
				req: policyd.Request{Op: "apply", Src: "churn-drain.pft",
					Lines: []string{"pftables -D input --tag " + churnTag}}})
		}
	}
	return ops
}

// churner is a policyd daemon with its client, the canary probe process
// and the apache worker whose page reads follow every apply.
type churner struct {
	srv    *policyd.Server
	cl     *policyd.Client
	canary *kernel.Proc
	ap     *programs.Apache
	httpd  *kernel.Proc
	ops    []churnOp
	cursor int
	base   int
	// publishNs and waitNs split each acknowledged request's round trip
	// into the server's time in the engine transaction and the rest.
	publishNs, waitNs []float64
}

// startChurner starts policyd on w under the worldgen invariants, proves
// them on the live base (the first proof) and dials it.
func startChurner(w *programs.World, socket, docRoot string, ops []churnOp) (*churner, error) {
	invs, err := pfverify.ParseInvariants("<worldgen>", worldgen.Invariants())
	if err != nil {
		return nil, err
	}
	eng := w.Engine
	if rep := pfverify.Check(pfverify.FromEngine(eng), eng.Policy().SIDs(), invs); rep.Violated() {
		return nil, fmt.Errorf("base violates the worldgen invariants: %v", rep.Violations()[0].String())
	}
	srv, err := policyd.Serve(w.K, w.Env, eng, socket, nil)
	if err != nil {
		return nil, fmt.Errorf("policyd serve: %w", err)
	}
	srv.SetInvariants(invs)
	cl, err := policyd.Dial(w.K, socket)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("policyd dial: %w", err)
	}
	c := &churner{
		srv: srv, cl: cl, ops: ops, base: eng.RuleCount(),
		canary: w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "init_t", Exec: programs.BinBash}),
		ap:     programs.NewApache(w),
	}
	c.ap.DocRoot = docRoot
	c.httpd = c.ap.Spawn()
	if resp, err := cl.Do(policyd.Request{Op: "version"}, 0); err != nil || !resp.OK || resp.Rules != c.base {
		c.stop()
		return nil, fmt.Errorf("policyd version: %+v %v", resp, err)
	}
	return c, nil
}

func (c *churner) stop() {
	c.cl.Close()
	c.srv.Close()
	c.canary.Exit(0)
	c.httpd.Exit(0)
}

// step sends the next request, checks the ack, the live rule count and
// the canary verdict, then reads the op's pages. It returns the request's
// round trip and kind.
func (c *churner) step(tr *tracer, reads *[]uint32) (int64, int, error) {
	op := &c.ops[c.cursor]
	c.cursor = (c.cursor + 1) % len(c.ops)
	rtt, err := c.exec(op, tr, reads)
	return rtt, int(op.kind), err
}

func (c *churner) exec(op *churnOp, tr *tracer, reads *[]uint32) (int64, error) {
	t0 := nanotime()
	tr.begin(spApply)
	resp, err := c.cl.Do(op.req, 0)
	tr.end()
	rtt := nanotime() - t0
	if err != nil {
		return rtt, fmt.Errorf("%s: %w", churnKindNames[op.kind], err)
	}
	if op.req.Op == "apply" { // a rollback reports no publish time
		c.publishNs = append(c.publishNs, float64(resp.PublishNs))
		c.waitNs = append(c.waitNs, float64(rtt-resp.PublishNs))
	}
	if !resp.OK || resp.Rules != c.base+op.delta {
		return rtt, fmt.Errorf("%s: ok=%v rules=%d want %d: %s %v", churnKindNames[op.kind], resp.OK, resp.Rules, c.base+op.delta, resp.Err, resp.Findings)
	}
	var want error
	if op.canaryDrop {
		want = kernel.ErrPFDenied
	}
	tr.begin(spCanary)
	err = c.probeCanary()
	tr.end()
	if err := outcome(err, want); err != nil {
		return rtt, fmt.Errorf("canary after %s: %w", churnKindNames[op.kind], err)
	}
	for i, url := range op.reads {
		name := spReadN
		if i == 0 {
			name = spRead0
		}
		t := nanotime()
		tr.begin(name)
		_, err := c.ap.Serve(c.httpd, url)
		tr.end()
		*reads = append(*reads, toNs(nanotime()-t))
		if err != nil {
			return rtt, fmt.Errorf("read %s after %s: %w", url, churnKindNames[op.kind], err)
		}
	}
	return rtt, nil
}

func (c *churner) probeCanary() error {
	if err := c.canary.SyscallSite(programs.BinBash, canaryEntry); err != nil {
		return err
	}
	fd, err := c.canary.Open(hotPath, kernel.O_RDONLY, 0)
	if err != nil {
		return err
	}
	return c.canary.Close(fd)
}

// policyChurn is the fleet's control plane under load: acknowledged
// policyd applies against the small world, refinement gate armed.
type policyChurn struct {
	spec worldgen.Spec
	ops  []churnOp
}

// churnCycles is the op list's length in cycles: a multiple of 8 and 5,
// so reloads and rollbacks land at the same places on every pass.
const churnCycles = 40

func planPolicyChurn(seed uint64) *policyChurn {
	spec := worldgen.Small
	spec.Seed = seed
	r := &xorshift{s: seed*0x9e3779b97f4a7c15 | 1}
	s := tenantSite(spec, 0)
	return &policyChurn{spec: spec, ops: genChurnOps(r, churnCycles, "worldgen.pft", worldgen.Rules(spec), s.page, true)}
}

func (p *policyChurn) inputs() []string {
	lines := []string{fmt.Sprintf("spec %+v", p.spec)}
	for i := range p.ops {
		lines = append(lines, p.ops[i].String())
	}
	return lines
}

func (p *policyChurn) build(attachObs bool, tr *tracer) (*instance, error) {
	cfg := pf.Optimized()
	opts := programs.WorldOpts{PF: &cfg, MACEnforcing: true}
	if attachObs {
		opts.Obs = obs.New()
	}
	tr.begin(spWorldBuild)
	w := worldgen.Build(p.spec, opts)
	tr.end()
	c, err := startChurner(w.World, "pfpolicy-bench", worldgen.TenantRoot, p.ops)
	if err != nil {
		return nil, err
	}
	inst := &instance{
		w:       w.World,
		rules:   w.Stats.Rules,
		classes: churnKindNames[:],
		listLen: len(p.ops),
		step:    c.step,
		stop:    c.stop,
	}
	inst.probe = func(tr *tracer, m metricSet) error {
		return probeWorld(inst, tr, m, probeInputs{
			site: tenantSite(p.spec, 0), base: worldgen.Rules(p.spec), baseSrc: "worldgen.pft",
			deepPath: p.spec.DeepFilePath(0, 0), webLabel: "tenant00_web_t",
			advUser: func() *kernel.Proc { return w.NewTenantUser(0, 0) }, churn: c,
		})
	}
	return inst, nil
}
