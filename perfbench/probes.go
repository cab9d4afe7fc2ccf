package main

import (
	"fmt"
	"runtime"

	"pfirewall/internal/kernel"
	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
	"pfirewall/internal/pfcheck"
	"pfirewall/internal/pftables"
	"pfirewall/internal/pfverify"
	"pfirewall/internal/programs"
	"pfirewall/internal/ustack"
	"pfirewall/internal/vfs"
	"pfirewall/internal/worldgen"
)

// probeInputs are the workload's own inputs the traced run's probes call
// each layer's exported functions on.
type probeInputs struct {
	personas *personas // nil: the probe starts its own on the world
	advUser  func() *kernel.Proc
	site     site
	base     []string // the rule base, as installed
	baseSrc  string
	deepPath string    // the world's deepest page
	webLabel mac.Label // label of the served pages
	churn    *churner  // the workload's control plane, when it has one
}

// probeNs times f in batches of per calls and reports the median over
// batches of the mean ns per call.
func probeNs(batches, per int, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	v := make([]float64, batches)
	for b := range v {
		t0 := nanotime()
		for i := 0; i < per; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		v[b] = float64(nanotime()-t0) / float64(per)
	}
	return median(v), nil
}

// fileRes is the pf.Resource of a file reached by path, for direct
// Engine.Filter probes.
type fileRes struct {
	n    *vfs.Inode
	path string
}

func (r *fileRes) SID() mac.SID                    { return r.n.SID }
func (r *fileRes) ID() uint64                      { return uint64(r.n.Ino) }
func (r *fileRes) Path() string                    { return r.path }
func (r *fileRes) Class() mac.Class                { return mac.ClassFile }
func (r *fileRes) OwnerUID() int                   { return r.n.UID }
func (r *fileRes) LinkTargetOwnerUID() (int, bool) { return 0, false }

// probeIDs numbers probe-pass ops apart from the timed phase's.
const probeIDs = int64(1) << 40

// probeWorld fills the probe metrics and, for span groups the workload's
// own ops never opened, runs the ops that open them.
func probeWorld(inst *instance, tr *tracer, m metricSet, in probeInputs) error {
	w := inst.w
	fs, pol, eng := w.K.FS, w.K.Policy, w.Engine
	tbl := pol.SIDs()
	bench, err := benchProc(w)
	if err != nil {
		return err
	}
	defer bench.Exit(0)
	ps := in.personas
	if ps == nil {
		if ps, err = startPersonas(w, in.site.docRoot, in.advUser()); err != nil {
			return err
		}
		defer ps.stop()
	}
	r := &xorshift{s: 0x51ed270b27a9c4f5}
	put := func(name string, ns float64, div float64, unit string, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m.put(name, ns/div, unit)
		return nil
	}
	resolve := func(path string) (float64, error) {
		var res vfs.Resolved
		return probeNs(50, 200, func() error {
			return fs.ResolveInto(&res, nil, path, vfs.ResolveOpts{FollowFinal: true}, vfs.NopMediator)
		})
	}
	v, err := resolve(hotPath)
	if err := put("vfs.resolve_ns", v, 1, "ns", err); err != nil {
		return err
	}
	v, err = resolve(in.deepPath)
	if err := put("vfs.resolve_deep_ns", v, 1, "ns", err); err != nil {
		return err
	}

	httpd, web, tmp := tbl.SID("httpd_t"), tbl.SID(in.webLabel), tbl.SID("tmp_t")
	v, err = probeNs(50, 1000, func() error {
		if !pol.Authorized(httpd, web, mac.ClassFile, mac.PermRead) {
			return fmt.Errorf("httpd_t may not read %s", in.webLabel)
		}
		return nil
	})
	if err := put("mac.authorized_ns", v, 1, "ns", err); err != nil {
		return err
	}
	v, err = probeNs(50, 1000, func() error {
		if ok, _ := pol.AdversaryWritableHit(httpd, tmp); !ok {
			return fmt.Errorf("tmp_t not adversary-writable")
		}
		return nil
	})
	if err := put("mac.adv_writable_ns", v, 1, "ns", err); err != nil {
		return err
	}

	v, err = probeNs(50, 200, func() error {
		pcs, err := ustack.UnwindBinary(bench.UserMemory(), bench.UserRegs(), 0)
		if err == nil && len(pcs) < 17 {
			err = fmt.Errorf("unwound %d frames", len(pcs))
		}
		return err
	})
	if err := put("ustack.unwind_ns", v, 1, "ns", err); err != nil {
		return err
	}
	php := programs.NewPHP(w).Spawn()
	defer php.Exit(0)
	for i, s := range []string{"/var/www/scripts/index.php", "/var/www/scripts/gcalendar.php", "/var/www/scripts/index.php"} {
		if err := php.InterpPush(s, 10*i+1); err != nil {
			return err
		}
	}
	v, err = probeNs(50, 200, func() error {
		lang, head := php.Interp()
		frames, err := ustack.UnwindInterp(lang, php.UserMemory(), head)
		if err == nil && len(frames) != 3 {
			err = fmt.Errorf("unwound %d php frames", len(frames))
		}
		return err
	})
	if err := put("ustack.unwind_interp_ns", v, 1, "ns", err); err != nil {
		return err
	}

	filter := func(p *kernel.Proc, path string) (float64, error) {
		n, err := lookup(fs, path)
		if err != nil {
			return 0, err
		}
		res := &fileRes{n: n, path: path}
		req := &pf.Request{Proc: p, Op: pf.OpFileOpen, Obj: res}
		return probeNs(50, 200, func() error {
			if v := eng.Filter(req); v != pf.VerdictAccept {
				return fmt.Errorf("%s: %v", path, v)
			}
			return nil
		})
	}
	v, err = filter(bench, hotPath)
	if err := put("pf.filter_ns", v, 1, "ns", err); err != nil {
		return err
	}
	if err := ps.httpd.SyscallSite(programs.BinApache, programs.EntryApacheServe); err != nil {
		return err
	}
	v, err = filter(ps.httpd, in.site.docRoot+in.site.page(r))
	if err := put("pf.filter_serve_ns", v, 1, "ns", err); err != nil {
		return err
	}

	wave := genChurnOps(r, 1, in.baseSrc, in.base, in.site.page, false)
	v, err = probeNs(20, 10, func() error {
		for i, line := range wave[0].req.Lines {
			if _, err := pftables.ParseAt(w.Env, line, pf.Pos{File: churnTag, Line: i + 1}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := put("pftables.parse_us", v, 1e3, "us", err); err != nil {
		return err
	}
	chains := map[string]*pf.Chain{}
	for _, name := range eng.Chains() {
		if c, ok := eng.Chain(name); ok {
			chains[name] = c
		}
	}
	v, err = probeNs(3, 1, func() error {
		pfcheck.AnalyzeRuleset(tbl, chains, nil)
		return nil
	})
	if err := put("pfcheck.analyze_us", v, 1e3, "us", err); err != nil {
		return err
	}
	invs, err := pfverify.ParseInvariants("<worldgen>", worldgen.Invariants())
	if err != nil {
		return err
	}
	v, err = probeNs(3, 1, func() error {
		cur := pfverify.FromEngine(eng)
		cand := pfverify.NewEvaluator(pol, chains, eng.Config())
		if regs := pfverify.Refines(cur, cand, tbl, invs); len(regs) > 0 {
			return fmt.Errorf("live base does not refine itself: %s", regs[0].Invariant)
		}
		return nil
	})
	if err := put("pfverify.refines_us", v, 1e3, "us", err); err != nil {
		return err
	}

	// Publishes on a twin engine holding the same base, ungated.
	twin := pf.New(pol, eng.Config())
	if _, err := pftables.ApplyAllFrom(w.Env, twin, in.baseSrc, in.base); err != nil {
		return fmt.Errorf("twin base: %w", err)
	}
	drain := []string{"pftables -D input --tag " + churnTag}
	var commits []float64
	for i := 0; i < 20; i++ {
		t := nanotime()
		if _, err := pftables.ApplyAllFrom(w.Env, twin, churnTag, wave[0].req.Lines); err != nil {
			return fmt.Errorf("pf.commit_us: %w", err)
		}
		commits = append(commits, float64(nanotime()-t))
		if _, err := pftables.ApplyAllFrom(w.Env, twin, "churn-drain.pft", drain); err != nil {
			return fmt.Errorf("pf.commit_us: %w", err)
		}
	}
	m.put("pf.commit_us", median(commits)/1e3, "us")
	if tr.dur[spInstall].n == 0 {
		runtime.GC()
		t := nanotime()
		if _, err := pftables.InstallAllFrom(w.Env, pf.New(pol, eng.Config()), in.baseSrc, in.base); err != nil {
			return fmt.Errorf("install probe: %w", err)
		}
		m.put("pftables.install_ms", float64(nanotime()-t)/1e6, "ms")
	}

	id := probeIDs
	if tr.dur[spGetpid].n == 0 {
		passwd, err := lookup(fs, hotPath)
		if err != nil {
			return err
		}
		size := fs.StatOf(passwd).Size
		for i := 0; i < 2000; i++ {
			tr.beginOp(id, true)
			err := hotCycle(bench, hotPath, size, tr)
			tr.endOp()
			id++
			if err != nil {
				return err
			}
		}
	}
	var seen [nSpanNames]bool
	for n := range seen {
		seen[n] = tr.dur[n].n > 0
	}
	for _, op := range probeWebOps(in.site, r) {
		if seen[webClassSpan[op.class]] {
			continue
		}
		tr.beginOp(id, true)
		err := ps.run(&op, tr)
		tr.endOp()
		id++
		if err != nil {
			return err
		}
	}

	c := in.churn
	if c == nil {
		ops := genChurnOps(r, 2, in.baseSrc, in.base, in.site.page, false)
		if c, err = startChurner(w, "pfpolicy-probe", in.site.docRoot, ops); err != nil {
			return err
		}
		defer c.stop()
		var reads []uint32
		for range ops {
			tr.beginOp(id, true)
			_, _, err := c.step(tr, &reads)
			tr.endOp()
			id++
			if err != nil {
				return err
			}
		}
	}
	m.put("policyd.server_us", median(c.publishNs)/1e3, "us")
	m.put("policyd.wait_us", median(c.waitNs)/1e3, "us")
	m.put("pfverify.vetoes", float64(c.srv.VerifyVetoes()), "count")
	return nil
}

// probeWebOps lists a few ops of every persona class; the adversary's
// create, unlink and flip keep one lure consistent.
func probeWebOps(s site, r *xorshift) []webOp {
	var ops []webOp
	lure := "/tmp/probe-lure"
	for i := 0; i < 50; i++ {
		tgt, _ := s.advTarget(r)
		ops = append(ops,
			webOp{class: cServe, arg: s.page(r)},
			webOp{class: cServeDeep, arg: s.deep(r)},
			webOp{class: cServeSymlink, arg: s.symlink(r)},
			webOp{class: cAuth},
			webOp{class: cGuard, arg: s.guard(r), want: kernel.ErrPFDenied},
			webOp{class: cPHPInclude, arg: "/var/www/scripts/gcalendar.php"},
			webOp{class: cPHPProbe, arg: s.phpProbe(r), want: kernel.ErrPFDenied},
			webOp{class: cSshd},
			webOp{class: cDbus},
			webOp{class: cAdvCreate, arg: lure},
			webOp{class: cAdvUnlink, arg: lure},
			webOp{class: cAdvFlip, arg: lure, target: tgt},
			webOp{class: cAdvUnlink, arg: lure},
		)
	}
	return ops
}
