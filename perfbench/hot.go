package main

import (
	"fmt"

	"pfirewall/internal/kernel"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
	"pfirewall/internal/programs"
	"pfirewall/internal/rulegen"
	"pfirewall/internal/vfs"
)

// hotRules is the size of syscall-hot's rule base.
const hotRules = 10000

// hotPath is the file the syscall-hot cycle works on.
const hotPath = "/etc/passwd"

// hotChain is the user chain on the subject's FILE_OPEN path, shaped like
// examples/rules/webserver.pft: entered by -j, left by RETURN for the
// files the subject may read. The compiled dispatch index falls back to
// linear traversal at the jump.
var hotChain = []string{
	"pftables -N sshd_chain",
	"pftables -A input -s sshd_t -o FILE_OPEN -j sshd_chain",
	"pftables -A sshd_chain -d {etc_t|lib_t|usr_t} -j RETURN",
	"pftables -A sshd_chain -d shadow_t -j DROP",
}

// syscallHot is lmbench's view of a protected daemon: one sshd_t process
// 16 frames deep repeating a short file-syscall cycle against a 10k-rule
// base, metrics detached.
type syscallHot struct {
	rules []string
}

func planSyscallHot(seed uint64) *syscallHot {
	rules := programs.StandardRules()
	filler := hotRules - len(rules) - len(hotChain)
	rules = append(rules, rulegen.ScaleRuleBase(seed, filler)...)
	return &syscallHot{rules: append(rules, hotChain...)}
}

func (p *syscallHot) inputs() []string {
	return append([]string{fmt.Sprintf("op open,fstat,read,close,stat,getpid %s", hotPath)}, p.rules...)
}

// benchProc starts the subject the way lmbench's benchProc does: sshd_t,
// 16 frames deep, at a fixed syscall site.
func benchProc(w *programs.World) (*kernel.Proc, error) {
	p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: programs.BinSshd})
	for i := 0; i < 16; i++ {
		if err := p.PushFrame(programs.BinSshd, uint64(0x100+i*0x10)); err != nil {
			return nil, err
		}
	}
	if err := p.SyscallSite(programs.BinSshd, 0x300); err != nil {
		return nil, err
	}
	return p, nil
}

// hotCycle is one syscall-hot op: open, fstat, read, close, stat and
// getpid on path, each checked.
func hotCycle(p *kernel.Proc, path string, size int, tr *tracer) error {
	tr.begin(spOpen)
	fd, err := p.Open(path, kernel.O_RDONLY, 0)
	tr.end()
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	tr.begin(spFstat)
	st, err := p.Fstat(fd)
	tr.end()
	if err != nil || st.Size != size {
		p.Close(fd)
		return fmt.Errorf("fstat %s: size %d want %d: %v", path, st.Size, size, err)
	}
	tr.begin(spRead)
	data, err := p.Read(fd, 64)
	tr.end()
	if err != nil || len(data) == 0 {
		p.Close(fd)
		return fmt.Errorf("read %s: %d bytes: %v", path, len(data), err)
	}
	tr.begin(spClose)
	err = p.Close(fd)
	tr.end()
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	tr.begin(spStat)
	st, err = p.Stat(path)
	tr.end()
	if err != nil || st.Size != size {
		return fmt.Errorf("stat %s: size %d want %d: %v", path, st.Size, size, err)
	}
	tr.begin(spGetpid)
	pid, err := p.Getpid()
	tr.end()
	if err != nil || pid != p.PID() {
		return fmt.Errorf("getpid = %d want %d: %v", pid, p.PID(), err)
	}
	return nil
}

func (p *syscallHot) build(attachObs bool, tr *tracer) (*instance, error) {
	cfg := pf.Optimized()
	opts := programs.WorldOpts{PF: &cfg}
	if attachObs {
		opts.Obs = obs.New()
	}
	tr.begin(spWorldBuild)
	w := programs.NewWorld(opts)
	tr.end()
	tr.begin(spInstall)
	n, err := pftables.InstallAllFrom(w.Env, w.Engine, "syscall-hot.pft", p.rules)
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("rule install: %w", err)
	}
	proc, err := benchProc(w)
	if err != nil {
		return nil, err
	}
	passwd, err := lookup(w.K.FS, hotPath)
	if err != nil {
		return nil, err
	}
	size := w.K.FS.StatOf(passwd).Size
	inst := &instance{
		w:           w,
		rules:       n,
		classes:     []string{"hot_cycle"},
		listLen:     1,
		stop:        func() { proc.Exit(0) },
		readsAreOps: true,
	}
	inst.step = func(tr *tracer, _ *[]uint32) (int64, int, error) {
		t0 := nanotime()
		tr.begin(spHotCycle)
		err := hotCycle(proc, hotPath, size, tr)
		tr.end()
		return nanotime() - t0, 0, err
	}
	inst.probe = func(tr *tracer, m metricSet) error {
		s, err := programsSite(w)
		if err != nil {
			return err
		}
		return probeWorld(inst, tr, m, probeInputs{
			site: s, base: p.rules, baseSrc: "syscall-hot.pft", deepPath: "/var/www/html/d/index.html",
			webLabel: "httpd_content_t", advUser: w.NewUser,
		})
	}
	return inst, nil
}

// programsSite addresses the standard programs world for the persona
// probes of the traced run. The world has no owner-matched symlink under
// the web root and no tenant guard, so the probe adds both: a root-owned
// current -> /var/www/html link, and a guard dropping the serve
// entrypoint's opens of user_home_t (the home the adversary owns).
func programsSite(w *programs.World) (site, error) {
	fs := w.K.FS
	html := fs.MustPath("/var/www/html")
	if _, ok := fs.Lookup(html, "current"); !ok {
		if _, err := fs.CreateAt(html, "current", "/var/www/html/current", vfs.CreateOpts{
			Mode: 0o777, Type: vfs.TypeSymlink, Target: "/var/www/html",
		}); err != nil {
			return site{}, err
		}
	}
	home := fs.MustPath("/home/user")
	if _, ok := fs.Lookup(home, ".profile"); !ok {
		if _, err := fs.CreateAt(home, ".profile", "/home/user/.profile", vfs.CreateOpts{
			UID: 1000, GID: 1000, Mode: 0o644,
		}); err != nil {
			return site{}, err
		}
		guard := fmt.Sprintf("pftables -p %s -i 0x%x -d {user_home_t} -o FILE_OPEN -j DROP",
			programs.BinApache, programs.EntryApacheServe)
		if _, err := pftables.ApplyAllFrom(w.Env, w.Engine, "probe-guard.pft", []string{guard}); err != nil {
			return site{}, err
		}
	}
	fixed := func(s string) func(*xorshift) string { return func(*xorshift) string { return s } }
	return site{
		docRoot:  "/var/www/html",
		page:     fixed("/index.html"),
		deep:     fixed("/d/index.html"),
		symlink:  fixed("/current/index.html"),
		guard:    fixed("/../../../home/user/.profile"),
		phpProbe: fixed(hotPath),
		advUID:   1000,
		advTarget: func(r *xorshift) (string, int) {
			if r.intn(2) == 0 {
				return hotPath, 0
			}
			return "/home/user/.profile", 1000
		},
	}, nil
}

// lookup resolves path without mediation.
func lookup(fs *vfs.FS, path string) (*vfs.Inode, error) {
	res, err := fs.Resolve(nil, path, vfs.ResolveOpts{FollowFinal: true}, nil)
	if err != nil {
		return nil, fmt.Errorf("lookup %s: %w", path, err)
	}
	return res.Node, nil
}
