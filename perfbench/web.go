package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"pfirewall/internal/kernel"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/vfs"
	"pfirewall/internal/worldgen"
)

// Persona op classes: the fleet's apache, php, sshd and dbus instances
// plus its /tmp adversary (internal/fleet/instance.go, fleet.go).
const (
	cServe uint8 = iota
	cServeDeep
	cServeSymlink
	cAuth
	cGuard
	cPHPInclude
	cPHPProbe
	cSshd
	cDbus
	cAdvCreate
	cAdvUnlink
	cAdvFlip
	nWebClasses
)

var webClassNames = [nWebClasses]string{
	"serve", "serve_deep", "serve_symlink", "auth", "guard_probe",
	"php_include", "php_probe", "sshd_session", "dbus_roundtrip",
	"adversary_create", "adversary_unlink", "adversary_flip",
}

var webClassSpan = [nWebClasses]spanName{
	spServe, spServeDeep, spServeSymlink, spAuth, spGuardProbe,
	spPHPInclude, spPHPProbe, spSshdSession, spDbusRoundtrip,
	spAdversary, spAdversary, spAdversary,
}

// webOp is one precomputed persona op and its expected outcome: nil for
// ACCEPT, kernel.ErrPFDenied for DROP, or the specific error the op must
// fail with.
type webOp struct {
	class  uint8
	arg    string // URL, include path, or /tmp slot
	target string // symlink target of an adversary flip
	want   error
}

func (o *webOp) String() string {
	return fmt.Sprintf("%s %s %s want=%v", webClassNames[o.class], o.arg, o.target, o.want)
}

// site names the pages, scripts and targets persona ops address in one
// world.
type site struct {
	docRoot  string
	page     func(r *xorshift) string // shallow page URL
	deep     func(r *xorshift) string // deepest page URL
	symlink  func(r *xorshift) string // page reached through an owner-matched symlink
	guard    func(r *xorshift) string // URL the serve entrypoint must be refused
	phpProbe func(r *xorshift) string // path the include entrypoint must be refused
	// advUID is the adversary's uid; advTarget returns a symlink target and
	// its owner's uid.
	advUID    int
	advTarget func(r *xorshift) (string, int)
}

// tenantSite addresses a worldgen world the way the fleet's personas do.
func tenantSite(spec worldgen.Spec, advTenant int) site {
	tu := func(r *xorshift) (int, int) { return r.intn(spec.Tenants), r.intn(spec.UsersPerTenant) }
	url := func(path string) string { return strings.TrimPrefix(path, worldgen.TenantRoot) }
	return site{
		docRoot: worldgen.TenantRoot,
		page: func(r *xorshift) string {
			t, u := tu(r)
			return url(worldgen.WebFilePath(t, u, r.intn(spec.WebFilesPerUser+1)))
		},
		deep: func(r *xorshift) string {
			t, u := tu(r)
			u -= u % spec.DeepEvery
			return url(spec.DeepFilePath(t, u))
		},
		symlink: func(r *xorshift) string {
			t, u := tu(r)
			return fmt.Sprintf("/t%02d/u%04d/current/index.html", t, u)
		},
		guard: func(r *xorshift) string {
			t, u := tu(r)
			return url(worldgen.HomeFilePath(t, u, r.intn(spec.HomeFilesPerUser+1)))
		},
		phpProbe: func(r *xorshift) string {
			t, u := tu(r)
			return worldgen.WebFilePath(t, u, 0)
		},
		advUID: worldgen.UserUID(advTenant, 0),
		advTarget: func(r *xorshift) (string, int) {
			if r.intn(2) == 0 {
				return "/etc/passwd", 0
			}
			t := r.intn(spec.Tenants)
			return worldgen.HomeFilePath(t, 0, 0), worldgen.UserUID(t, 0)
		},
	}
}

// webMix lists the op list's personas, each drawn with an equal share: a
// four-instance fleet runs one instance of each kind (kindRotation in
// internal/fleet/instance.go) and, with AdversaryChurn, one adversary
// goroutine beside them.
var webMix = []string{"apache", "php", "sshd", "dbus", "adversary"}

// genWebOps draws n persona ops from r with the fleet's per-persona mix
// (apache: 1/16 auth, 1/16 guard probe, 1/16 deep page, 1/16 symlink hop,
// the rest shallow pages; php: 1/8 R4 probe, 1/8 index.php, the rest
// gcalendar.php). The adversary cycles /tmp/churn-0..7 creating,
// unlinking and re-pointing lures; the list ends by unlinking what is
// left, so replaying it from the top finds /tmp as it started.
func genWebOps(r *xorshift, s site, n int) []webOp {
	type slot struct {
		present, link bool
		owner         int
	}
	var slots [8]slot
	advN := 0
	ops := make([]webOp, 0, n+len(slots))
	for len(ops) < n {
		switch webMix[r.intn(len(webMix))] {
		case "apache":
			switch r.intn(16) {
			case 0:
				ops = append(ops, webOp{class: cAuth})
			case 1:
				ops = append(ops, webOp{class: cGuard, arg: s.guard(r), want: kernel.ErrPFDenied})
			case 2:
				ops = append(ops, webOp{class: cServeDeep, arg: s.deep(r)})
			case 3:
				ops = append(ops, webOp{class: cServeSymlink, arg: s.symlink(r)})
			default:
				ops = append(ops, webOp{class: cServe, arg: s.page(r)})
			}
		case "php":
			switch r.intn(8) {
			case 0:
				ops = append(ops, webOp{class: cPHPProbe, arg: s.phpProbe(r), want: kernel.ErrPFDenied})
			case 1:
				ops = append(ops, webOp{class: cPHPInclude, arg: "/var/www/scripts/index.php"})
			default:
				ops = append(ops, webOp{class: cPHPInclude, arg: "/var/www/scripts/gcalendar.php"})
			}
		case "sshd":
			ops = append(ops, webOp{class: cSshd})
		case "dbus":
			ops = append(ops, webOp{class: cDbus})
		case "adversary":
			i := advN % len(slots)
			advN++
			sl := &slots[i]
			op := webOp{arg: fmt.Sprintf("/tmp/churn-%d", i)}
			switch r.intn(3) {
			case 0:
				op.class = cAdvCreate
				// Creating through a lure follows it; the system-wide
				// symlink-owner rule drops that unless the adversary owns
				// the target too.
				if sl.link && sl.owner != s.advUID {
					op.want = kernel.ErrPFDenied
				} else if !sl.present {
					*sl = slot{present: true}
				}
			case 1:
				op.class = cAdvUnlink
				if !sl.present {
					op.want = vfs.ErrNotExist
				}
				*sl = slot{}
			default:
				op.class = cAdvFlip
				tgt, owner := s.advTarget(r)
				op.target = tgt
				*sl = slot{present: true, link: true, owner: owner}
			}
			ops = append(ops, op)
		}
	}
	for i := range slots {
		if slots[i].present {
			ops = append(ops, webOp{class: cAdvUnlink, arg: fmt.Sprintf("/tmp/churn-%d", i)})
		}
	}
	return ops
}

// personas are the long-lived processes persona ops run in, one per
// fleet persona. All belong to the benchmark's single load goroutine.
type personas struct {
	ap    *programs.Apache
	httpd *kernel.Proc
	php   *programs.PHP
	phpP  *kernel.Proc
	sshd  *kernel.Proc
	dbus  *programs.DbusDaemon
	dproc *kernel.Proc
	cproc *kernel.Proc
	lib   *programs.LibDbus
	adv   *kernel.Proc
	burst [][]byte
}

var dbusReply = []byte("METHOD_RETURN :1.42\n")

// startPersonas spawns the persona processes the way the fleet's
// instances start: apache serving docRoot, mod_php inside index.php, an
// sshd 8 frames deep, and a listening dbus-daemon with one client.
func startPersonas(w *programs.World, docRoot string, adv *kernel.Proc) (*personas, error) {
	ps := &personas{adv: adv}
	ps.ap = programs.NewApache(w)
	ps.ap.DocRoot = docRoot
	ps.httpd = ps.ap.Spawn()
	ps.php = programs.NewPHP(w)
	ps.phpP = ps.php.Spawn()
	if err := ps.phpP.InterpPush("/var/www/scripts/index.php", 1); err != nil {
		ps.stop()
		return nil, fmt.Errorf("php start: %w", err)
	}
	ps.sshd = programs.NewSshd(w).Spawn()
	for f := 0; f < 8; f++ {
		if err := ps.sshd.PushFrame(programs.BinSshd, uint64(0x100+f*0x10)); err != nil {
			ps.stop()
			return nil, fmt.Errorf("sshd start: %w", err)
		}
	}
	ps.dbus = programs.NewDbusDaemon(w)
	ps.dproc = ps.dbus.Spawn()
	if err := ps.dbus.Start(ps.dproc); err != nil {
		ps.stop()
		return nil, fmt.Errorf("dbus-daemon start: %w", err)
	}
	ps.cproc = w.NewProc(kernel.ProcSpec{
		UID: 0, GID: 0, Label: "init_t", Exec: programs.BinSh,
		Env: map[string]string{"DBUS_SYSTEM_BUS_ADDRESS": ps.dbus.SocketPath},
	})
	ps.lib = programs.NewLibDbus(w)
	for i := 0; i < 8; i++ {
		ps.burst = append(ps.burst, []byte(fmt.Sprintf("METHOD_CALL org.freedesktop.DBus.Ping %02d\n", i)))
	}
	return ps, nil
}

func (ps *personas) stop() {
	for _, p := range []*kernel.Proc{ps.httpd, ps.phpP, ps.sshd, ps.dproc, ps.cproc, ps.adv} {
		if p != nil && !p.Exited() {
			p.Exit(0)
		}
	}
}

// outcome compares an op's error with the oracle's expectation.
func outcome(err, want error) error {
	switch {
	case want == nil && err == nil:
		return nil
	case want != nil && errors.Is(err, want):
		return nil
	}
	return fmt.Errorf("got %v, want %v", err, want)
}

// run executes one persona op and checks its outcome.
func (ps *personas) run(op *webOp, tr *tracer) error {
	tr.begin(webClassSpan[op.class])
	err := ps.exec(op, tr)
	tr.end()
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	return nil
}

func (ps *personas) exec(op *webOp, tr *tracer) error {
	switch op.class {
	case cServe, cServeDeep, cServeSymlink, cGuard:
		body, err := ps.ap.Serve(ps.httpd, op.arg)
		if err := outcome(err, op.want); err != nil {
			return err
		}
		if err == nil && strings.HasSuffix(op.arg, "/index.html") && !bytes.HasPrefix(body, []byte("<html>")) {
			return fmt.Errorf("served %q", body)
		}
		return nil
	case cAuth:
		ok, err := ps.ap.Authenticate(ps.httpd, "root")
		if err == nil && !ok {
			return errors.New("root missing from the password database")
		}
		return outcome(err, op.want)
	case cPHPInclude, cPHPProbe:
		_, err := ps.php.Include(ps.phpP, op.arg)
		return outcome(err, op.want)
	case cSshd:
		return outcome(ps.session(tr), op.want)
	case cDbus:
		return outcome(ps.roundtrip(tr), op.want)
	case cAdvCreate:
		fd, err := ps.adv.Open(op.arg, kernel.O_WRONLY|kernel.O_CREAT, 0o644)
		if err == nil {
			ps.adv.Close(fd)
		}
		return outcome(err, op.want)
	case cAdvUnlink:
		return outcome(ps.adv.Unlink(op.arg), op.want)
	case cAdvFlip:
		if err := ps.adv.Unlink(op.arg); err != nil && !errors.Is(err, vfs.ErrNotExist) {
			return err
		}
		return outcome(ps.adv.Symlink(op.target, op.arg), op.want)
	}
	return fmt.Errorf("unknown op class %d", op.class)
}

// session is one sshd login: fork, exec a shell, read the password
// database, exit.
func (ps *personas) session(tr *tracer) error {
	if err := ps.sshd.SyscallSite(programs.BinSshd, 0x300); err != nil {
		return err
	}
	tr.begin(spFork)
	child, err := ps.sshd.Fork()
	tr.end()
	if err != nil {
		return err
	}
	defer child.Exit(0)
	tr.begin(spExecve)
	err = child.Execve(programs.BinSh, map[string]string{"SHELL": programs.BinSh})
	tr.end()
	if err != nil {
		return err
	}
	if err := child.SyscallSite(programs.BinSh, 0x500); err != nil {
		return err
	}
	fd, err := child.Open("/etc/passwd", kernel.O_RDONLY, 0)
	if err != nil {
		return err
	}
	return child.Close(fd)
}

// roundtrip is one bus round trip: connect, accept, a sendmmsg burst the
// daemon drains with recvmmsg, and the reply.
func (ps *personas) roundtrip(tr *tracer) error {
	tr.begin(spConnect)
	cfd, err := ps.lib.Connect(ps.cproc)
	tr.end()
	if err != nil {
		return err
	}
	defer ps.cproc.Close(cfd)
	tr.begin(spAccept)
	afd, err := ps.dbus.AcceptOne(ps.dproc)
	tr.end()
	if err != nil {
		return err
	}
	defer ps.dproc.Close(afd)
	tr.begin(spSendmmsg)
	n, err := ps.cproc.Sendmmsg(cfd, ps.burst)
	tr.end()
	if err != nil || n != len(ps.burst) {
		return fmt.Errorf("sendmmsg sent %d of %d: %v", n, len(ps.burst), err)
	}
	tr.begin(spRecvmmsg)
	got, err := ps.dproc.Recvmmsg(afd, len(ps.burst), len(ps.burst[0]))
	tr.end()
	if err != nil || len(got) != len(ps.burst) || !bytes.Equal(got[len(got)-1], ps.burst[len(ps.burst)-1]) {
		return fmt.Errorf("recvmmsg got %d of %d: %v", len(got), len(ps.burst), err)
	}
	if _, err := ps.dproc.Send(afd, dbusReply); err != nil {
		return err
	}
	reply, err := ps.cproc.Recv(cfd, 0)
	if err != nil || !bytes.Equal(reply, dbusReply) {
		return fmt.Errorf("reply %q: %v", reply, err)
	}
	return nil
}

// tenantWeb is the shared-hosting mix on the medium world with MAC
// enforcing and metrics attached, as an operator runs it.
type tenantWeb struct {
	spec    worldgen.Spec
	ops     []webOp
	advT    int
	rules   []string
	classes []string
}

const webOpListLen = 1 << 14

func planTenantWeb(seed uint64) *tenantWeb {
	spec := worldgen.Medium
	spec.Seed = seed
	r := &xorshift{s: seed*0x9e3779b97f4a7c15 | 1}
	advT := r.intn(spec.Tenants)
	return &tenantWeb{
		spec:  spec,
		advT:  advT,
		ops:   genWebOps(r, tenantSite(spec, advT), webOpListLen),
		rules: worldgen.Rules(spec),
	}
}

func (p *tenantWeb) inputs() []string {
	lines := append([]string{fmt.Sprintf("spec %+v adversary-tenant %d", p.spec, p.advT)}, p.rules...)
	for i := range p.ops {
		lines = append(lines, p.ops[i].String())
	}
	return lines
}

func (p *tenantWeb) build(attachObs bool, tr *tracer) (*instance, error) {
	cfg := pf.Optimized()
	opts := programs.WorldOpts{PF: &cfg, MACEnforcing: true}
	if attachObs {
		opts.Obs = obs.New()
	}
	tr.begin(spWorldBuild)
	w := worldgen.Build(p.spec, opts)
	tr.end()
	ps, err := startPersonas(w.World, worldgen.TenantRoot, w.NewTenantUser(p.advT, 0))
	if err != nil {
		return nil, err
	}
	inst := &instance{
		w:       w.World,
		rules:   w.Stats.Rules,
		classes: webClassNames[:],
		listLen: len(p.ops),
		stop:    ps.stop,
	}
	cursor := 0
	inst.step = func(tr *tracer, reads *[]uint32) (int64, int, error) {
		op := &p.ops[cursor]
		cursor = (cursor + 1) % len(p.ops)
		t0 := nanotime()
		err := ps.run(op, tr)
		d := nanotime() - t0
		if op.class <= cServeSymlink {
			*reads = append(*reads, toNs(d))
		}
		return d, int(op.class), err
	}
	inst.probe = func(tr *tracer, m metricSet) error {
		return probeWorld(inst, tr, m, probeInputs{
			personas: ps, site: tenantSite(p.spec, p.advT), base: p.rules, baseSrc: "worldgen.pft",
			deepPath: p.spec.DeepFilePath(0, 0),
			webLabel: "tenant00_web_t",
		})
	}
	return inst, nil
}
