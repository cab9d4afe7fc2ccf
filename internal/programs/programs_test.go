package programs

import (
	"errors"
	"strings"
	"testing"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
	"pfirewall/internal/vfs"
)

// worldPF builds a standard world with the full Table 5 rule set.
func worldPF(t *testing.T) *World {
	t.Helper()
	cfg := pf.Optimized()
	w := NewWorld(WorldOpts{PF: &cfg})
	if n, err := w.InstallRules(StandardRules()); err != nil || n == 0 {
		t.Fatalf("install rules: %d, %v", n, err)
	}
	return w
}

func TestWorldConstruction(t *testing.T) {
	w := NewWorld(WorldOpts{})
	for _, path := range []string{
		"/etc/passwd", "/etc/shadow", "/lib/ld-2.15.so", "/usr/bin/php5",
		"/var/www/html/index.html", "/usr/lib/apache2/mod_ssl.so",
	} {
		if _, ok := w.K.LookupIno(path); !ok {
			t.Errorf("world missing %s", path)
		}
	}
	if w.Engine != nil {
		t.Error("world without PF opts should have nil engine")
	}
}

func TestWorldWebTreeDepth(t *testing.T) {
	w := NewWorld(WorldOpts{WebTreeDepth: 5})
	if _, ok := w.K.LookupIno("/var/www/html/d/d/d/d/d/index.html"); !ok {
		t.Error("deep web tree missing")
	}
}

func TestStandardRulesCount(t *testing.T) {
	w := worldPF(t)
	if got := w.Engine.RuleCount(); got != len(StandardRules()) {
		t.Errorf("rule count = %d, want %d", got, len(StandardRules()))
	}
}

// --- Linker ----------------------------------------------------------------

func TestLinkerDefaultPath(t *testing.T) {
	w := NewWorld(WorldOpts{})
	ld := NewLinker(w)
	p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "httpd_t", Exec: BinApache})
	path, err := ld.LoadLibrary(p, "libssl.so")
	if err != nil || path != "/lib/libssl.so" {
		t.Errorf("load = %q, %v", path, err)
	}
	// The loaded library is now mapped for entrypoint matching.
	if _, ok := p.AddrSpace().FindByPath("/lib/libssl.so"); !ok {
		t.Error("library not mapped after load")
	}
}

func TestLinkerEnvPrecedence(t *testing.T) {
	w := NewWorld(WorldOpts{})
	adv := w.NewUser()
	fd, err := adv.Open("/tmp/libssl.so", kernel.O_CREAT|kernel.O_RDWR, 0o755)
	if err != nil {
		t.Fatal(err)
	}
	adv.Close(fd)

	ld := NewLinker(w)
	p := w.NewProc(kernel.ProcSpec{
		UID: 1000, GID: 1000, Label: "user_t", Exec: BinSh,
		Env: map[string]string{"LD_LIBRARY_PATH": "/tmp"},
	})
	path, err := ld.LoadLibrary(p, "libssl.so")
	if err != nil || path != "/tmp/libssl.so" {
		t.Errorf("LD_LIBRARY_PATH should win for non-setuid: %q, %v", path, err)
	}
}

func TestLinkerSetuidFiltersEnv(t *testing.T) {
	w := NewWorld(WorldOpts{})
	adv := w.NewUser()
	fd, _ := adv.Open("/tmp/libssl.so", kernel.O_CREAT|kernel.O_RDWR, 0o755)
	adv.Close(fd)

	ld := NewLinker(w)
	p := w.NewProc(kernel.ProcSpec{
		UID: 1000, GID: 1000, Label: "user_t", Exec: BinSh,
		Env: map[string]string{"LD_LIBRARY_PATH": "/tmp"},
	})
	p.EUID = 0 // setuid: Figure 1(b)'s unsetenv path
	path, err := ld.LoadLibrary(p, "libssl.so")
	if err != nil || path != "/lib/libssl.so" {
		t.Errorf("setuid must ignore LD_LIBRARY_PATH: %q, %v", path, err)
	}
}

func TestLinkerRPathHonoredEvenSetuid(t *testing.T) {
	// RPATH is embedded in the binary, so ld.so honors it regardless —
	// the E1 flaw.
	w := NewWorld(WorldOpts{})
	adv := w.NewUser()
	adv.Mkdir("/tmp/svn", 0o777)
	fd, _ := adv.Open("/tmp/svn/libssl.so", kernel.O_CREAT|kernel.O_RDWR, 0o755)
	adv.Close(fd)
	w.RPaths[BinSshd] = []string{"/tmp/svn"}

	ld := NewLinker(w)
	p := w.NewProc(kernel.ProcSpec{UID: 1000, GID: 1000, Label: "user_t", Exec: BinSshd})
	p.EUID = 0
	path, err := ld.LoadLibrary(p, "libssl.so")
	if err != nil || path != "/tmp/svn/libssl.so" {
		t.Errorf("RPATH should be honored: %q, %v", path, err)
	}
}

func TestLinkerPFFallsBackToTrusted(t *testing.T) {
	// With rule R1, a poisoned search path is skipped and the trusted
	// library still loads — protection without loss of function.
	w := worldPF(t)
	adv := w.NewUser()
	adv.Mkdir("/tmp/svn", 0o777)
	fd, _ := adv.Open("/tmp/svn/libssl.so", kernel.O_CREAT|kernel.O_RDWR, 0o755)
	adv.Close(fd)
	w.RPaths[BinApache] = []string{"/tmp/svn"}

	ld := NewLinker(w)
	p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "httpd_t", Exec: BinApache})
	path, err := ld.LoadLibrary(p, "libssl.so")
	if err != nil || path != "/lib/libssl.so" {
		t.Errorf("load = %q, %v", path, err)
	}
	if len(ld.Denied) != 1 || ld.Denied[0] != "/tmp/svn/libssl.so" {
		t.Errorf("denial log = %v", ld.Denied)
	}
}

// --- Apache ------------------------------------------------------------------

func TestApacheServes(t *testing.T) {
	w := NewWorld(WorldOpts{})
	a := NewApache(w)
	p := a.Spawn()
	body, err := a.Serve(p, "/index.html")
	if err != nil || !strings.Contains(string(body), "hello") {
		t.Errorf("serve = %q, %v", body, err)
	}
}

func TestApacheSymLinksIfOwnerMatchInProgram(t *testing.T) {
	w := NewWorld(WorldOpts{})
	root := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "httpd_t", Exec: BinSh})
	// Same-owner symlink: root link to a root file.
	if err := root.Symlink("/var/www/html/index.html", "/var/www/html/ok.html"); err != nil {
		t.Fatal(err)
	}
	// Cross-owner symlink: a user-owned link (planted via a compromised
	// upload step, modeled by chowning the link) to a root file.
	if err := root.Symlink("/etc/passwd", "/var/www/html/evil.html"); err != nil {
		t.Fatal(err)
	}
	res, err := w.K.FS.Resolve(nil, "/var/www/html/evil.html", vfs.ResolveOpts{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.K.FS.Chown(res.Node, 1000, 1000)

	a := NewApache(w)
	a.SymLinksIfOwnerMatch = true
	p := a.Spawn()

	if _, err := a.Serve(p, "/ok.html"); err != nil {
		t.Errorf("same-owner symlink should serve: %v", err)
	}
	_, err = a.Serve(p, "/evil.html")
	if !errors.Is(err, ErrForbidden) {
		t.Errorf("cross-owner symlink: %v, want 403", err)
	}
}

func TestApacheAuthenticate(t *testing.T) {
	w := NewWorld(WorldOpts{})
	a := NewApache(w)
	p := a.Spawn()
	ok, err := a.Authenticate(p, "root")
	if err != nil || !ok {
		t.Errorf("auth = %v, %v", ok, err)
	}
	ok, _ = a.Authenticate(p, "nobody")
	if ok {
		t.Error("unknown user authenticated")
	}
}

func TestApacheEntrypointSeparation(t *testing.T) {
	// The Section 1 property: block shadow access from the serve
	// entrypoint while the auth entrypoint still works.
	cfg := pf.Optimized()
	w := NewWorld(WorldOpts{PF: &cfg})
	rule := `pftables -p ` + BinApache + ` -i 0x41a20 -d shadow_t -o FILE_OPEN -j DROP`
	if _, err := w.InstallRules([]string{rule}); err != nil {
		t.Fatal(err)
	}
	a := NewApache(w)
	p := a.Spawn()

	// Directory-traversal-style request for the password file.
	if _, err := a.Serve(p, "/../../../etc/shadow"); !errors.Is(err, kernel.ErrPFDenied) {
		t.Errorf("serve shadow: %v, want ErrPFDenied", err)
	}
	// Authentication reads the same file from its own entrypoint: allowed.
	if ok, err := a.Authenticate(p, "root"); err != nil || !ok {
		t.Errorf("auth after block: %v, %v", ok, err)
	}
}

func TestApacheNoFalsePositivesUnderFullRules(t *testing.T) {
	w := worldPF(t)
	a := NewApache(w)
	p := a.Spawn()
	if _, err := a.Serve(p, "/index.html"); err != nil {
		t.Errorf("serve with full rules: %v", err)
	}
	if ok, err := a.Authenticate(p, "root"); err != nil || !ok {
		t.Errorf("auth with full rules: %v %v", ok, err)
	}
}

// --- PHP / Python / Bash ------------------------------------------------------

func TestPHPTrustedIncludeAllowed(t *testing.T) {
	w := worldPF(t)
	php := NewPHP(w)
	p := php.Spawn()
	err := php.RunScript(p, "/var/www/scripts/index.php", func() error {
		_, ierr := php.Include(p, "/var/www/scripts/gcalendar.php")
		return ierr
	})
	if err != nil {
		t.Errorf("trusted include blocked: %v", err)
	}
}

func TestPythonTrustedImport(t *testing.T) {
	w := worldPF(t)
	py := NewPython(w)
	p := py.Spawn("/usr/bin/dstat")
	mod, err := py.ImportModule(p, "os")
	if err != nil || mod != "/usr/lib/python2.7/os.py" {
		t.Errorf("import = %q, %v", mod, err)
	}
}

func TestPythonImportError(t *testing.T) {
	w := NewWorld(WorldOpts{})
	py := NewPython(w)
	p := py.Spawn("/usr/bin/dstat")
	if _, err := py.ImportModule(p, "nonexistent"); !errors.Is(err, ErrModuleNotFound) {
		t.Errorf("err = %v", err)
	}
}

// --- D-Bus ---------------------------------------------------------------------

func TestDbusDaemonNormalStartWithRules(t *testing.T) {
	// No adversary: the bind+chmod sequence must complete (no false
	// positive from R5/R6).
	w := worldPF(t)
	d := NewDbusDaemon(w)
	p := d.Spawn()
	if err := d.Start(p); err != nil {
		t.Errorf("normal start: %v", err)
	}
}

func TestLibDbusDefaultConnect(t *testing.T) {
	w := worldPF(t)
	d := NewDbusDaemon(w)
	dp := d.Spawn()
	if err := d.Start(dp); err != nil {
		t.Fatal(err)
	}
	lib := NewLibDbus(w)
	client := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "httpd_t", Exec: BinApache})
	if _, err := lib.Connect(client); err != nil {
		t.Errorf("default connect with rules: %v", err)
	}
}

func TestDbusRendezvousDataPlane(t *testing.T) {
	// A full message round trip over the real data plane: client connects
	// through libdbus, daemon accepts and reads the bytes, replies, client
	// reads the reply — all under the standard rule set.
	w := worldPF(t)
	d := NewDbusDaemon(w)
	dp := d.Spawn()
	if err := d.Start(dp); err != nil {
		t.Fatal(err)
	}
	lib := NewLibDbus(w)
	client := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "httpd_t", Exec: BinApache})
	cfd, err := lib.Connect(client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Send(cfd, []byte("Hello")); err != nil {
		t.Fatalf("client send: %v", err)
	}
	sfd, err := d.AcceptOne(dp)
	if err != nil {
		t.Fatalf("daemon accept: %v", err)
	}
	if got, err := dp.Recv(sfd, 0); err != nil || string(got) != "Hello" {
		t.Fatalf("daemon recv = %q, %v", got, err)
	}
	if _, err := dp.Send(sfd, []byte("NameAcquired :1.42")); err != nil {
		t.Fatalf("daemon send: %v", err)
	}
	if got, err := client.Recv(cfd, 0); err != nil || string(got) != "NameAcquired :1.42" {
		t.Fatalf("client recv = %q, %v", got, err)
	}
}

func TestLibDbusAbstractAddress(t *testing.T) {
	// Session buses use abstract addresses; libdbus parses the abstract=
	// prefix and connects through the inode-less namespace. No rule set
	// here: R3 pins the libdbus entrypoint to the system bus label, and an
	// abstract listener carries its binder's process label instead (that
	// interaction is asserted separately below).
	w := NewWorld(WorldOpts{})
	daemon := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "dbusd_t", Exec: BinDbusD})
	lfd, err := daemon.BindAbstract("dbus-session-abc123")
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Listen(lfd, 4); err != nil {
		t.Fatal(err)
	}
	lib := NewLibDbus(w)
	client := w.NewProc(kernel.ProcSpec{
		UID: 0, GID: 0, Label: "httpd_t", Exec: BinApache,
		Env: map[string]string{"DBUS_SYSTEM_BUS_ADDRESS": "abstract=dbus-session-abc123"},
	})
	cfd, err := lib.Connect(client)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Send(cfd, []byte("Hello")); err != nil {
		t.Fatal(err)
	}
	sfd, err := daemon.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := daemon.Recv(sfd, 0); err != nil || string(got) != "Hello" {
		t.Fatalf("recv over abstract = %q, %v", got, err)
	}
}

func TestR3BlocksAbstractSquatViaLibDbus(t *testing.T) {
	// With the standard rules, R3 confines the libdbus connect entrypoint
	// to system_dbusd_var_run_t. An abstract socket carries its binder's
	// process label, so pointing DBUS_SYSTEM_BUS_ADDRESS at an abstract
	// name — squatted or not — is dropped at that entrypoint.
	w := worldPF(t)
	adv := w.NewUser()
	sfd, err := adv.BindAbstract("fake_bus")
	if err != nil {
		t.Fatal(err)
	}
	if err := adv.Listen(sfd, 4); err != nil {
		t.Fatal(err)
	}
	lib := NewLibDbus(w)
	victim := w.NewProc(kernel.ProcSpec{
		UID: 0, GID: 0, Label: "httpd_t", Exec: BinApache,
		Env: map[string]string{"DBUS_SYSTEM_BUS_ADDRESS": "abstract=fake_bus"},
	})
	if _, err := lib.Connect(victim); !errors.Is(err, kernel.ErrPFDenied) {
		t.Fatalf("connect to abstract squat via libdbus: %v, want ErrPFDenied", err)
	}
}

// --- sshd -----------------------------------------------------------------------

func TestSshdSingleSignalWithRules(t *testing.T) {
	w := worldPF(t)
	s := NewSshd(w)
	victim := s.Spawn()
	trigger := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: BinSshd})
	if err := trigger.Kill(victim.PID(), kernel.SIGALRM); err != nil {
		t.Fatalf("single signal should deliver: %v", err)
	}
	if s.HandlerRuns != 1 || s.Corrupted {
		t.Errorf("runs=%d corrupted=%v", s.HandlerRuns, s.Corrupted)
	}
	// A second, sequential signal also delivers (state cleared by R12).
	if err := trigger.Kill(victim.PID(), kernel.SIGALRM); err != nil {
		t.Errorf("sequential signal: %v", err)
	}
	if s.HandlerRuns != 2 {
		t.Errorf("runs = %d, want 2", s.HandlerRuns)
	}
}

// TestSyscallEntryCountTripwire: under the Table 5 rules the syscallbegin
// chain holds only R12, guarded by --arg 0 --equal NR_sigreturn, so every
// other syscall entry is counted as a request and accepted without a rule
// evaluated or a stack unwound; a sigreturn still fires R12 and clears the
// in-handler STATE key.
func TestSyscallEntryCountTripwire(t *testing.T) {
	w := worldPF(t)
	p := w.NewProc(kernel.ProcSpec{UID: 0, GID: 0, Label: "sshd_t", Exec: BinSshd})
	st := &w.Engine.Stats
	counts := func() [3]uint64 {
		return [3]uint64{st.Requests.Load(), st.RulesEvaluated.Load(), st.CtxCollections.Load()}
	}
	before := counts()
	if _, err := p.Getpid(); err != nil {
		t.Fatal(err)
	}
	if got, want := counts(), [3]uint64{before[0] + 1, before[1], before[2]}; got != want {
		t.Errorf("getpid: requests/rules evaluated/ctx collections %v -> %v, want %v", before, got, want)
	}

	sb, _ := w.Engine.Chain("syscallbegin")
	if len(sb.Rules) != 1 {
		t.Fatalf("syscallbegin holds %d rules, want R12 alone", len(sb.Rules))
	}
	r12 := sb.Rules[0]
	hits := r12.Hits.Load()
	key := pftables.KeyFor("sig")
	p.PFState().Set(key, 1)
	if err := p.Sigreturn(); err != nil {
		t.Fatal(err)
	}
	if r12.Hits.Load() != hits+1 {
		t.Errorf("R12 hits %d -> %d, want one more", hits, r12.Hits.Load())
	}
	if v, ok := p.PFState().Get(key); !ok || v != 0 {
		t.Errorf("STATE 'sig' after sigreturn = %d (set %v), want 0", v, ok)
	}
}

// --- misc programs ---------------------------------------------------------------

func TestJavaSystemConfigWithRules(t *testing.T) {
	w := worldPF(t)
	j := NewJava(w)
	p := j.Spawn("/")
	name, data, err := j.LoadConfig(p)
	if err != nil || name != "/etc/java.conf" || !strings.Contains(string(data), "jvm-args") {
		t.Errorf("config = %q, %q, %v", name, data, err)
	}
}

func TestIcecatNormalStartWithRules(t *testing.T) {
	w := worldPF(t)
	i := NewIcecat(w)
	p := i.Spawn("/") // cwd "." resolves to / where no trojan exists
	loaded, _, err := i.Start(p)
	if err != nil || len(loaded) != 2 {
		t.Errorf("loaded = %v, %v", loaded, err)
	}
}

func TestInitScriptNormalRunWithRules(t *testing.T) {
	w := worldPF(t)
	b := NewBash(w)
	p := b.Spawn("/etc/init.d/daemon")
	s := NewInitScript(w)
	if err := s.Run(p); err != nil {
		t.Errorf("normal pid-file creation: %v", err)
	}
	if _, ok := w.K.LookupIno(s.PidPath); !ok {
		t.Error("pid file missing")
	}
}

func TestDstatNormalRun(t *testing.T) {
	w := worldPF(t)
	d := NewDstat(w)
	// cwd without a trojan: the trusted plugin loads.
	mod, err := d.Run("/")
	if err != nil || mod != "/usr/share/dstat/dstat_disk.py" {
		t.Errorf("module = %q, %v", mod, err)
	}
}
