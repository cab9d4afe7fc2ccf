// Package programs provides the simulated application layer of the
// reproduction: an Ubuntu-flavoured world (policy, file contexts,
// filesystem image) plus faithful models of the programs the paper attacks
// and defends — the dynamic linker, Apache, the PHP and Python
// interpreters, libdbus and dbus-daemon, sshd, the Java launcher, GNU
// Icecat, dstat, and an init script.
//
// Each program issues system calls through the simulated kernel with
// realistic call-stack frames at the entrypoint offsets the paper's rules
// name (e.g. ld.so's library open at 0x596b), so the Table 5 rule set
// applies verbatim.
package programs

import (
	"pfirewall/internal/kernel"
	"pfirewall/internal/mac"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
	"pfirewall/internal/vfs"
)

// Binary paths and entrypoint offsets used across the simulated programs.
// Offsets match the paper's Table 5 listings where the paper names them.
const (
	BinLdSo    = "/lib/ld-2.15.so"
	BinLibc    = "/lib/libc.so.6"
	BinLibDbus = "/lib/libdbus-1.so.3"
	BinApache  = "/usr/bin/apache2"
	BinPHP     = "/usr/bin/php5"
	BinPython  = "/usr/bin/python2.7"
	BinJava    = "/usr/bin/java"
	BinDbusD   = "/bin/dbus-daemon"
	BinSshd    = "/usr/sbin/sshd"
	BinSh      = "/bin/sh"
	BinBash    = "/bin/bash"
	BinIcecat  = "/usr/bin/icecat"
	BinDstat   = "/usr/bin/dstat"

	// EntryLdOpen is ld.so's library-open call site (rule R1).
	EntryLdOpen uint64 = 0x596b
	// EntryPyImport is the Python module-open call site (rule R2).
	EntryPyImport uint64 = 0x34f05
	// EntryDbusConnect is libdbus's socket connect call site (rule R3).
	EntryDbusConnect uint64 = 0x39231
	// EntryPHPInclude is the PHP interpreter's include call site (rule R4).
	EntryPHPInclude uint64 = 0x27ad2c
	// EntryDbusBind / EntryDbusChmod are dbus-daemon's bind and chmod call
	// sites (rules R5, R6).
	EntryDbusBind  uint64 = 0x3c750
	EntryDbusChmod uint64 = 0x3c786

	// EntryDbusListen is dbus-daemon's listen call site, reached after the
	// socket is made world-accessible.
	EntryDbusListen uint64 = 0x3c7b2
	// EntryJavaConf is the Java launcher's configuration-open call site
	// (rule R7).
	EntryJavaConf uint64 = 0x5d7e
	// EntryApacheLink is Apache's symlink-walk call site (rule R8).
	EntryApacheLink uint64 = 0x2d637
	// EntryApacheServe / EntryApacheAuth are Apache's content-open and
	// password-read call sites (the Section 1 motivating example: the same
	// process must reach different resources from different instructions).
	EntryApacheServe uint64 = 0x41a20
	EntryApacheAuth  uint64 = 0x42b31
	// EntryInitCreat is the init script's pid-file creation site (E9).
	EntryInitCreat uint64 = 0x1137
)

// KnownEntrypoints is the program registry for static rule validation: every
// named resource-access call site, keyed by the binary (or library) that
// contains it. A ruleset's -p/-i pair naming an offset absent here is almost
// certainly a typo — the rule would silently never match any unwound stack.
func KnownEntrypoints() map[string][]uint64 {
	return map[string][]uint64{
		BinLdSo:    {EntryLdOpen},
		BinPython:  {EntryPyImport},
		BinLibDbus: {EntryDbusConnect},
		BinPHP:     {EntryPHPInclude},
		BinDbusD:   {EntryDbusBind, EntryDbusChmod, EntryDbusListen},
		BinJava:    {EntryJavaConf},
		BinApache:  {EntryApacheLink, EntryApacheServe, EntryApacheAuth},
		BinBash:    {EntryInitCreat},
	}
}

// World bundles one simulated system: kernel, policy, optional Process
// Firewall, and the program models' shared configuration.
type World struct {
	K      *kernel.Kernel
	Engine *pf.Engine // nil when the firewall is disabled
	Env    *pftables.Env

	// RPaths simulates RUNPATH/RPATH entries embedded in binaries
	// (the Debian-installer bug of exploit E1 sets an insecure one).
	RPaths map[string][]string
}

// Labels that constitute the TCB (SYSHIGH) in the standard world.
var trustedLabels = []mac.Label{
	"httpd_t", "sshd_t", "dbusd_t", "java_t", "init_t", "icecat_t", "dstat_t",
	"bin_t", "lib_t", "usr_t", "etc_t", "shadow_t", "var_t",
	"httpd_content_t", "httpd_modules_t", "httpd_config_t",
	"system_dbusd_var_run_t", "textrel_shlib_t", "default_t",
}

// NewPolicy builds the standard world's MAC policy: the TCB labels above
// plus an untrusted user_t with write access to the world-writable spots
// (/tmp, the user's home) — the adversary accessibility the PF consumes.
func NewPolicy() *mac.Policy {
	pol := mac.NewPolicy(mac.NewSIDTable())
	pol.MarkTrusted(trustedLabels...)

	pol.Allow("user_t", "tmp_t", mac.ClassFile, mac.PermRead|mac.PermWrite|mac.PermCreate|mac.PermUnlink)
	pol.Allow("user_t", "tmp_t", mac.ClassDir, mac.PermSearch|mac.PermAddName|mac.PermRemoveName)
	pol.Allow("user_t", "tmp_t", mac.ClassLnkFile, mac.PermRead|mac.PermCreate)
	pol.Allow("user_t", "user_home_t", mac.ClassFile, mac.PermRead|mac.PermWrite|mac.PermCreate)
	pol.Allow("user_t", "user_home_t", mac.ClassDir, mac.PermSearch|mac.PermAddName)
	pol.Allow("user_t", "user_home_t", mac.ClassLnkFile, mac.PermRead|mac.PermCreate)
	// PHP user-upload area: adversary-writable (E4's attack surface).
	pol.Allow("user_t", "httpd_user_upload_t", mac.ClassFile, mac.PermRead|mac.PermWrite|mac.PermCreate)
	// Read access to public system files.
	for _, obj := range []mac.Label{"etc_t", "lib_t", "usr_t", "bin_t", "httpd_content_t"} {
		pol.Allow("user_t", obj, mac.ClassFile, mac.PermRead)
		pol.Allow("user_t", obj, mac.ClassDir, mac.PermSearch)
	}

	// Trusted subjects' functional permissions (used when MACEnforcing).
	for _, sub := range []mac.Label{"httpd_t", "sshd_t", "dbusd_t", "java_t", "init_t", "icecat_t", "dstat_t"} {
		for _, obj := range trustedLabels {
			pol.AllowAllClasses(sub, obj, mac.PermRead|mac.PermSearch|mac.PermGetattr)
		}
		pol.Allow(sub, "tmp_t", mac.ClassFile, mac.PermRead|mac.PermWrite|mac.PermCreate)
		pol.Allow(sub, "tmp_t", mac.ClassDir, mac.PermSearch|mac.PermAddName|mac.PermRemoveName)
		pol.Allow(sub, "tmp_t", mac.ClassLnkFile, mac.PermRead)
	}
	pol.Allow("httpd_t", "httpd_user_script_exec_t", mac.ClassFile, mac.PermRead|mac.PermExecute)
	pol.Allow("httpd_t", "httpd_user_upload_t", mac.ClassFile, mac.PermRead)
	pol.Allow("dbusd_t", "system_dbusd_var_run_t", mac.ClassSockFile, mac.PermCreate|mac.PermSetattr|mac.PermBind)
	return pol
}

// NewContexts builds the standard file-context map.
func NewContexts() *mac.FileContexts {
	fc := mac.NewFileContexts("default_t")
	fc.Add("/tmp", "tmp_t")
	fc.Add("/etc", "etc_t")
	fc.Add("/etc/shadow", "shadow_t")
	fc.Add("/lib", "lib_t")
	fc.Add("/usr/lib", "lib_t")
	fc.Add("/usr/share", "usr_t")
	fc.Add("/usr", "usr_t")
	fc.Add("/usr/bin", "bin_t")
	fc.Add("/usr/sbin", "bin_t")
	fc.Add("/bin", "bin_t")
	fc.Add("/var", "var_t")
	fc.Add("/var/www", "httpd_content_t")
	fc.Add("/var/www/scripts", "httpd_user_script_exec_t")
	fc.Add("/var/www/uploads", "httpd_user_upload_t")
	fc.Add("/var/run/dbus", "system_dbusd_var_run_t")
	fc.Add("/home", "user_home_t")
	return fc
}

// WorldOpts parameterizes world construction.
type WorldOpts struct {
	// PF selects the firewall configuration; nil leaves the firewall
	// detached (the DISABLED mode).
	PF *pf.Config
	// MACEnforcing puts the kernel's MAC layer in enforcing mode.
	MACEnforcing bool
	// WebTreeDepth adds nested /var/www/html directories d1/d2/.../index.html
	// for the path-length experiments (Figures 4 and 5). Zero means 1 level.
	WebTreeDepth int
	// Obs, when non-nil, attaches the observability layer to the kernel
	// (and the engine, when PF is set), registering every mediation-stack
	// metric and the span tracer on the given registry.
	Obs *obs.Registry
	// ObsEvery overrides the sampling period: one syscall in ObsEvery
	// carries timed spans, which the latency histograms observe (default
	// 16; 1 samples every syscall — what pfctl uses so short deterministic
	// workloads populate the histograms).
	ObsEvery int
}

// NewWorld builds the standard simulated system.
func NewWorld(opts WorldOpts) *World {
	pol := NewPolicy()
	fc := NewContexts()
	k := kernel.New(pol, fc)
	k.MACEnforcing = opts.MACEnforcing

	w := &World{
		K: k,
		Env: &pftables.Env{
			Policy:     pol,
			LookupPath: k.LookupIno,
			Syscalls:   kernel.SyscallNames(),
		},
		RPaths: make(map[string][]string),
	}
	if opts.PF != nil {
		w.Engine = pf.New(pol, *opts.PF)
		k.AttachPF(w.Engine)
	}
	if opts.Obs != nil {
		k.AttachObs(opts.Obs, kernel.ObsConfig{SampleEvery: opts.ObsEvery})
	}
	w.populate(opts)
	return w
}

// file creates a root-owned file with content.
func (w *World) file(path string, mode uint16, content string) *vfs.Inode {
	dir := w.K.FS.MustPath(parentDir(path))
	n, err := w.K.FS.CreateAt(dir, baseName(path), path, vfs.CreateOpts{Mode: mode})
	if err != nil {
		panic(err)
	}
	if content != "" {
		w.K.FS.WriteFile(n, []byte(content))
	}
	return n
}

func parentDir(path string) string {
	for i := len(path) - 1; i > 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "/"
}

func baseName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// populate writes the standard filesystem image.
func (w *World) populate(opts WorldOpts) {
	fs := w.K.FS

	tmp := fs.MustPath("/tmp")
	fs.Chmod(tmp, 0o777|vfs.ModeSticky)

	// System binaries and libraries.
	for _, bin := range []string{
		BinLdSo, BinLibc, BinLibDbus, BinApache, BinPHP, BinPython, BinJava,
		BinDbusD, BinSshd, BinSh, BinBash, BinIcecat,
	} {
		w.file(bin, 0o755, "ELF")
	}
	// dstat is a Python script.
	w.file(BinDstat, 0o755, "#!/usr/bin/python2.7")

	// Libraries the linker should find.
	w.file("/lib/libssl.so", 0o755, "ELF")
	w.file("/lib/libdl.so", 0o755, "ELF")
	w.file("/usr/lib/apache2/mod_ssl.so", 0o755, "ELF")
	// Python modules.
	w.file("/usr/lib/python2.7/os.py", 0o644, "python")
	w.file("/usr/lib/python2.7/csv.py", 0o644, "python")
	w.file("/usr/share/dstat/dstat_disk.py", 0o644, "python")

	// Configuration.
	w.file("/etc/passwd", 0o644, "root:x:0:0\nuser:x:1000:1000")
	// The password database is group-readable by the web server's group,
	// matching the paper's motivating example of a web server that
	// authenticates users against it (Section 1).
	shadow := w.file("/etc/shadow", 0o640, "root:$6$secret")
	fs.Chown(shadow, 0, 33)
	w.file("/etc/ld.so.conf", 0o644, "/lib\n/usr/lib")
	w.file("/etc/java.conf", 0o644, "jvm-args=-Xmx1g")
	w.file("/etc/apache2/httpd.conf", 0o644, "DocumentRoot /var/www/html")

	// Web content, nested for path-length experiments.
	w.file("/var/www/html/index.html", 0o644, "<html>hello</html>")
	depth := opts.WebTreeDepth
	if depth < 1 {
		depth = 1
	}
	path := "/var/www/html"
	for i := 1; i <= depth; i++ {
		path += "/d"
		fs.MustPath(path)
		w.file(path+"/index.html", 0o644, "<html>deep</html>")
	}
	// PHP application (Joomla!-like) with trusted scripts and an
	// adversary-writable upload area.
	w.file("/var/www/scripts/index.php", 0o644, "<?php include($_GET['page']); ?>")
	w.file("/var/www/scripts/gcalendar.php", 0o644, "<?php /* component */ ?>")
	fs.MustPath("/var/www/uploads")
	uploads := fs.MustPath("/var/www/uploads")
	fs.Chmod(uploads, 0o777)

	// D-Bus runtime directory.
	fs.MustPath("/var/run/dbus")

	// User home.
	home := fs.MustPath("/home/user")
	fs.Chown(home, 1000, 1000)
	fs.Chmod(home, 0o755)
}

// InstallRules parses and installs pftables rule lines into the world's
// engine.
func (w *World) InstallRules(lines []string) (int, error) {
	return pftables.InstallAll(w.Env, w.Engine, lines)
}

// NewProc starts a process in this world.
func (w *World) NewProc(spec kernel.ProcSpec) *kernel.Proc {
	return w.K.NewProc(spec)
}

// NewUser starts an untrusted adversary process (uid 1000, user_t).
func (w *World) NewUser() *kernel.Proc {
	return w.K.NewProc(kernel.ProcSpec{UID: 1000, GID: 1000, Label: "user_t", Exec: BinSh, Cwd: "/home/user"})
}

// StandardRules returns the paper's Table 5 rule set (R1–R12), adapted only
// in that R2 additionally trusts usr_t script directories, exactly as the
// paper's generated rule does.
func StandardRules() []string {
	return []string{
		// R1: only trusted library files may be loaded by the dynamic linker.
		`pftables -p ` + BinLdSo + ` -i 0x596b -s SYSHIGH -d ~{lib_t|textrel_shlib_t|httpd_modules_t} -o FILE_OPEN -j DROP`,
		// R2: load only trusted python modules.
		`pftables -p ` + BinPython + ` -i 0x34f05 -s SYSHIGH -d ~{lib_t|usr_t} -o FILE_OPEN -j DROP`,
		// R3: libdbus may connect only to the trusted D-Bus server socket.
		`pftables -p ` + BinLibDbus + ` -i 0x39231 -s SYSHIGH -d ~{system_dbusd_var_run_t} -o UNIX_STREAM_SOCKET_CONNECT -j DROP`,
		// R4: PHP includes only properly labeled files.
		`pftables -p ` + BinPHP + ` -i 0x27ad2c -s SYSHIGH -d ~{httpd_user_script_exec_t|httpd_content_t|lib_t|usr_t} -o FILE_OPEN -j DROP`,
		// R5/R6: dbus-daemon bind/chmod TOCTTOU defense.
		`pftables -i 0x3c750 -p ` + BinDbusD + ` -o SOCKET_BIND -j STATE --set --key 0xbeef --value C_INO`,
		`pftables -i 0x3c786 -p ` + BinDbusD + ` -o SOCKET_SETATTR,FILE_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP`,
		// R6 is generalized (Section 6.3.1) to cover the symlink variant of
		// the squat, where the final chmod object is a regular file.
		// R7: java must not load untrusted configuration files.
		`pftables -i 0x5d7e -p ` + BinJava + ` -d ~{SYSHIGH} -o FILE_OPEN -j DROP`,
		// R8: SymLinksIfOwnerMatch as a firewall rule.
		`pftables -i 0x2d637 -p ` + BinApache + ` -o LINK_READ -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP`,
		// R9–R12: non-reentrant signal handler defense.
		`pftables -I input -o PROCESS_SIGNAL_DELIVERY -j SIGNAL_CHAIN`,
		`pftables -I signal_chain -m SIGNAL_MATCH -m STATE --key 'sig' --cmp 1 -j DROP`,
		`pftables -A signal_chain -m SIGNAL_MATCH -j STATE --set --key 'sig' --value 1`,
		`pftables -I syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn -j STATE --set --key 'sig' --value 0`,
		// System-wide safe_open rule (Section 6.1.2, E9): never traverse a
		// symlink whose owner differs from its target's owner.
		`pftables -o LNK_FILE_READ -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP`,
	}
}
