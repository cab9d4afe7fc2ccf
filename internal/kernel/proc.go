package kernel

import (
	"fmt"

	"pfirewall/internal/ipc"
	"pfirewall/internal/mac"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/ustack"
	"pfirewall/internal/vfs"
)

// userMemWords sizes each process's simulated user memory. Kept modest so
// spawning a thousand workers (the Web1000 macrobenchmark) stays cheap, as
// lazily-faulted address spaces are on a real kernel.
const userMemWords = 1 << 14

// stackBase is where the frame-chain region starts in user memory.
const stackBase = 1 << 10

// interpArena is where interpreter frame structures live.
const interpArena = 1 << 13

// Proc is the simulated task structure. It implements pf.Process, giving
// the firewall introspective access to the process's user stack — state a
// sandbox could never trust, but which the Process Firewall may use because
// forging it only weakens the forger's own protection (paper Section 3).
type Proc struct {
	k   *Kernel
	pid int

	// Credentials. subject caches the label string for the sid so the
	// trace-span path never pays the SID-table lookup per span.
	UID, GID   int
	EUID, EGID int
	sid        mac.SID
	subject    string

	exec     string
	cwd      *vfs.Inode
	cwdPath  string
	root     *vfs.Inode // nil = global root (no chroot)
	rootPath string
	Env      map[string]string

	fds    map[int]*File
	nextFd int

	mem   *ustack.Memory
	stack *ustack.Stack
	as    *ustack.AddressSpace

	lang       ustack.Lang
	interpHead uint64
	interp     *ustack.InterpState

	ps *pf.ProcState

	// Mediation scratch: curMed is the in-flight syscall's medState (a LIFO
	// via medState.prev — signal-handler re-entry nests), medFree the
	// recycled pool, fileFree the open-file-description pool. All three ride
	// the single-flow invariant: a process mediates on its own flow, so no
	// locking is needed.
	curMed   *medState
	medFree  []*medState
	fileFree *File

	// Signal machinery.
	handlers map[int]func(*Proc, int)
	blocked  map[int]bool
	sigDepth int

	exited   bool
	ExitCode int
}

// File is an open file description. Socket descriptors additionally carry
// an IPC endpoint: Lis after bind (a rendezvous point that may be listening),
// Conn after connect/accept (one end of a connected pair). Abstract- and
// port-namespace sockets have no inode, so Node may be nil.
type File struct {
	Node *vfs.Inode
	Path string
	pos  int

	Lis  *ipc.Listener
	Conn *ipc.Conn

	// res is the descriptor's preresolved PF resource handle, filled once at
	// install time so fd-based syscalls (read/write/fstat/...) never rebuild
	// identity from the inode on the hot path.
	res resource

	// freeNext links recycled descriptions on the owning process's pool.
	freeNext *File
}

// ProcSpec parameterizes process creation.
type ProcSpec struct {
	UID, GID int
	Label    mac.Label
	Exec     string
	Cwd      string // absolute path; defaults to /
	Env      map[string]string
}

// NewProc creates a process. The binary named by Exec is mapped into the
// fresh address space so its entrypoint offsets resolve.
func (k *Kernel) NewProc(spec ProcSpec) *Proc {
	k.mu.Lock()
	pid := k.nextPid
	k.nextPid++
	k.mu.Unlock()

	mem := ustack.NewMemory(userMemWords)
	p := &Proc{
		k:   k,
		pid: pid,
		UID: spec.UID, GID: spec.GID, EUID: spec.UID, EGID: spec.GID,
		sid:      k.Policy.SIDs().SID(spec.Label),
		subject:  string(spec.Label),
		exec:     spec.Exec,
		Env:      map[string]string{},
		fds:      make(map[int]*File),
		nextFd:   3,
		mem:      mem,
		stack:    ustack.NewStack(mem, stackBase),
		as:       ustack.NewAddressSpace(uint64(pid)),
		ps:       pf.NewProcState(),
		handlers: make(map[int]func(*Proc, int)),
		blocked:  make(map[int]bool),
	}
	for k2, v := range spec.Env {
		p.Env[k2] = v
	}
	if spec.Exec != "" {
		p.as.Map(spec.Exec, 0)
	}
	cwd := spec.Cwd
	if cwd == "" {
		cwd = "/"
	}
	if res, err := k.FS.Resolve(nil, cwd, vfs.ResolveOpts{FollowFinal: true}, nil); err == nil {
		p.cwd = res.Node
		p.cwdPath = res.Path
	} else {
		p.cwd = k.FS.Root()
		p.cwdPath = "/"
	}
	k.mu.Lock()
	k.procs[pid] = p
	k.mu.Unlock()
	return p
}

// pf.Process implementation.

// PID implements pf.Process.
func (p *Proc) PID() int { return p.pid }

// SubjectSID implements pf.Process.
func (p *Proc) SubjectSID() mac.SID { return p.sid }

// ExecPath implements pf.Process.
func (p *Proc) ExecPath() string { return p.exec }

// UserRegs implements pf.Process.
func (p *Proc) UserRegs() ustack.Regs { return p.stack.Regs }

// UserMemory implements pf.Process.
func (p *Proc) UserMemory() *ustack.Memory { return p.mem }

// AddrSpace implements pf.Process.
func (p *Proc) AddrSpace() *ustack.AddressSpace { return p.as }

// Interp implements pf.Process.
func (p *Proc) Interp() (ustack.Lang, uint64) { return p.lang, p.interpHead }

// StackGen implements pf.Process: a generation stamp covering every user
// stack mutation (memory writes plus register-only changes). Paired with
// AddrSpace().Gen() it keys the firewall's entrypoint-unwind cache. Nil
// guards cover exited processes, whose stacks were recycled.
func (p *Proc) StackGen() uint64 {
	if p.mem == nil || p.stack == nil {
		return 0
	}
	return p.mem.Gen() + p.stack.Gen()
}

// PFState implements pf.Process.
func (p *Proc) PFState() *pf.ProcState { return p.ps }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Label returns the process's MAC label.
func (p *Proc) Label() mac.Label { return p.k.Policy.SIDs().Label(p.sid) }

// SetLabel relabels the process (domain transition).
func (p *Proc) SetLabel(l mac.Label) {
	p.sid = p.k.Policy.SIDs().SID(l)
	p.subject = string(l)
}

// Cwd returns the current working directory inode.
func (p *Proc) Cwd() *vfs.Inode { return p.cwd }

// Chdir changes the working directory (unmediated helper).
func (p *Proc) Chdir(path string) error {
	res, err := p.k.FS.Resolve(p.cwd, path, vfs.ResolveOpts{
		FollowFinal: true, CwdPath: p.cwdPath, Root: p.root, RootPath: p.rootPath,
	}, nil)
	if err != nil {
		return err
	}
	if !res.Node.IsDir() {
		return vfs.ErrNotDir
	}
	p.cwd = res.Node
	p.cwdPath = res.Path
	return nil
}

// --- simulated program-counter management --------------------------------

// SyscallSite positions the program counter at offset off within binary
// before issuing a system call, as compiled code would. The binary must be
// mapped (the main executable is mapped at creation; libraries via Mmap).
func (p *Proc) SyscallSite(binary string, off uint64) error {
	m, ok := p.as.FindByPath(binary)
	if !ok {
		return fmt.Errorf("kernel: %s not mapped in pid %d", binary, p.pid)
	}
	p.stack.SetPC(m.Base + off)
	return nil
}

// PushFrame records a function call at offset off within binary, growing
// the user stack's frame chain.
func (p *Proc) PushFrame(binary string, off uint64) error {
	m, ok := p.as.FindByPath(binary)
	if !ok {
		return fmt.Errorf("kernel: %s not mapped in pid %d", binary, p.pid)
	}
	return p.stack.Call(m.Base + off)
}

// PopFrame returns from the most recent PushFrame.
func (p *Proc) PopFrame() error { return p.stack.Ret() }

// BecomeInterpreter initializes interpreter frame structures for lang in
// this process's user memory (e.g. the PHP interpreter's call frames).
func (p *Proc) BecomeInterpreter(lang ustack.Lang) {
	p.lang = lang
	p.interpHead = interpArena
	p.interp = ustack.NewInterpState(lang, p.mem, interpArena, userMemWords-interpArena-1)
}

// InterpPush records interpreter entry into script at line.
func (p *Proc) InterpPush(script string, line int) error {
	if p.interp == nil {
		return fmt.Errorf("kernel: pid %d is not an interpreter", p.pid)
	}
	return p.interp.Push(script, line)
}

// InterpPop unwinds one interpreter frame.
func (p *Proc) InterpPop() error {
	if p.interp == nil {
		return fmt.Errorf("kernel: pid %d is not an interpreter", p.pid)
	}
	return p.interp.Pop()
}

// --- mediation -------------------------------------------------------------

// enterSyscall performs per-syscall bookkeeping: counters, PF state
// sequencing, mediation-scratch acquisition, the syscallbegin chain, and
// adversary interleave hooks. On success the caller owns the acquired
// scratch and must `defer p.exitSyscall()`; on error the scratch has
// already been released.
func (p *Proc) enterSyscall(nr Syscall, args ...uint64) error {
	if p.exited {
		return ErrExited
	}
	n := p.k.SyscallCount.Add(1)
	ob := p.k.obs.Load()
	if ob != nil && nr > 0 && nr < nrCount {
		ob.syscalls[nr].Add(p.pid, 1)
	}
	p.ps.BeginSyscall()
	ms := p.acquireMed(nr)
	if ob != nil && n&ob.sampleMask == 0 {
		// Sampled syscall: every request it mediates carries a timed span,
		// and the latency histograms observe its stamps. The decision rides
		// the syscall counter this entry incremented anyway.
		ms.ob = ob
		ms.spanT0 = obs.MonoNow()
		ms.syscallSeq = n
	}
	if pfe := p.k.PF; pfe != nil {
		// One gauntlet setup (ruleset + observability snapshot) for the whole
		// syscall; every subsequent check this syscall performs rides it.
		pfe.StartBatch(&ms.b, p)
		ms.batchActive = true
		if pfe.MayFilter(pf.OpSyscallBegin) {
			ms.req.Reset()
			ms.req.Proc = p
			ms.req.Op = pf.OpSyscallBegin
			ms.req.SyscallNR = int(nr)
			ms.req.SetArgs(args...)
			if ms.filter() == pf.VerdictDrop {
				p.exitSyscall()
				return ErrPFDenied
			}
		}
	}
	p.k.runPreHooks(p, nr)
	return nil
}

// accessToOp maps a vfs mediation step to the PF operation.
func accessToOp(a vfs.Access) pf.Op {
	switch a.Class {
	case mac.ClassDir:
		return pf.OpDirSearch
	case mac.ClassLnkFile:
		return pf.OpLnkFileRead
	default:
		return pf.OpFileOpen
	}
}

// accessPerm maps a mediation step to the DAC bits it exercises.
func dacBits(a vfs.Access) (r, w, x bool) {
	if a.Class == mac.ClassDir && a.Want&mac.PermSearch != 0 {
		return false, false, true
	}
	if a.Want&(mac.PermWrite|mac.PermAddName|mac.PermRemoveName) != 0 {
		return false, true, false
	}
	return true, false, false
}

// mediator returns the vfs.Mediator chaining DAC → MAC → PF for this
// process, invoked on every object touched during path resolution
// (the complete-mediation property of LSM the paper relies on). Syscall
// dispatch uses the medState scratch directly; this closure form remains
// for helpers resolving outside a syscall.
func (p *Proc) mediator(nr Syscall) vfs.Mediator {
	return vfs.MediatorFunc(func(a vfs.Access) error {
		return p.mediate(nr, a)
	})
}

// mediate authorizes one object access. Inside a sampled syscall it also
// stamps the mediation's start, so the request's span can split DAC+MAC
// from gauntlet time, and times the whole gauntlet (DAC → MAC → PF) into
// the mediation histogram — whether or not the firewall filters its op.
// A span that closes the mediation observes its own total and consumes
// the stamp (endSpan); otherwise the stamp is timed and cleared here, so a
// mediation the firewall skips leaves nothing for a later request's split.
func (p *Proc) mediate(nr Syscall, a vfs.Access) error {
	p.k.MediationCount.Add(1)
	ms := p.curMed
	if ms == nil || ms.ob == nil {
		return p.mediate1(nr, a)
	}
	ms.medT0 = obs.MonoNow()
	err := p.mediate1(nr, a)
	if ms.medT0 != 0 {
		ms.ob.medLatency.Observe(p.pid, uint64(obs.MonoNow()-ms.medT0))
		ms.medT0 = 0
	}
	return err
}

func (p *Proc) mediate1(nr Syscall, a vfs.Access) error {
	// DAC.
	r, w, x := dacBits(a)
	if !vfs.CanAccess(a.Node, p.EUID, p.EGID, r, w, x) {
		return vfs.ErrPerm
	}
	// MAC (LSM authorization proper).
	if p.k.MACEnforcing {
		cls := a.Class
		if !p.k.Policy.Authorized(p.sid, a.Node.SID, cls, a.Want) {
			return ErrMACDenied
		}
	}
	// Process Firewall: invoked only if authorization allowed (Figure 2).
	return p.pfFilter(accessToOp(a), pfObj{node: a.Node, path: a.Path}, nr)
}

// resolve performs a mediated path resolution relative to the cwd, inside
// the process's root (chroot). The result is returned by value: its Trail
// backing array belongs to the syscall's scratch and is reused by the next
// resolution (syscalls that resolve twice — link, rename — must not read
// the first result's Trail after the second resolve; kernel callers never
// do, only Node/Parent/Name/Path).
func (p *Proc) resolve(nr Syscall, path string, opts vfs.ResolveOpts) (vfs.Resolved, error) {
	opts.CwdPath = p.cwdPath
	opts.Root = p.root
	opts.RootPath = p.rootPath
	ms := p.curMed
	if ms == nil {
		// No in-flight syscall (helper path): one-shot resolution.
		res, err := p.k.FS.Resolve(p.cwd, path, opts, p.mediator(nr))
		if err != nil {
			return vfs.Resolved{}, err
		}
		return *res, nil
	}
	ms.nr = nr
	if err := p.k.FS.ResolveInto(&ms.resolved, p.cwd, path, opts, ms); err != nil {
		return vfs.Resolved{}, err
	}
	return ms.resolved, nil
}

// getFd looks up an open descriptor.
func (p *Proc) getFd(fd int) (*File, error) {
	f, ok := p.fds[fd]
	if !ok {
		return nil, ErrBadFd
	}
	return f, nil
}

// installFd allocates a descriptor for node, recycling a pooled File when
// one is free (Close returns them). node may be nil for inode-less
// endpoints (abstract/port sockets, connected pairs).
func (p *Proc) installFd(node *vfs.Inode, path string) int {
	fd := p.nextFd
	p.nextFd++
	f := p.fileFree
	if f != nil {
		p.fileFree = f.freeNext
	} else {
		f = &File{}
	}
	*f = File{Node: node, Path: path, res: resource{k: p.k, node: node, path: path}}
	p.fds[fd] = f
	if node != nil {
		p.k.FS.IncOpen(node)
	}
	return fd
}

// recycleFile returns a closed descriptor's File to the pool. The caller
// has already released endpoints and dropped it from the fd table.
func (p *Proc) recycleFile(f *File) {
	*f = File{freeNext: p.fileFree}
	p.fileFree = f
}

// closeEndpoints releases any IPC endpoint attached to f: closing a bound
// listener vacates its rendezvous name (opening the squat window an
// adversary exploits and the PF must compensate for), closing a conn
// resets the peer.
func (f *File) closeEndpoints() {
	if f.Lis != nil {
		f.Lis.Close()
	}
	if f.Conn != nil {
		f.Conn.Close()
	}
}
