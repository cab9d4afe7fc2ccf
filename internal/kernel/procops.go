package kernel

import (
	"pfirewall/internal/pf"
	"pfirewall/internal/ustack"
	"pfirewall/internal/vfs"
)

// Fork clones the process: credentials, environment, cwd, descriptors,
// address-space mappings, and the PF STATE dictionary (the child starts
// with the parent's recorded facts, matching the paper's task_struct
// extension semantics).
func (p *Proc) Fork() (*Proc, error) {
	if err := p.enterSyscall(NrFork); err != nil {
		return nil, err
	}
	defer p.exitSyscall()
	k := p.k
	k.mu.Lock()
	pid := k.nextPid
	k.nextPid++
	k.mu.Unlock()

	mem := ustack.NewMemory(userMemWords)
	child := &Proc{
		k:   k,
		pid: pid,
		UID: p.UID, GID: p.GID, EUID: p.EUID, EGID: p.EGID,
		sid:      p.sid,
		subject:  p.subject,
		exec:     p.exec,
		cwd:      p.cwd,
		cwdPath:  p.cwdPath,
		root:     p.root,
		rootPath: p.rootPath,
		Env:      map[string]string{},
		fds:      make(map[int]*File),
		nextFd:   p.nextFd,
		mem:      mem,
		stack:    ustack.NewStack(mem, stackBase),
		as:       ustack.NewAddressSpace(uint64(pid)),
		ps:       p.ps.Clone(),
		handlers: make(map[int]func(*Proc, int)),
		blocked:  make(map[int]bool),
	}
	for key, v := range p.Env {
		child.Env[key] = v
	}
	for fd, f := range p.fds {
		child.fds[fd] = &File{
			Node: f.Node, Path: f.Path, pos: f.pos,
			res: resource{k: k, node: f.Node, path: f.Path},
		}
		k.FS.IncOpen(f.Node)
	}
	for _, m := range p.as.Mappings() {
		child.as.Map(m.Path, m.Size)
	}
	for sig, h := range p.handlers {
		child.handlers[sig] = h
	}
	k.mu.Lock()
	k.procs[pid] = child
	k.mu.Unlock()
	return child, nil
}

// Execve replaces the process image with the program at path: the binary
// is resolved with full mediation, FILE_EXEC is filtered, setuid bits take
// effect, and the address space is rebuilt with only the new binary mapped.
func (p *Proc) Execve(path string, env map[string]string) error {
	if err := p.enterSyscall(NrExecve); err != nil {
		return err
	}
	defer p.exitSyscall()
	res, err := p.resolve(NrExecve, path, vfs.ResolveOpts{FollowFinal: true})
	if err != nil {
		return err
	}
	node := res.Node
	if node.IsDir() {
		return vfs.ErrIsDir
	}
	if !vfs.CanAccess(node, p.EUID, p.EGID, false, false, true) {
		return vfs.ErrPerm
	}
	if err := p.pfFilter(pf.OpFileExec, pfObj{node: node, path: res.Path}, NrExecve); err != nil {
		return err
	}
	// setuid: effective uid becomes the binary owner's.
	if node.Mode&vfs.ModeSetuid != 0 {
		p.EUID = node.UID
	}
	p.exec = res.Path
	p.Env = map[string]string{}
	for k2, v := range env {
		p.Env[k2] = v
	}
	if p.mem != nil {
		p.mem.Recycle()
	}
	p.mem = ustack.NewMemory(userMemWords)
	p.stack = ustack.NewStack(p.mem, stackBase)
	p.as = ustack.NewAddressSpace(uint64(p.pid) * 3)
	p.as.Map(res.Path, 0)
	p.lang = ustack.LangNative
	p.interp = nil
	p.interpHead = 0
	return nil
}

// Exit terminates the process, releasing its descriptors.
func (p *Proc) Exit(code int) {
	if p.exited {
		return
	}
	// No mediation follows exit's entry bookkeeping; release the syscall
	// scratch immediately (enterSyscall released it itself on denial).
	if err := p.enterSyscall(NrExit, uint64(code)); err == nil {
		p.exitSyscall()
	}
	for fd, f := range p.fds {
		if f.Node != nil {
			p.k.FS.DecOpen(f.Node)
		}
		// Closing the endpoints is what makes owner death observable: bound
		// names become squattable, and clients of a dead server get
		// connection-refused instead of a descriptor to nobody.
		f.closeEndpoints()
		delete(p.fds, fd)
	}
	p.exited = true
	// Recycle the address space; the process can make no further use of it
	// (every syscall checks exited first).
	mem := p.mem
	p.mem = nil
	p.stack = nil
	p.interp = nil
	if mem != nil {
		mem.Recycle()
	}
	p.ExitCode = code
	p.k.mu.Lock()
	delete(p.k.procs, p.pid)
	p.k.mu.Unlock()
}

// Exited reports whether the process has exited.
func (p *Proc) Exited() bool { return p.exited }

// Sigaction registers handler for sig. A nil handler resets to default.
func (p *Proc) Sigaction(sig int, handler func(*Proc, int)) error {
	if err := p.enterSyscall(NrSigaction, uint64(sig)); err != nil {
		return err
	}
	defer p.exitSyscall()
	if sig == SIGKILL || sig == SIGSTOP {
		return vfs.ErrInval
	}
	if handler == nil {
		delete(p.handlers, sig)
	} else {
		p.handlers[sig] = handler
	}
	return nil
}

// Sigprocmask blocks or unblocks a signal.
func (p *Proc) Sigprocmask(sig int, block bool) error {
	if err := p.enterSyscall(NrSigprocmask, uint64(sig)); err != nil {
		return err
	}
	defer p.exitSyscall()
	if block {
		p.blocked[sig] = true
	} else {
		delete(p.blocked, sig)
	}
	return nil
}

// Sigreturn is issued by the signal trampoline when a handler returns; the
// PF syscallbegin chain observes it to clear in-handler state (rule R12).
func (p *Proc) Sigreturn() error {
	if err := p.enterSyscall(NrSigreturn); err != nil {
		return err
	}
	p.exitSyscall()
	return nil
}

// Kill sends sig to the process with the given pid. Delivery — not the
// send — is the mediated operation: the Process Firewall filters
// PROCESS_SIGNAL_DELIVERY into the *target's* context, since the firewall
// protects the receiving process (paper Table 2, last row).
func (p *Proc) Kill(pid, sig int) error {
	if err := p.enterSyscall(NrKill, uint64(pid), uint64(sig)); err != nil {
		return err
	}
	defer p.exitSyscall()
	target, ok := p.k.Proc(pid)
	if !ok || target.exited {
		return ErrNoProc
	}
	// DAC: a non-root sender must match the target's uid.
	if p.EUID != 0 && p.EUID != target.UID && p.UID != target.UID {
		return vfs.ErrPerm
	}
	return p.k.deliverSignal(target, sig, p.curMed)
}

// deliverSignal delivers sig to target synchronously, consulting the
// Process Firewall with the target as subject. The handler runs on the
// caller's flow; nested deliveries model handler preemption. kill is the
// sending syscall's scratch, whose sampling decision the delivery shares.
func (k *Kernel) deliverSignal(target *Proc, sig int, kill *medState) error {
	if target.blocked[sig] && sig != SIGKILL && sig != SIGSTOP {
		// Blocked signals stay pending; the simulation drops them, which
		// suffices for the race experiments (a blocked signal cannot
		// interrupt the handler, which is the defense being modeled).
		return nil
	}
	handler, hasHandler := target.handlers[sig]
	if pfe := k.PF; pfe != nil && pfe.MayFilter(pf.OpSignalDeliver) {
		// Delivery mediates in the *target's* context: borrow a scratch from
		// the target's pool (pushed above any syscall it is presently inside
		// — delivery is synchronous on this flow, so the LIFO holds) and
		// release it before the handler runs its own syscalls.
		ms := target.acquireMed(NrKill)
		if kill != nil && kill.ob != nil {
			// The last request of a sampled kill: its span is timed from
			// the kill's entry and follows the kill's spans in its batch.
			ms.ob, ms.spanT0, ms.syscallSeq, ms.spanIdx = kill.ob, kill.spanT0, kill.syscallSeq, kill.spanIdx
		}
		pfe.StartBatch(&ms.b, target)
		ms.batchActive = true
		ms.sigRes = signalResource{sig: sig, target: target}
		ms.sig = pf.SignalInfo{
			Signal:      sig,
			HasHandler:  hasHandler,
			Unblockable: sig == SIGKILL || sig == SIGSTOP,
		}
		ms.req.Reset()
		ms.req.Proc = target
		ms.req.Op = pf.OpSignalDeliver
		ms.req.Obj = &ms.sigRes
		ms.req.Sig = &ms.sig
		v := ms.filter()
		target.exitSyscall()
		if v == pf.VerdictDrop {
			return ErrPFDenied
		}
	}
	if sig == SIGKILL {
		target.Exit(128 + sig)
		return nil
	}
	if !hasHandler {
		return nil // default action ignored in the simulation
	}
	target.sigDepth++
	handler(target, sig)
	target.sigDepth--
	// The signal trampoline issues sigreturn on handler exit.
	return target.Sigreturn()
}

// SigDepth reports the current handler nesting depth; exploit checkers use
// it to detect re-entrancy.
func (p *Proc) SigDepth() int { return p.sigDepth }

// Chroot confines the process (and its descendants) to the subtree at
// path — the namespace-isolation defense the paper's related work compares
// against (Section 2.2: "privilege separation and namespace isolation
// (using chroot) ... enable customized permission enforcement", at the
// cost of manual program restructuring). Root only, as on UNIX.
func (p *Proc) Chroot(path string) error {
	if err := p.enterSyscall(NrChroot); err != nil {
		return err
	}
	defer p.exitSyscall()
	if p.EUID != 0 {
		return vfs.ErrPerm
	}
	res, err := p.resolve(NrChroot, path, vfs.ResolveOpts{FollowFinal: true})
	if err != nil {
		return err
	}
	if !res.Node.IsDir() {
		return vfs.ErrNotDir
	}
	p.root = res.Node
	p.rootPath = res.Path
	// POSIX leaves the cwd alone (the classic escape); we mirror that and
	// let callers Chdir explicitly, so tests can demonstrate both the
	// confinement and its known weaknesses.
	return nil
}
