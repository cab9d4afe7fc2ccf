package kernel

import (
	"pfirewall/internal/ipc"
	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
	"pfirewall/internal/vfs"
)

// Open flags.
const (
	O_RDONLY   = 0
	O_WRONLY   = 1 << 0
	O_RDWR     = 1 << 1
	O_CREAT    = 1 << 2
	O_EXCL     = 1 << 3
	O_NOFOLLOW = 1 << 4
	O_TRUNC    = 1 << 5
)

// Open opens (or creates) path and returns a file descriptor. Every
// directory searched, symlink followed, and the final object are mediated
// through DAC, MAC and the Process Firewall.
func (p *Proc) Open(path string, flags int, mode uint16) (int, error) {
	if err := p.enterSyscall(NrOpen, uint64(flags)); err != nil {
		return -1, err
	}
	defer p.exitSyscall()
	opts := vfs.ResolveOpts{FollowFinal: flags&O_NOFOLLOW == 0, WantParent: flags&O_CREAT != 0}
	res, err := p.resolve(NrOpen, path, opts)
	if err != nil {
		return -1, err
	}

	node := res.Node
	if node == nil {
		// Creation path.
		if flags&O_CREAT == 0 {
			return -1, vfs.ErrNotExist
		}
		if err := p.mediate(NrOpen, vfs.Access{Node: res.Parent, Path: parentPath(res.Path), Class: mac.ClassDir, Want: mac.PermAddName}); err != nil {
			return -1, err
		}
		node, err = p.k.FS.CreateAt(res.Parent, res.Name, res.Path, vfs.CreateOpts{
			UID: p.EUID, GID: p.EGID, Mode: mode,
		})
		if err != nil {
			return -1, err
		}
		if err := p.pfFilter(pf.OpFileCreate, pfObj{node: node, path: res.Path}, NrOpen); err != nil {
			// The firewall rejected the created resource; undo.
			p.k.FS.Unlink(res.Parent, res.Name)
			return -1, err
		}
		return p.installFd(node, res.Path), nil
	}

	if flags&O_CREAT != 0 && flags&O_EXCL != 0 {
		return -1, vfs.ErrExist
	}
	if flags&O_NOFOLLOW != 0 && node.IsSymlink() {
		return -1, vfs.ErrLoop // mirrors Linux ELOOP for O_NOFOLLOW
	}
	if node.IsDir() && flags&(O_WRONLY|O_RDWR) != 0 {
		return -1, vfs.ErrIsDir
	}

	// DAC on the final object.
	wantW := flags&(O_WRONLY|O_RDWR|O_TRUNC) != 0
	wantR := !wantW || flags&O_RDWR != 0
	if !vfs.CanAccess(node, p.EUID, p.EGID, wantR, wantW, false) {
		return -1, vfs.ErrPerm
	}
	// MAC + PF on the final object.
	var want mac.Perm = mac.PermRead
	if wantW {
		want |= mac.PermWrite
	}
	if p.k.MACEnforcing && !p.k.Policy.Authorized(p.sid, node.SID, mac.ClassFile, want) {
		return -1, ErrMACDenied
	}
	if err := p.pfFilter(pf.OpFileOpen, pfObj{node: node, path: res.Path}, NrOpen); err != nil {
		return -1, err
	}
	if flags&O_TRUNC != 0 {
		p.k.FS.WriteFile(node, nil)
	}
	return p.installFd(node, res.Path), nil
}

// parentPath strips the final component.
func parentPath(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			if i == 0 {
				return "/"
			}
			return path[:i]
		}
	}
	return "/"
}

// Close releases a descriptor.
func (p *Proc) Close(fd int) error {
	if err := p.enterSyscall(NrClose, uint64(fd)); err != nil {
		return err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return err
	}
	delete(p.fds, fd)
	if f.Node != nil {
		p.k.FS.DecOpen(f.Node)
	}
	f.closeEndpoints()
	p.recycleFile(f)
	return nil
}

// Read reads up to n bytes from fd.
func (p *Proc) Read(fd, n int) ([]byte, error) {
	if err := p.enterSyscall(NrRead, uint64(fd)); err != nil {
		return nil, err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return nil, err
	}
	if f.Node == nil {
		// Inode-less socket descriptor: read(2) on a socket is recv.
		if f.Conn == nil {
			return nil, vfs.ErrInval
		}
		if err := p.pfFilter(pf.OpSocketRecv, pfObj{conn: f.Conn}, NrRead); err != nil {
			return nil, err
		}
		return f.Conn.Recv(n)
	}
	if err := p.pfFilter(pf.OpFileRead, pfObj{res: &f.res}, NrRead); err != nil {
		return nil, err
	}
	if f.Node.Type == vfs.TypeFifo {
		if q, ok := p.k.IPC.Fifo(f.Node.IPCID); ok {
			return q.Pop(n), nil
		}
		return nil, nil
	}
	if f.Conn != nil {
		// A connected filesystem socket reads from its stream.
		return f.Conn.Recv(n)
	}
	data, err := p.k.FS.ReadFile(f.Node)
	if err != nil {
		return nil, err
	}
	if f.pos >= len(data) {
		return nil, nil
	}
	end := f.pos + n
	if n <= 0 || end > len(data) {
		end = len(data)
	}
	out := data[f.pos:end]
	f.pos = end
	return out, nil
}

// ReadAll reads the whole file behind fd from the current position.
func (p *Proc) ReadAll(fd int) ([]byte, error) { return p.Read(fd, -1) }

// Write appends data to the file behind fd.
func (p *Proc) Write(fd int, data []byte) (int, error) {
	if err := p.enterSyscall(NrWrite, uint64(fd)); err != nil {
		return 0, err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return 0, err
	}
	if f.Node == nil {
		// Inode-less socket descriptor: write(2) on a socket is send.
		if f.Conn == nil {
			return 0, vfs.ErrInval
		}
		if err := p.pfFilter(pf.OpSocketSend, pfObj{conn: f.Conn}, NrWrite); err != nil {
			return 0, err
		}
		return f.Conn.Send(data)
	}
	if err := p.pfFilter(pf.OpFileWrite, pfObj{res: &f.res}, NrWrite); err != nil {
		return 0, err
	}
	if f.Node.Type == vfs.TypeFifo {
		if q, ok := p.k.IPC.Fifo(f.Node.IPCID); ok {
			return q.Push(data)
		}
		return len(data), nil
	}
	if f.Conn != nil {
		return f.Conn.Send(data)
	}
	old, err := p.k.FS.ReadFile(f.Node)
	if err != nil {
		return 0, err
	}
	if err := p.k.FS.WriteFile(f.Node, append(old, data...)); err != nil {
		return 0, err
	}
	return len(data), nil
}

// Stat resolves path following symlinks and returns metadata.
func (p *Proc) Stat(path string) (vfs.Stat, error) {
	if err := p.enterSyscall(NrStat); err != nil {
		return vfs.Stat{}, err
	}
	defer p.exitSyscall()
	res, err := p.resolve(NrStat, path, vfs.ResolveOpts{FollowFinal: true})
	if err != nil {
		return vfs.Stat{}, err
	}
	if err := p.pfFilter(pf.OpFileGetattr, pfObj{node: res.Node, path: res.Path}, NrStat); err != nil {
		return vfs.Stat{}, err
	}
	return p.k.FS.StatOf(res.Node), nil
}

// Lstat is Stat without following a final symlink.
func (p *Proc) Lstat(path string) (vfs.Stat, error) {
	if err := p.enterSyscall(NrLstat); err != nil {
		return vfs.Stat{}, err
	}
	defer p.exitSyscall()
	res, err := p.resolve(NrLstat, path, vfs.ResolveOpts{})
	if err != nil {
		return vfs.Stat{}, err
	}
	if err := p.pfFilter(pf.OpFileGetattr, pfObj{node: res.Node, path: res.Path}, NrLstat); err != nil {
		return vfs.Stat{}, err
	}
	return p.k.FS.StatOf(res.Node), nil
}

// Fstat returns metadata for an open descriptor.
func (p *Proc) Fstat(fd int) (vfs.Stat, error) {
	if err := p.enterSyscall(NrFstat, uint64(fd)); err != nil {
		return vfs.Stat{}, err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return vfs.Stat{}, err
	}
	if f.Node == nil {
		return vfs.Stat{}, vfs.ErrInval
	}
	if err := p.pfFilter(pf.OpFileGetattr, pfObj{res: &f.res}, NrFstat); err != nil {
		return vfs.Stat{}, err
	}
	return p.k.FS.StatOf(f.Node), nil
}

// Access checks real-uid permissions on path, the access(2) the paper
// notes can only express DAC adversary queries (Section 2.2).
func (p *Proc) Access(path string, r, w, x bool) error {
	if err := p.enterSyscall(NrAccess); err != nil {
		return err
	}
	defer p.exitSyscall()
	res, err := p.resolve(NrAccess, path, vfs.ResolveOpts{FollowFinal: true})
	if err != nil {
		return err
	}
	if !vfs.CanAccess(res.Node, p.UID, p.GID, r, w, x) {
		return vfs.ErrPerm
	}
	return nil
}

// Unlink removes a name, honoring the sticky-bit restricted-deletion rule.
func (p *Proc) Unlink(path string) error {
	if err := p.enterSyscall(NrUnlink); err != nil {
		return err
	}
	defer p.exitSyscall()
	res, err := p.resolve(NrUnlink, path, vfs.ResolveOpts{WantParent: true})
	if err != nil {
		return err
	}
	if res.Node == nil {
		return vfs.ErrNotExist
	}
	if err := p.checkWriteDir(res.Parent, res.Node, parentPath(res.Path)); err != nil {
		return err
	}
	if err := p.pfFilter(pf.OpFileUnlink, pfObj{node: res.Node, path: res.Path}, NrUnlink); err != nil {
		return err
	}
	return p.k.FS.Unlink(res.Parent, res.Name)
}

// checkWriteDir applies DAC write + sticky-bit rules for removing or
// replacing dir entries.
func (p *Proc) checkWriteDir(dir, victim *vfs.Inode, dirPath string) error {
	if !vfs.CanAccess(dir, p.EUID, p.EGID, false, true, true) {
		return vfs.ErrPerm
	}
	if dir.Mode&vfs.ModeSticky != 0 && p.EUID != 0 && victim != nil &&
		p.EUID != victim.UID && p.EUID != dir.UID {
		return vfs.ErrPerm
	}
	if err := p.mediate(NrUnlink, vfs.Access{Node: dir, Path: dirPath, Class: mac.ClassDir, Want: mac.PermRemoveName}); err != nil {
		return err
	}
	return nil
}

// Mkdir creates a directory.
func (p *Proc) Mkdir(path string, mode uint16) error {
	if err := p.enterSyscall(NrMkdir); err != nil {
		return err
	}
	defer p.exitSyscall()
	res, err := p.resolve(NrMkdir, path, vfs.ResolveOpts{WantParent: true})
	if err != nil {
		return err
	}
	if res.Node != nil {
		return vfs.ErrExist
	}
	if !vfs.CanAccess(res.Parent, p.EUID, p.EGID, false, true, true) {
		return vfs.ErrPerm
	}
	node, err := p.k.FS.CreateAt(res.Parent, res.Name, res.Path, vfs.CreateOpts{
		UID: p.EUID, GID: p.EGID, Mode: mode, Type: vfs.TypeDir,
	})
	if err != nil {
		return err
	}
	return p.pfFilter(pf.OpFileCreate, pfObj{node: node, path: res.Path}, NrMkdir)
}

// Rmdir removes an empty directory.
func (p *Proc) Rmdir(path string) error {
	if err := p.enterSyscall(NrRmdir); err != nil {
		return err
	}
	defer p.exitSyscall()
	res, err := p.resolve(NrRmdir, path, vfs.ResolveOpts{WantParent: true})
	if err != nil {
		return err
	}
	if res.Node == nil {
		return vfs.ErrNotExist
	}
	if err := p.checkWriteDir(res.Parent, res.Node, parentPath(res.Path)); err != nil {
		return err
	}
	return p.k.FS.Rmdir(res.Parent, res.Name)
}

// Symlink creates a symbolic link at path pointing to target.
func (p *Proc) Symlink(target, path string) error {
	if err := p.enterSyscall(NrSymlink); err != nil {
		return err
	}
	defer p.exitSyscall()
	res, err := p.resolve(NrSymlink, path, vfs.ResolveOpts{WantParent: true})
	if err != nil {
		return err
	}
	if res.Node != nil {
		return vfs.ErrExist
	}
	if !vfs.CanAccess(res.Parent, p.EUID, p.EGID, false, true, true) {
		return vfs.ErrPerm
	}
	node, err := p.k.FS.CreateAt(res.Parent, res.Name, res.Path, vfs.CreateOpts{
		UID: p.EUID, GID: p.EGID, Mode: 0o777, Type: vfs.TypeSymlink, Target: target,
	})
	if err != nil {
		return err
	}
	return p.pfFilter(pf.OpFileCreate, pfObj{node: node, path: res.Path}, NrSymlink)
}

// Link creates a hard link newpath to the object at oldpath.
func (p *Proc) Link(oldpath, newpath string) error {
	if err := p.enterSyscall(NrLink); err != nil {
		return err
	}
	defer p.exitSyscall()
	oldRes, err := p.resolve(NrLink, oldpath, vfs.ResolveOpts{})
	if err != nil {
		return err
	}
	newRes, err := p.resolve(NrLink, newpath, vfs.ResolveOpts{WantParent: true})
	if err != nil {
		return err
	}
	if newRes.Node != nil {
		return vfs.ErrExist
	}
	if !vfs.CanAccess(newRes.Parent, p.EUID, p.EGID, false, true, true) {
		return vfs.ErrPerm
	}
	if err := p.pfFilter(pf.OpFileCreate, pfObj{node: oldRes.Node, path: newRes.Path}, NrLink); err != nil {
		return err
	}
	return p.k.FS.Link(newRes.Parent, newRes.Name, oldRes.Node)
}

// Rename atomically moves oldpath to newpath.
func (p *Proc) Rename(oldpath, newpath string) error {
	if err := p.enterSyscall(NrRename); err != nil {
		return err
	}
	defer p.exitSyscall()
	oldRes, err := p.resolve(NrRename, oldpath, vfs.ResolveOpts{WantParent: true})
	if err != nil {
		return err
	}
	if oldRes.Node == nil {
		return vfs.ErrNotExist
	}
	newRes, err := p.resolve(NrRename, newpath, vfs.ResolveOpts{WantParent: true})
	if err != nil {
		return err
	}
	if err := p.checkWriteDir(oldRes.Parent, oldRes.Node, parentPath(oldRes.Path)); err != nil {
		return err
	}
	if !vfs.CanAccess(newRes.Parent, p.EUID, p.EGID, false, true, true) {
		return vfs.ErrPerm
	}
	return p.k.FS.Rename(oldRes.Parent, oldRes.Name, newRes.Parent, newRes.Name)
}

// Chmod changes permission bits; only the owner or root may.
func (p *Proc) Chmod(path string, mode uint16) error {
	if err := p.enterSyscall(NrChmod); err != nil {
		return err
	}
	defer p.exitSyscall()
	res, err := p.resolve(NrChmod, path, vfs.ResolveOpts{FollowFinal: true})
	if err != nil {
		return err
	}
	return p.chmodNode(res.Node, res.Path, mode, NrChmod)
}

// Fchmod is Chmod on an open descriptor.
func (p *Proc) Fchmod(fd int, mode uint16) error {
	if err := p.enterSyscall(NrFchmod, uint64(fd)); err != nil {
		return err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return err
	}
	return p.chmodNode(f.Node, f.Path, mode, NrFchmod)
}

func (p *Proc) chmodNode(node *vfs.Inode, path string, mode uint16, nr Syscall) error {
	if p.EUID != 0 && p.EUID != node.UID {
		return vfs.ErrPerm
	}
	op := pf.OpFileSetattr
	if node.Type == vfs.TypeSocket {
		op = pf.OpSocketSetattr
	}
	if err := p.pfFilter(op, pfObj{node: node, path: path}, nr); err != nil {
		return err
	}
	p.k.FS.Chmod(node, mode)
	return nil
}

// Chown changes ownership; root only.
func (p *Proc) Chown(path string, uid, gid int) error {
	if err := p.enterSyscall(NrChown); err != nil {
		return err
	}
	defer p.exitSyscall()
	if p.EUID != 0 {
		return vfs.ErrPerm
	}
	res, err := p.resolve(NrChown, path, vfs.ResolveOpts{FollowFinal: true})
	if err != nil {
		return err
	}
	if err := p.pfFilter(pf.OpFileSetattr, pfObj{node: res.Node, path: res.Path}, NrChown); err != nil {
		return err
	}
	p.k.FS.Chown(res.Node, uid, gid)
	return nil
}

// Bind creates a socket file at path, recording this process as its owner
// (the bind step of the paper's dbus-daemon TOCTTOU, rule R5).
func (p *Proc) Bind(path string, mode uint16) (int, error) {
	if err := p.enterSyscall(NrBind); err != nil {
		return -1, err
	}
	defer p.exitSyscall()
	res, err := p.resolve(NrBind, path, vfs.ResolveOpts{WantParent: true})
	if err != nil {
		return -1, err
	}
	if res.Node != nil {
		return -1, vfs.ErrExist
	}
	if !vfs.CanAccess(res.Parent, p.EUID, p.EGID, false, true, true) {
		return -1, vfs.ErrPerm
	}
	node, err := p.k.FS.CreateAt(res.Parent, res.Name, res.Path, vfs.CreateOpts{
		UID: p.EUID, GID: p.EGID, Mode: mode, Type: vfs.TypeSocket,
	})
	if err != nil {
		return -1, err
	}
	node.SockOwner = p.pid
	if err := p.pfFilter(pf.OpSocketBind, pfObj{node: node, path: res.Path}, NrBind); err != nil {
		p.k.FS.Unlink(res.Parent, res.Name)
		return -1, err
	}
	lis := p.k.IPC.BindFile(res.Path, node.SID, p.cred())
	node.IPCID = lis.Meta().ID
	fd := p.installFd(node, res.Path)
	p.fds[fd].Lis = lis
	return fd, nil
}

// Connect opens a client connection to the socket at path (the libdbus
// step of rule R3).
func (p *Proc) Connect(path string) (int, error) {
	if err := p.enterSyscall(NrConnect); err != nil {
		return -1, err
	}
	defer p.exitSyscall()
	res, err := p.resolve(NrConnect, path, vfs.ResolveOpts{FollowFinal: true})
	if err != nil {
		return -1, err
	}
	if res.Node.Type != vfs.TypeSocket {
		return -1, vfs.ErrInval
	}
	if !vfs.CanAccess(res.Node, p.EUID, p.EGID, true, true, false) {
		return -1, vfs.ErrPerm
	}
	// A socket inode is only a rendezvous name; the connection needs a live
	// listener behind it. A dangling socket file whose owner exited (its
	// listener closed with its fds) refuses the connection rather than
	// handing out a descriptor to nobody.
	var lis *ipc.Listener
	if res.Node.IPCID != 0 {
		lis, _ = p.k.IPC.FileListener(res.Node.IPCID)
	}
	if lis == nil || lis.Closed() {
		return -1, ErrConnRefused
	}
	// The PF sees the file identity (label, inode, path) plus the socket
	// context: namespace and the listener owner's credentials — the peer
	// this client will actually be talking to.
	ms := p.curMed
	ms.ipcRes.fromMeta(lis.Meta(), mac.ClassSockFile)
	ms.ipcRes.sid = res.Node.SID
	ms.ipcRes.id = uint64(res.Node.Ino)
	ms.ipcRes.path = res.Path
	ms.ipcRes.owner = res.Node.UID
	ms.ipcRes.peer = lis.Owner()
	ms.ipcRes.peerOK = true
	conn, err := p.connectListener(lis, &ms.ipcRes)
	if err != nil {
		return -1, err
	}
	fd := p.installFd(res.Node, res.Path)
	p.fds[fd].Conn = conn
	return fd, nil
}

// Mkfifo creates a named pipe at path — the IPC rendezvous object of the
// File/IPC squat attack class (paper Table 1, CWE-283). Like Bind, the
// created inode records its creator.
func (p *Proc) Mkfifo(path string, mode uint16) error {
	if err := p.enterSyscall(NrMkfifo); err != nil {
		return err
	}
	defer p.exitSyscall()
	res, err := p.resolve(NrMkfifo, path, vfs.ResolveOpts{WantParent: true})
	if err != nil {
		return err
	}
	if res.Node != nil {
		return vfs.ErrExist
	}
	if !vfs.CanAccess(res.Parent, p.EUID, p.EGID, false, true, true) {
		return vfs.ErrPerm
	}
	node, err := p.k.FS.CreateAt(res.Parent, res.Name, res.Path, vfs.CreateOpts{
		UID: p.EUID, GID: p.EGID, Mode: mode, Type: vfs.TypeFifo,
	})
	if err != nil {
		return err
	}
	node.SockOwner = p.pid
	if err := p.pfFilter(pf.OpFifoCreate, pfObj{node: node, path: res.Path}, NrMkfifo); err != nil {
		p.k.FS.Unlink(res.Parent, res.Name)
		return err
	}
	node.IPCID = p.k.IPC.NewFifo()
	return nil
}

// Mmap maps the open file into the address space, making its code
// available for entrypoint matching (how ld.so loads libraries).
func (p *Proc) Mmap(fd int) error {
	if err := p.enterSyscall(NrMmap, uint64(fd)); err != nil {
		return err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return err
	}
	if err := p.pfFilter(pf.OpFileMmap, pfObj{res: &f.res}, NrMmap); err != nil {
		return err
	}
	if _, ok := p.as.FindByPath(f.Path); !ok {
		p.as.Map(f.Path, 0)
	}
	return nil
}

// Ftruncate truncates the file behind fd to zero length.
func (p *Proc) Ftruncate(fd int) error {
	if err := p.enterSyscall(NrFtruncate, uint64(fd)); err != nil {
		return err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return err
	}
	if err := p.pfFilter(pf.OpFileWrite, pfObj{res: &f.res}, NrFtruncate); err != nil {
		return err
	}
	f.pos = 0
	return p.k.FS.WriteFile(f.Node, nil)
}

// Getpid returns the process id (the "null" syscall of Table 6).
func (p *Proc) Getpid() (int, error) {
	if err := p.enterSyscall(NrGetpid); err != nil {
		return 0, err
	}
	defer p.exitSyscall()
	return p.pid, nil
}
