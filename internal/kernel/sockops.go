package kernel

import (
	"errors"
	"fmt"

	"pfirewall/internal/ipc"
	"pfirewall/internal/mac"
	"pfirewall/internal/pf"
	"pfirewall/internal/vfs"
)

// ipcResource adapts an IPC endpoint to pf.Resource and pf.SockResource.
// For filesystem sockets it carries the socket inode's identity (label,
// inode number, path) so label- and identifier-based rules written against
// the file keep working, while the socket context modules (SOCK_NS, PORT,
// PEER_CRED) see the rendezvous namespace and the credential captured on
// the other end — the context no namespace squatter can forge.
type ipcResource struct {
	sid    mac.SID
	id     uint64
	path   string
	class  mac.Class
	owner  int
	ns     ipc.NS
	port   uint16
	portOK bool
	peer   ipc.Cred // held by value so scratch reuse carries no pointer
	peerOK bool
}

func (r *ipcResource) SID() mac.SID                    { return r.sid }
func (r *ipcResource) ID() uint64                      { return r.id }
func (r *ipcResource) Path() string                    { return r.path }
func (r *ipcResource) Class() mac.Class                { return r.class }
func (r *ipcResource) OwnerUID() int                   { return r.owner }
func (r *ipcResource) LinkTargetOwnerUID() (int, bool) { return 0, false }

// SockNS implements pf.SockResource.
func (r *ipcResource) SockNS() (string, bool) { return r.ns.String(), true }

// SockPort implements pf.SockResource.
func (r *ipcResource) SockPort() (uint16, bool) { return r.port, r.portOK }

// PeerCred implements pf.SockResource.
func (r *ipcResource) PeerCred() (pid, uid, gid int, ok bool) {
	if !r.peerOK {
		return 0, 0, 0, false
	}
	return r.peer.PID, r.peer.UID, r.peer.GID, true
}

// fromMeta fills the common identity fields from endpoint metadata,
// overwriting all previous state. The display path was precomputed at bind
// time, so filling a scratch resource performs no allocation.
func (r *ipcResource) fromMeta(m ipc.Meta, class mac.Class) {
	*r = ipcResource{sid: m.SID, id: m.ID, path: m.Display, class: class, ns: m.NS}
	if m.NS == ipc.NSPort {
		r.port = m.Port
		r.portOK = true
	}
}

// fromLis describes a rendezvous point for bind/listen/connect mediation.
// The peer credential is the listener's binder (what a client will observe).
func (r *ipcResource) fromLis(l *ipc.Listener) {
	r.fromMeta(l.Meta(), mac.ClassUnixStreamSocket)
	r.peer = l.Owner()
	r.peerOK = true
	r.owner = r.peer.UID
}

// fromConn describes one end of a connected pair for accept/send/recv
// mediation; the peer credential is the remote end's, captured at connect
// time (SO_PEERCRED).
func (r *ipcResource) fromConn(c *ipc.Conn) {
	r.fromMeta(c.Meta(), mac.ClassUnixStreamSocket)
	r.peer = c.PeerCred()
	r.peerOK = true
	r.owner = r.peer.UID
}

// connResource is the allocating form of fromConn, for the rare mediation
// outside an active syscall scratch.
func connResource(c *ipc.Conn) *ipcResource {
	r := &ipcResource{}
	r.fromConn(c)
	return r
}

// cred snapshots the process's effective credentials for SO_PEERCRED.
func (p *Proc) cred() ipc.Cred { return ipc.Cred{PID: p.pid, UID: p.EUID, GID: p.EGID} }

// BindAbstract binds name in the abstract socket namespace — no inode, no
// DAC: first-come first-served, the classic squat surface the Process
// Firewall compensates for with PEER_CRED/SOCK_NS rules.
func (p *Proc) BindAbstract(name string) (int, error) {
	if err := p.enterSyscall(NrBind); err != nil {
		return -1, err
	}
	defer p.exitSyscall()
	l, err := p.k.IPC.BindAbstract(name, p.sid, p.cred())
	if err != nil {
		return -1, err
	}
	if err := p.pfFilter(pf.OpSocketBind, pfObj{lis: l}, NrBind); err != nil {
		l.Close()
		return -1, err
	}
	fd := p.installFd(nil, "@"+name)
	p.fds[fd].Lis = l
	return fd, nil
}

// BindPort binds a TCP-like port. Closing the listener vacates the port
// immediately (SO_REUSEADDR semantics), so a daemon restart leaves a
// window in which any process may squat its port.
func (p *Proc) BindPort(port uint16) (int, error) {
	if err := p.enterSyscall(NrBind, uint64(port)); err != nil {
		return -1, err
	}
	defer p.exitSyscall()
	l, err := p.k.IPC.BindPort(port, p.sid, p.cred())
	if err != nil {
		return -1, err
	}
	if err := p.pfFilter(pf.OpSocketBind, pfObj{lis: l}, NrBind); err != nil {
		l.Close()
		return -1, err
	}
	fd := p.installFd(nil, fmt.Sprintf(":%d", port))
	p.fds[fd].Lis = l
	return fd, nil
}

// Listen marks the socket behind fd as accepting connections with a
// bounded backlog.
func (p *Proc) Listen(fd, backlog int) error {
	if err := p.enterSyscall(NrListen, uint64(fd), uint64(backlog)); err != nil {
		return err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return err
	}
	if f.Lis == nil {
		return vfs.ErrInval
	}
	if err := p.pfFilter(pf.OpSocketListen, pfObj{lis: f.Lis}, NrListen); err != nil {
		return err
	}
	return f.Lis.Listen(backlog)
}

// Accept pops one pending connection off the listener's backlog. The
// Process Firewall mediates with the connecting peer's credentials; a DROP
// resets the pending connection (the client observes a closed peer).
func (p *Proc) Accept(fd int) (int, error) {
	if err := p.enterSyscall(NrAccept, uint64(fd)); err != nil {
		return -1, err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return -1, err
	}
	if f.Lis == nil {
		return -1, vfs.ErrInval
	}
	conn, err := f.Lis.Accept()
	if err != nil {
		return -1, err
	}
	if err := p.pfFilter(pf.OpSocketAccept, pfObj{conn: conn}, NrAccept); err != nil {
		conn.Close()
		return -1, err
	}
	nfd := p.installFd(nil, f.Path)
	p.fds[nfd].Conn = conn
	return nfd, nil
}

// connectListener mediates and establishes a connection to l, returning
// the client end. res carries the identity the PF should see (for
// filesystem sockets, the socket inode's).
func (p *Proc) connectListener(l *ipc.Listener, res pf.Resource) (*ipc.Conn, error) {
	if err := p.pfFilter(pf.OpSocketConnect, pfObj{res: res}, NrConnect); err != nil {
		return nil, err
	}
	return p.k.IPC.Connect(l, p.cred())
}

// ConnectAbstract connects to an abstract-namespace socket.
func (p *Proc) ConnectAbstract(name string) (int, error) {
	if err := p.enterSyscall(NrConnect); err != nil {
		return -1, err
	}
	defer p.exitSyscall()
	l, ok := p.k.IPC.LookupAbstract(name)
	if !ok {
		return -1, ErrConnRefused
	}
	ms := p.curMed
	ms.ipcRes.fromLis(l)
	conn, err := p.connectListener(l, &ms.ipcRes)
	if err != nil {
		return -1, err
	}
	fd := p.installFd(nil, "@"+name)
	p.fds[fd].Conn = conn
	return fd, nil
}

// ConnectPort connects to a port-namespace socket.
func (p *Proc) ConnectPort(port uint16) (int, error) {
	if err := p.enterSyscall(NrConnect, uint64(port)); err != nil {
		return -1, err
	}
	defer p.exitSyscall()
	l, ok := p.k.IPC.LookupPort(port)
	if !ok {
		return -1, ErrConnRefused
	}
	ms := p.curMed
	ms.ipcRes.fromLis(l)
	conn, err := p.connectListener(l, &ms.ipcRes)
	if err != nil {
		return -1, err
	}
	fd := p.installFd(nil, fmt.Sprintf(":%d", port))
	p.fds[fd].Conn = conn
	return fd, nil
}

// Send writes data to the connected socket behind fd.
func (p *Proc) Send(fd int, data []byte) (int, error) {
	if err := p.enterSyscall(NrSendmsg, uint64(fd), uint64(len(data))); err != nil {
		return 0, err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return 0, err
	}
	if f.Conn == nil {
		return 0, vfs.ErrInval
	}
	if err := p.pfFilter(pf.OpSocketSend, pfObj{conn: f.Conn}, NrSendmsg); err != nil {
		return 0, err
	}
	return f.Conn.Send(data)
}

// Recv reads up to n bytes (n <= 0: everything buffered) from the
// connected socket behind fd.
func (p *Proc) Recv(fd, n int) ([]byte, error) {
	if err := p.enterSyscall(NrRecvmsg, uint64(fd)); err != nil {
		return nil, err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return nil, err
	}
	if f.Conn == nil {
		return nil, vfs.ErrInval
	}
	if err := p.pfFilter(pf.OpSocketRecv, pfObj{conn: f.Conn}, NrRecvmsg); err != nil {
		return nil, err
	}
	return f.Conn.Recv(n)
}

// Sendmmsg sends a burst of messages over the connected socket behind fd in
// one syscall: one gauntlet setup (batch snapshot, scratch acquisition)
// amortized over the per-message firewall checks. Messages are sent in
// order; like sendmmsg(2), a failure after at least one successful send
// reports the partial count instead of an error.
func (p *Proc) Sendmmsg(fd int, msgs [][]byte) (int, error) {
	if err := p.enterSyscall(NrSendmmsg, uint64(fd), uint64(len(msgs))); err != nil {
		return 0, err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return 0, err
	}
	if f.Conn == nil {
		return 0, vfs.ErrInval
	}
	sent := 0
	for _, m := range msgs {
		if err := p.pfFilter(pf.OpSocketSend, pfObj{conn: f.Conn}, NrSendmmsg); err != nil {
			if sent > 0 {
				return sent, nil
			}
			return 0, err
		}
		if _, err := f.Conn.Send(m); err != nil {
			if sent > 0 {
				return sent, nil
			}
			return 0, err
		}
		sent++
	}
	return sent, nil
}

// Recvmmsg receives up to max messages (each up to per bytes; per <= 0
// drains the buffer) from the connected socket behind fd, mediating each
// message under the single batch established at syscall entry. Returns the
// messages received before the stream emptied or a check failed, mirroring
// recvmmsg(2)'s partial-success contract.
func (p *Proc) Recvmmsg(fd, max, per int) ([][]byte, error) {
	if err := p.enterSyscall(NrRecvmmsg, uint64(fd), uint64(max)); err != nil {
		return nil, err
	}
	defer p.exitSyscall()
	f, err := p.getFd(fd)
	if err != nil {
		return nil, err
	}
	if f.Conn == nil {
		return nil, vfs.ErrInval
	}
	var out [][]byte
	for len(out) < max {
		if err := p.pfFilter(pf.OpSocketRecv, pfObj{conn: f.Conn}, NrRecvmmsg); err != nil {
			if len(out) > 0 {
				return out, nil
			}
			return nil, err
		}
		data, err := f.Conn.Recv(per)
		if err != nil {
			if len(out) > 0 {
				return out, nil
			}
			return nil, err
		}
		if len(data) == 0 {
			break
		}
		out = append(out, data)
	}
	return out, nil
}

// ErrWouldBlock and friends are re-exported so callers need not import the
// ipc package to classify data-plane errors.
var (
	ErrWouldBlock = ipc.ErrWouldBlock
	ErrPeerClosed = ipc.ErrPeerClosed
)

// IsWouldBlock reports whether err is the non-blocking "try again" error.
func IsWouldBlock(err error) bool { return errors.Is(err, ipc.ErrWouldBlock) }
