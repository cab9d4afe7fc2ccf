package kernel

import (
	"bytes"
	"errors"
	"testing"

	"pfirewall/internal/ipc"
	"pfirewall/internal/pf"
	"pfirewall/internal/vfs"
)

// echo runs a connect/send/accept/recv round trip between client and
// server over the given descriptors and checks the bytes arrive intact.
func echo(t *testing.T, server *Proc, sfd int, client *Proc, cfd int, msg string) {
	t.Helper()
	if _, err := client.Send(cfd, []byte(msg)); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := server.Recv(sfd, 0)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !bytes.Equal(got, []byte(msg)) {
		t.Fatalf("recv = %q, want %q", got, msg)
	}
}

func TestFilesystemSocketRendezvous(t *testing.T) {
	k := newWorld(t)
	srv := newRoot(k, "dbusd_t", "/bin/dbus-daemon")
	lfd, err := srv.Bind("/var/run/dbus/system_bus_socket", 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(lfd, 4); err != nil {
		t.Fatal(err)
	}
	client := newRoot(k, "httpd_t", "/usr/bin/apache2")
	cfd, err := client.Connect("/var/run/dbus/system_bus_socket")
	if err != nil {
		t.Fatal(err)
	}
	sfd, err := srv.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	echo(t, srv, sfd, client, cfd, "hello over fs")
	echo(t, client, cfd, srv, sfd, "and back")
}

func TestAbstractSocketRendezvous(t *testing.T) {
	k := newWorld(t)
	srv := newRoot(k, "dbusd_t", "/bin/dbus-daemon")
	lfd, err := srv.BindAbstract("session_bus")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(lfd, 4); err != nil {
		t.Fatal(err)
	}
	client := newUser(k)
	cfd, err := client.ConnectAbstract("session_bus")
	if err != nil {
		t.Fatal(err)
	}
	sfd, err := srv.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	echo(t, srv, sfd, client, cfd, "abstract bytes")
}

func TestPortSocketRendezvous(t *testing.T) {
	k := newWorld(t)
	srv := newRoot(k, "httpd_t", "/usr/bin/apache2")
	lfd, err := srv.BindPort(8080)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(lfd, 4); err != nil {
		t.Fatal(err)
	}
	client := newUser(k)
	cfd, err := client.ConnectPort(8080)
	if err != nil {
		t.Fatal(err)
	}
	sfd, err := srv.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	echo(t, srv, sfd, client, cfd, "GET / HTTP/1.0")
	// read/write on a socket fd aliases recv/send.
	if _, err := srv.Write(sfd, []byte("200 OK")); err != nil {
		t.Fatal(err)
	}
	if got, err := client.Read(cfd, 0); err != nil || string(got) != "200 OK" {
		t.Fatalf("read on socket fd = %q, %v", got, err)
	}
}

func TestConnectDanglingSocketRefused(t *testing.T) {
	k := newWorld(t)
	owner := newRoot(k, "dbusd_t", "/bin/dbus-daemon")
	fd, err := owner.Bind("/var/run/dbus/system_bus_socket", 0o666)
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Listen(fd, 4); err != nil {
		t.Fatal(err)
	}
	// The owner dies; the socket inode remains in the filesystem but nobody
	// is behind it. Connecting must refuse, not hand out a dead descriptor.
	owner.Exit(0)
	if _, ok := k.LookupIno("/var/run/dbus/system_bus_socket"); !ok {
		t.Fatal("socket inode should linger after owner exit")
	}
	client := newRoot(k, "httpd_t", "/usr/bin/apache2")
	if _, err := client.Connect("/var/run/dbus/system_bus_socket"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("connect to dangling socket: %v, want ErrConnRefused", err)
	}
}

func TestConnectBeforeListenRefused(t *testing.T) {
	k := newWorld(t)
	srv := newRoot(k, "dbusd_t", "/bin/dbus-daemon")
	if _, err := srv.Bind("/var/run/dbus/system_bus_socket", 0o666); err != nil {
		t.Fatal(err)
	}
	client := newRoot(k, "httpd_t", "/usr/bin/apache2")
	if _, err := client.Connect("/var/run/dbus/system_bus_socket"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("connect before listen: %v, want ErrConnRefused", err)
	}
	if _, err := client.ConnectAbstract("nobody_home"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("connect to unbound abstract name: %v, want ErrConnRefused", err)
	}
	if _, err := client.ConnectPort(9); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("connect to unbound port: %v, want ErrConnRefused", err)
	}
}

func TestBacklogRefusesWhenFull(t *testing.T) {
	k := newWorld(t)
	srv := newRoot(k, "httpd_t", "/usr/bin/apache2")
	lfd, _ := srv.BindPort(80)
	if err := srv.Listen(lfd, 1); err != nil {
		t.Fatal(err)
	}
	client := newUser(k)
	if _, err := client.ConnectPort(80); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ConnectPort(80); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("overfull backlog: %v, want ErrConnRefused", err)
	}
}

func TestPeerCredsCapturedAtConnect(t *testing.T) {
	k := newWorld(t)
	srv := newRoot(k, "dbusd_t", "/bin/dbus-daemon")
	lfd, _ := srv.BindAbstract("bus")
	srv.Listen(lfd, 4)
	client := newUser(k)
	cfd, err := client.ConnectAbstract("bus")
	if err != nil {
		t.Fatal(err)
	}
	sfd, err := srv.Accept(lfd)
	if err != nil {
		t.Fatal(err)
	}
	sf := srv.fds[sfd]
	if c := sf.Conn.PeerCred(); c.UID != 1000 || c.PID != client.PID() {
		t.Errorf("server's peer cred = %+v, want the client's", c)
	}
	cf := client.fds[cfd]
	if c := cf.Conn.PeerCred(); c.UID != 0 || c.PID != srv.PID() {
		t.Errorf("client's peer cred = %+v, want the server's", c)
	}
}

func TestAbstractSquatWindowAfterExit(t *testing.T) {
	k := newWorld(t)
	daemon := newRoot(k, "dbusd_t", "/bin/dbus-daemon")
	lfd, err := daemon.BindAbstract("system_bus")
	if err != nil {
		t.Fatal(err)
	}
	daemon.Listen(lfd, 4)
	// While the daemon lives, the name is taken.
	adv := newUser(k)
	if _, err := adv.BindAbstract("system_bus"); !errors.Is(err, ipc.ErrAddrInUse) {
		t.Fatalf("bind over a live name: %v, want ErrAddrInUse", err)
	}
	daemon.Exit(0)
	// The moment it dies, anyone can squat the name — the attack surface
	// exploit E10 walks through.
	sfd, err := adv.BindAbstract("system_bus")
	if err != nil {
		t.Fatalf("squat after owner exit: %v", err)
	}
	if err := adv.Listen(sfd, 4); err != nil {
		t.Fatal(err)
	}
	victim := newRoot(k, "sshd_t", "/usr/sbin/sshd")
	cfd, err := victim.ConnectAbstract("system_bus")
	if err != nil {
		t.Fatalf("victim connect: %v", err)
	}
	vf := victim.fds[cfd]
	if c := vf.Conn.PeerCred(); c.UID != 1000 {
		t.Errorf("victim's peer uid = %d, want the squatter's 1000", c.UID)
	}
}

// pfWith builds an engine holding exactly the given rules, attached to k.
func pfWith(k *Kernel, rules ...*pf.Rule) {
	engine := pf.New(k.Policy, pf.Optimized())
	for _, r := range rules {
		engine.Append("input", r)
	}
	k.AttachPF(engine)
}

func TestPFBlocksEachSocketStep(t *testing.T) {
	type step struct {
		name string
		op   pf.Op
		run  func(t *testing.T, k *Kernel) error
	}
	// Each step builds a world where everything up to the mediated
	// operation succeeds, with a PF rule denying exactly that operation.
	steps := []step{
		{"listen", pf.OpSocketListen, func(t *testing.T, k *Kernel) error {
			srv := newRoot(k, "httpd_t", "/usr/bin/apache2")
			lfd, err := srv.BindPort(80)
			if err != nil {
				t.Fatal(err)
			}
			return srv.Listen(lfd, 4)
		}},
		{"accept", pf.OpSocketAccept, func(t *testing.T, k *Kernel) error {
			srv := newRoot(k, "httpd_t", "/usr/bin/apache2")
			lfd, _ := srv.BindPort(80)
			srv.Listen(lfd, 4)
			client := newUser(k)
			if _, err := client.ConnectPort(80); err != nil {
				t.Fatal(err)
			}
			_, err := srv.Accept(lfd)
			return err
		}},
		{"send", pf.OpSocketSend, func(t *testing.T, k *Kernel) error {
			srv := newRoot(k, "httpd_t", "/usr/bin/apache2")
			lfd, _ := srv.BindPort(80)
			srv.Listen(lfd, 4)
			client := newUser(k)
			cfd, err := client.ConnectPort(80)
			if err != nil {
				t.Fatal(err)
			}
			_, err = client.Send(cfd, []byte("x"))
			return err
		}},
		{"recv", pf.OpSocketRecv, func(t *testing.T, k *Kernel) error {
			srv := newRoot(k, "httpd_t", "/usr/bin/apache2")
			lfd, _ := srv.BindPort(80)
			srv.Listen(lfd, 4)
			client := newUser(k)
			cfd, err := client.ConnectPort(80)
			if err != nil {
				t.Fatal(err)
			}
			_, err = client.Recv(cfd, 0)
			return err
		}},
	}
	for _, s := range steps {
		t.Run(s.name, func(t *testing.T) {
			k := newWorld(t)
			pfWith(k, &pf.Rule{Ops: pf.NewOpSet(s.op), Target: pf.Drop()})
			if err := s.run(t, k); !errors.Is(err, ErrPFDenied) {
				t.Errorf("%s under deny rule: %v, want ErrPFDenied", s.name, err)
			}
		})
	}
}

func TestPFAcceptDenyResetsClient(t *testing.T) {
	k := newWorld(t)
	pfWith(k, &pf.Rule{Ops: pf.NewOpSet(pf.OpSocketAccept), Target: pf.Drop()})
	srv := newRoot(k, "httpd_t", "/usr/bin/apache2")
	lfd, _ := srv.BindPort(80)
	srv.Listen(lfd, 4)
	client := newUser(k)
	cfd, err := client.ConnectPort(80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Accept(lfd); !errors.Is(err, ErrPFDenied) {
		t.Fatalf("accept: %v, want ErrPFDenied", err)
	}
	// The denied connection must be reset, not left half-open.
	if _, err := client.Recv(cfd, 0); !errors.Is(err, ErrPeerClosed) {
		t.Errorf("client after denied accept: %v, want ErrPeerClosed", err)
	}
}

func TestPFPeerCredBlocksSquatterConnect(t *testing.T) {
	k := newWorld(t)
	// Abstract-namespace connects must be answered by root.
	pfWith(k, &pf.Rule{
		Ops: pf.NewOpSet(pf.OpSocketConnect),
		Matches: []pf.Match{
			&pf.SockNSMatch{NS: "abstract"},
			&pf.PeerCredMatch{UID: pf.Literal(0), Nequal: true},
		},
		Target: pf.Drop(),
	})
	daemon := newRoot(k, "dbusd_t", "/bin/dbus-daemon")
	lfd, _ := daemon.BindAbstract("bus")
	daemon.Listen(lfd, 4)
	victim := newRoot(k, "sshd_t", "/usr/sbin/sshd")
	if _, err := victim.ConnectAbstract("bus"); err != nil {
		t.Fatalf("connect to root daemon: %v", err)
	}
	daemon.Exit(0)
	adv := newUser(k)
	sfd, _ := adv.BindAbstract("bus")
	adv.Listen(sfd, 4)
	if _, err := victim.ConnectAbstract("bus"); !errors.Is(err, ErrPFDenied) {
		t.Fatalf("connect to squatter: %v, want ErrPFDenied", err)
	}
}

func TestFifoDataPlane(t *testing.T) {
	k := newWorld(t)
	user := newUser(k)
	if err := user.Mkfifo("/tmp/pipe", 0o666); err != nil {
		t.Fatal(err)
	}
	wfd, err := user.Open("/tmp/pipe", O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	rfd, err := user.Open("/tmp/pipe", O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := user.Write(wfd, []byte("through the pipe")); err != nil {
		t.Fatal(err)
	}
	got, err := user.Read(rfd, 0)
	if err != nil || string(got) != "through the pipe" {
		t.Fatalf("fifo read = %q, %v", got, err)
	}
	// A fifo is a byte queue: reading consumed the data.
	if got, _ := user.Read(rfd, 0); got != nil {
		t.Errorf("second read = %q, want empty", got)
	}
}

func TestSocketFdMisuse(t *testing.T) {
	k := newWorld(t)
	p := newRoot(k, "httpd_t", "/usr/bin/apache2")
	fd, err := p.Open("/etc/passwd", O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Listen(fd, 4); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("listen on a file: %v, want ErrInval", err)
	}
	if _, err := p.Accept(fd); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("accept on a file: %v, want ErrInval", err)
	}
	if _, err := p.Send(fd, []byte("x")); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("send on a file: %v, want ErrInval", err)
	}
	lfd, _ := p.BindPort(80)
	if _, err := p.Fstat(lfd); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("fstat on inode-less socket: %v, want ErrInval", err)
	}
	if err := p.Close(lfd); err != nil {
		t.Errorf("close listener: %v", err)
	}
}

// TestNotifyIsNotASyscall: registering readiness on a socket descriptor
// issues no syscall and is signalled by the peer's send; a descriptor that
// is not a socket is refused.
func TestNotifyIsNotASyscall(t *testing.T) {
	k := newWorld(t)
	srv := newRoot(k, "dbusd_t", "/bin/dbus-daemon")
	lfd, _ := srv.BindAbstract("notify")
	srv.Listen(lfd, 4)
	wake := make(chan struct{}, 1)
	n0 := k.SyscallCount.Load()
	if err := srv.Notify(lfd, wake); err != nil {
		t.Fatal(err)
	}
	if n := k.SyscallCount.Load() - n0; n != 0 {
		t.Fatalf("Notify issued %d syscalls", n)
	}
	client := newRoot(k, "httpd_t", "/usr/bin/apache2")
	if _, err := client.ConnectAbstract("notify"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wake:
	default:
		t.Fatal("queued connection did not signal the listener's channel")
	}
	fd, err := srv.Open("/etc/passwd", O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Notify(fd, wake); !errors.Is(err, vfs.ErrInval) {
		t.Errorf("notify on a file: %v, want ErrInval", err)
	}
	if err := srv.Notify(999, wake); !errors.Is(err, ErrBadFd) {
		t.Errorf("notify on a closed fd: %v, want ErrBadFd", err)
	}
}
