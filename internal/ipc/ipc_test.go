package ipc

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func reg() *Registry { return NewRegistry() }

var (
	root = Cred{PID: 1, UID: 0, GID: 0}
	user = Cred{PID: 2, UID: 1000, GID: 1000}
)

func TestAbstractBindConflictAndSquatWindow(t *testing.T) {
	r := reg()
	l, err := r.BindAbstract("bus", 1, root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.BindAbstract("bus", 1, user); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("second bind: %v, want ErrAddrInUse", err)
	}
	l.Close()
	// The squat window: the moment the owner closes, anyone can rebind.
	squat, err := r.BindAbstract("bus", 1, user)
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	got, ok := r.LookupAbstract("bus")
	if !ok || got != squat {
		t.Error("lookup should resolve to the squatter's listener")
	}
	if got.Owner() != user {
		t.Errorf("owner = %+v, want the squatter", got.Owner())
	}
}

func TestPortBindReuseSemantics(t *testing.T) {
	r := reg()
	l, err := r.BindPort(631, 1, root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.BindPort(631, 1, user); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("conflicting bind: %v, want ErrAddrInUse", err)
	}
	l.Close()
	if _, err := r.BindPort(631, 1, user); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestConnectRequiresListen(t *testing.T) {
	r := reg()
	l, _ := r.BindAbstract("svc", 1, root)
	if _, err := r.Connect(l, user); !errors.Is(err, ErrRefused) {
		t.Fatalf("connect before listen: %v, want ErrRefused", err)
	}
	l.Listen(1)
	if _, err := r.Connect(l, user); err != nil {
		t.Fatalf("connect after listen: %v", err)
	}
}

func TestBacklogBound(t *testing.T) {
	r := reg()
	l, _ := r.BindPort(80, 1, root)
	l.Listen(2)
	for i := 0; i < 2; i++ {
		if _, err := r.Connect(l, user); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Connect(l, user); !errors.Is(err, ErrRefused) {
		t.Fatalf("overfull backlog: %v, want ErrRefused", err)
	}
	if _, err := l.Accept(); err != nil {
		t.Fatal(err)
	}
	// Draining one slot reopens the backlog.
	if _, err := r.Connect(l, user); err != nil {
		t.Fatalf("connect after drain: %v", err)
	}
}

func TestPeerCredsAndDataPlane(t *testing.T) {
	r := reg()
	l, _ := r.BindAbstract("echo", 1, root)
	l.Listen(4)
	client, err := r.Connect(l, user)
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if server.PeerCred() != user || client.PeerCred() != root {
		t.Errorf("peer creds: server sees %+v, client sees %+v", server.PeerCred(), client.PeerCred())
	}

	if _, err := client.Send([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	client.Send([]byte("world"))
	// Partial reads preserve stream order across separate sends.
	a, err := server.Recv(6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := server.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(a, b...); !bytes.Equal(got, []byte("hello world")) {
		t.Errorf("recv = %q, want %q", got, "hello world")
	}
	// Full duplex: the server can talk back on the same stream.
	server.Send([]byte("ack"))
	if got, err := client.Recv(0); err != nil || string(got) != "ack" {
		t.Errorf("client recv = %q, %v", got, err)
	}
}

func TestRecvDrainsBufferAfterPeerClose(t *testing.T) {
	r := reg()
	l, _ := r.BindPort(8080, 1, root)
	l.Listen(1)
	client, _ := r.Connect(l, user)
	server, _ := l.Accept()

	client.Send([]byte("last words"))
	client.Close()

	// Buffered bytes survive the close...
	got, err := server.Recv(0)
	if err != nil || string(got) != "last words" {
		t.Fatalf("recv = %q, %v", got, err)
	}
	// ...then the drained stream reports the peer gone.
	if _, err := server.Recv(0); !errors.Is(err, ErrPeerClosed) {
		t.Errorf("recv after drain: %v, want ErrPeerClosed", err)
	}
	if _, err := server.Send([]byte("x")); !errors.Is(err, ErrPeerClosed) {
		t.Errorf("send to closed peer: %v, want ErrPeerClosed", err)
	}
}

func TestRecvEmptyLivePeerWouldBlock(t *testing.T) {
	r := reg()
	l, _ := r.BindAbstract("q", 1, root)
	l.Listen(1)
	client, _ := r.Connect(l, user)
	server, _ := l.Accept()
	if _, err := server.Recv(0); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("empty recv: %v, want ErrWouldBlock", err)
	}
	_ = client
}

func TestListenerCloseResetsPending(t *testing.T) {
	r := reg()
	l, _ := r.BindAbstract("dead", 1, root)
	l.Listen(4)
	client, _ := r.Connect(l, user)
	l.Close()
	if _, err := client.Recv(0); !errors.Is(err, ErrPeerClosed) {
		t.Errorf("recv on reset conn: %v, want ErrPeerClosed", err)
	}
	if _, err := l.Accept(); !errors.Is(err, ErrClosed) {
		t.Errorf("accept on closed listener: %v, want ErrClosed", err)
	}
}

func TestFifoQueue(t *testing.T) {
	r := reg()
	id := r.NewFifo()
	q, ok := r.Fifo(id)
	if !ok {
		t.Fatal("fifo not registered")
	}
	if got := q.Pop(0); got != nil {
		t.Errorf("empty pop = %q", got)
	}
	q.Push([]byte("abc"))
	q.Push([]byte("def"))
	if got := q.Pop(4); string(got) != "abcd" {
		t.Errorf("pop(4) = %q", got)
	}
	if got := q.Pop(0); string(got) != "ef" {
		t.Errorf("pop rest = %q", got)
	}
	// Capacity bound.
	big := make([]byte, fifoMax+10)
	n, err := q.Push(big)
	if err != nil || n != fifoMax {
		t.Errorf("bounded push = %d, %v", n, err)
	}
	if _, err := q.Push([]byte("x")); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("push to full fifo: %v, want ErrWouldBlock", err)
	}
}

func TestRegistryIDsNeverRecycle(t *testing.T) {
	r := reg()
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		l, err := r.BindAbstract("n", 1, root)
		if err != nil {
			t.Fatal(err)
		}
		if seen[l.Meta().ID] {
			t.Fatalf("id %d recycled", l.Meta().ID)
		}
		seen[l.Meta().ID] = true
		l.Close()
	}
}

// TestConcurrentConnectAndBind exercises the snapshot-read tables and the
// per-listener backlog under -race: binds racing with lookups and connects.
func TestConcurrentConnectAndBind(t *testing.T) {
	r := reg()
	l, _ := r.BindAbstract("srv", 1, root)
	l.Listen(1 << 16)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got, ok := r.LookupAbstract("srv"); !ok || got != l {
					t.Error("lookup lost the listener")
					return
				}
				c, err := r.Connect(l, Cred{PID: 100 + g, UID: 1000, GID: 1000})
				if err != nil {
					t.Error(err)
					return
				}
				c.Send([]byte{byte(i)})
				c.Close()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.BindPort(uint16(1000+i), 1, root)
			r.NewFifo()
		}
	}()
	wg.Wait()

	accepted := 0
	for {
		c, err := l.Accept()
		if errors.Is(err, ErrWouldBlock) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		accepted++
		c.Close()
	}
	if accepted != 4*200 {
		t.Errorf("accepted %d connections, want 800", accepted)
	}
}

// pair connects a fresh client to a fresh listener and returns both ends.
func pair(t *testing.T, r *Registry, name string) (server, client *Conn) {
	t.Helper()
	l, err := r.BindAbstract(name, 1, root)
	if err != nil {
		t.Fatal(err)
	}
	l.Listen(1)
	if client, err = r.Connect(l, user); err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	return server, client
}

// TestStreamCapKeepsMessagesWhole: a Send that would take the peer's
// unread bytes past StreamMax queues nothing and reports ErrWouldBlock, so
// only whole messages are ever queued; once the peer drains, sends succeed
// again.
func TestStreamCapKeepsMessagesWhole(t *testing.T) {
	s, c := pair(t, reg(), "cap")
	if _, err := c.Send(make([]byte, StreamMax-10)); err != nil {
		t.Fatalf("send up to the cap: %v", err)
	}
	if n, err := c.Send(make([]byte, 20)); n != 0 || !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("send past the cap = %d, %v; want 0, ErrWouldBlock", n, err)
	}
	if _, err := c.Send(make([]byte, 10)); err != nil {
		t.Fatalf("send that exactly fills the cap: %v", err)
	}
	if _, err := c.Send([]byte{1}); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("send into a full stream: %v, want ErrWouldBlock", err)
	}
	got, err := s.Recv(0)
	if err != nil || len(got) != StreamMax {
		t.Fatalf("peer read %d bytes (%v), want exactly %d", len(got), err, StreamMax)
	}
	if _, err := c.Send(make([]byte, StreamMax)); err != nil {
		t.Fatalf("send after the peer drained: %v", err)
	}
}

// expectSignals checks that ch holds exactly want pending signals (0 or 1:
// signals coalesce).
func expectSignals(t *testing.T, ch chan struct{}, want int, what string) {
	t.Helper()
	got := 0
	for {
		select {
		case <-ch:
			got++
			continue
		default:
		}
		break
	}
	if got != want {
		t.Fatalf("%s: %d signals, want %d", what, got, want)
	}
}

// TestNotifyLevelTriggered: a registered channel is signalled while a
// listener has queued connections or a stream endpoint has bytes or a
// closed peer, including after an Accept or Recv that leaves it ready, and
// never otherwise.
func TestNotifyLevelTriggered(t *testing.T) {
	r := reg()
	l, _ := r.BindAbstract("wake", 1, root)
	l.Listen(4)
	lw := make(chan struct{}, 1)
	l.Notify(lw)
	expectSignals(t, lw, 0, "idle listener")
	c1, _ := r.Connect(l, user)
	r.Connect(l, user)
	expectSignals(t, lw, 1, "two queued connections")
	s1, _ := l.Accept()
	expectSignals(t, lw, 1, "accept leaving one queued")
	l.Accept()
	expectSignals(t, lw, 0, "accept emptying the backlog")

	sw := make(chan struct{}, 1)
	c1.Send([]byte("ab"))
	s1.Notify(sw)
	expectSignals(t, sw, 1, "registering with bytes pending")
	s1.Recv(1)
	expectSignals(t, sw, 1, "partial read")
	s1.Recv(1)
	expectSignals(t, sw, 0, "draining read")
	s1.Send([]byte("to the client"))
	expectSignals(t, sw, 0, "own send")
	c1.Close()
	expectSignals(t, sw, 1, "peer close")
}
