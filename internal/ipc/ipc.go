// Package ipc implements the kernel's socket and IPC substrate: rendezvous
// namespaces (filesystem socket inodes, the abstract socket namespace, and a
// TCP-like port space), listeners with bounded accept backlogs, connected
// duplex byte streams with peer credentials captured at connect time, and
// the non-blocking byte queues behind FIFOs.
//
// The namespaces are the attack surface the paper's squatting rows target
// (Table 1, CWE-283): a name an adversary can bind before — or rebind after
// — the victim is a rendezvous the victim cannot trust. The subsystem
// deliberately reproduces the permissive POSIX semantics (abstract names are
// first-come-first-served; ports are rebindable the moment the previous
// listener closes, the SO_REUSEADDR squat window) so the Process Firewall
// layered above it has something real to defend.
//
// Concurrency follows the PR-1 discipline: namespace tables are published as
// immutable snapshots behind atomic pointers, so the lookup path (every
// connect) takes no lock; binds copy-on-write under a writer mutex. Listener
// backlogs and stream buffers are fine-grained: one mutex per listener, one
// per connected pair. Nothing blocks: a waiter registers a channel (Notify),
// signalled while the endpoint is ready (even after an Accept or Recv).
package ipc

import (
	"errors"
	"maps"
	"strconv"
	"sync"
	"sync/atomic"

	"pfirewall/internal/mac"
	"pfirewall/internal/obs"
)

// Stats counts registry activity with sharded atomics (always on; the
// observability layer samples them at export time). Listeners, streams,
// and FIFO queues carry a backpointer so the counting happens where the
// event happens without threading a registry through every call.
type Stats struct {
	BindsFile     obs.Counter
	BindsAbstract obs.Counter
	BindsPort     obs.Counter
	Connects      obs.Counter
	BacklogDrops  obs.Counter // connects refused because the backlog was full
	StreamBytes   obs.Counter // bytes queued through connected streams
	FifoBytes     obs.Counter // bytes queued through FIFO queues
}

// Errors mirroring the errno a real kernel would return.
var (
	// ErrAddrInUse: the name or port has a live listener (EADDRINUSE).
	ErrAddrInUse = errors.New("address already in use")
	// ErrRefused: no live listener is accepting at the address, or its
	// backlog is full (ECONNREFUSED).
	ErrRefused = errors.New("connection refused")
	// ErrWouldBlock: the non-blocking operation cannot proceed yet: nothing
	// to deliver, or no room to queue (EAGAIN/EWOULDBLOCK).
	ErrWouldBlock = errors.New("operation would block")
	// ErrPeerClosed: the other endpoint is gone and the stream is drained
	// (EPIPE on send, EOF on receive).
	ErrPeerClosed = errors.New("peer closed")
	// ErrClosed: the endpoint itself was already closed (EBADF-adjacent).
	ErrClosed = errors.New("endpoint closed")
	// ErrNotListening: Accept on a socket that never called Listen (EINVAL).
	ErrNotListening = errors.New("socket is not listening")
)

// Cred is a peer credential triple, the SO_PEERCRED payload. It is captured
// when the connection pair is created, not when it is queried — exactly the
// binding a PEER_CRED firewall rule needs to be squat-proof.
type Cred struct {
	PID, UID, GID int
}

// NS identifies the rendezvous namespace a socket lives in.
type NS uint8

// Namespaces.
const (
	NSFile     NS = iota // filesystem socket inode
	NSAbstract           // string-keyed abstract namespace, no inode
	NSPort               // TCP-like uint16 port space
)

// String returns the rule-language spelling used by the SOCK_NS match.
func (ns NS) String() string {
	switch ns {
	case NSAbstract:
		return "abstract"
	case NSPort:
		return "port"
	default:
		return "fs"
	}
}

// ParseNS parses a SOCK_NS spelling.
func ParseNS(s string) (NS, bool) {
	switch s {
	case "fs", "file":
		return NSFile, true
	case "abstract":
		return NSAbstract, true
	case "port":
		return NSPort, true
	}
	return NSFile, false
}

// Meta is the identity of a rendezvous point, shared by its listener and
// every connection accepted through it. ID is registry-assigned and never
// recycled, so it stays unambiguous across inode-number reuse (the
// cryogenic-sleep aliasing games of paper Section 2.1 cannot forge it).
type Meta struct {
	NS   NS
	Key  string  // abstract name, or filesystem path at bind time
	Port uint16  // NSPort only
	ID   uint64  // registry id; unique for the registry's lifetime
	SID  mac.SID // MAC label of the rendezvous resource
	// Display is the namespace-qualified printable name ("@name" for
	// abstract, ":port" for ports, the path otherwise), precomputed at bind
	// time so per-message mediation never formats strings.
	Display string
}

// Listener is a bound socket endpoint. It is created by a bind, starts
// accepting after Listen, and queues at most its backlog of pending
// connections.
type Listener struct {
	meta  Meta
	owner Cred
	stats *Stats // owning registry's counters; may be nil in isolation

	mu        sync.Mutex
	listening bool
	maxQueue  int
	queue     []*Conn
	closed    bool
	wake      chan<- struct{} // signalled while connections are queued
}

// Meta returns the listener's identity.
func (l *Listener) Meta() Meta { return l.meta }

// Owner returns the credential captured at bind time.
func (l *Listener) Owner() Cred { return l.owner }

// Listen starts accepting with the given backlog bound (minimum 1).
func (l *Listener) Listen(backlog int) error {
	if backlog < 1 {
		backlog = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.listening = true
	l.maxQueue = backlog
	return nil
}

// Closed reports whether the listener has been closed.
func (l *Listener) Closed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Notify registers ch to be signalled while connections are queued.
func (l *Listener) Notify(ch chan<- struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.wake = ch
	if len(l.queue) > 0 {
		signal(ch)
	}
}

// Accept pops the oldest pending connection. It never blocks: an empty
// backlog returns ErrWouldBlock.
func (l *Listener) Accept() (*Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if !l.listening {
		return nil, ErrNotListening
	}
	if len(l.queue) == 0 {
		return nil, ErrWouldBlock
	}
	c := l.queue[0]
	l.queue = l.queue[1:]
	if len(l.queue) > 0 {
		signal(l.wake)
	}
	return c, nil
}

// Close shuts the listener down. Pending (never-accepted) connections are
// reset so their clients observe ErrPeerClosed, and the name becomes
// rebindable — the SO_REUSEADDR squat window the exploits exercise.
func (l *Listener) Close() {
	l.mu.Lock()
	pending := l.queue
	l.queue = nil
	l.closed = true
	l.listening = false
	l.mu.Unlock()
	for _, c := range pending {
		c.Close()
	}
}

// connect creates the duplex pair and enqueues the server side, enforcing
// the backlog bound. The client credential is snapshotted here.
func (l *Listener) connect(client Cred) (*Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || !l.listening {
		return nil, ErrRefused
	}
	if len(l.queue) >= l.maxQueue {
		if l.stats != nil {
			l.stats.BacklogDrops.Add(client.PID, 1)
		}
		return nil, ErrRefused // backlog full; a real stack may also EAGAIN
	}
	server, clientEnd := newPair(l.meta, l.owner, client, l.stats)
	l.queue = append(l.queue, server)
	signal(l.wake)
	if l.stats != nil {
		l.stats.Connects.Add(client.PID, 1)
	}
	return clientEnd, nil
}

// StreamMax bounds one direction's unread bytes, above the line service's
// 4 MiB line cap: a slow reader costs its writer whole messages, not memory.
const StreamMax = 8 << 20

// signal wakes a waiter without blocking; an unconsumed signal absorbs
// this one, and a nil channel is never ready.
func signal(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// pairState is the shared half of a connected pair: one mutex guards both
// directions, which keeps send/recv single-lock and deadlock-free.
type pairState struct {
	mu     sync.Mutex
	buf    [2][]byte          // buf[i] holds bytes waiting to be read by endpoint i
	wake   [2]chan<- struct{} // wake[i] is signalled while endpoint i is readable
	closed [2]bool
}

// rearm signals endpoint end's waiter while it has bytes or a closed peer.
func (ps *pairState) rearm(end int) {
	if len(ps.buf[end]) > 0 || ps.closed[1-end] {
		signal(ps.wake[end])
	}
}

// Conn is one endpoint of a connected stream.
type Conn struct {
	pair  *pairState
	end   int // index into pair arrays
	meta  Meta
	stats *Stats // owning registry's counters; may be nil in isolation

	local, remote Cred
}

// newPair builds a connected (server, client) endpoint pair.
func newPair(meta Meta, server, client Cred, stats *Stats) (*Conn, *Conn) {
	ps := &pairState{}
	s := &Conn{pair: ps, end: 0, meta: meta, stats: stats, local: server, remote: client}
	c := &Conn{pair: ps, end: 1, meta: meta, stats: stats, local: client, remote: server}
	return s, c
}

// Meta returns the identity of the rendezvous this stream came from.
func (c *Conn) Meta() Meta { return c.meta }

// PeerCred returns the other endpoint's credential — SO_PEERCRED, as
// captured when the pair was created.
func (c *Conn) PeerCred() Cred { return c.remote }

// Notify registers ch to be signalled while this endpoint has bytes to
// read or a closed peer.
func (c *Conn) Notify(ch chan<- struct{}) {
	ps := c.pair
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.wake[c.end] = ch
	ps.rearm(c.end)
}

// Send queues data for the peer. It never blocks; sending on a closed
// endpoint or to a closed peer fails, and data that would take the peer's
// unread bytes past StreamMax is not queued at all (ErrWouldBlock).
func (c *Conn) Send(data []byte) (int, error) {
	ps := c.pair
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed[c.end] {
		return 0, ErrClosed
	}
	if ps.closed[1-c.end] {
		return 0, ErrPeerClosed
	}
	if len(ps.buf[1-c.end])+len(data) > StreamMax {
		return 0, ErrWouldBlock
	}
	ps.buf[1-c.end] = append(ps.buf[1-c.end], data...)
	ps.rearm(1 - c.end)
	if c.stats != nil {
		c.stats.StreamBytes.Add(c.local.PID, uint64(len(data)))
	}
	return len(data), nil
}

// Recv takes up to n bytes (all buffered bytes when n <= 0). Buffered data
// is delivered even after the peer closes; only a drained stream with a
// closed peer reports ErrPeerClosed, and an empty stream with a live peer
// reports ErrWouldBlock.
func (c *Conn) Recv(n int) ([]byte, error) {
	ps := c.pair
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed[c.end] {
		return nil, ErrClosed
	}
	buf := ps.buf[c.end]
	if len(buf) == 0 {
		if ps.closed[1-c.end] {
			return nil, ErrPeerClosed
		}
		return nil, ErrWouldBlock
	}
	if n <= 0 || n > len(buf) {
		n = len(buf)
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	ps.buf[c.end] = buf[n:]
	ps.rearm(c.end)
	return out, nil
}

// Close shuts this endpoint down; the peer keeps its buffered bytes.
func (c *Conn) Close() {
	c.pair.mu.Lock()
	c.pair.closed[c.end] = true
	c.pair.buf[c.end] = nil
	c.pair.rearm(1 - c.end)
	c.pair.mu.Unlock()
}

// fifoMax bounds a FIFO's buffered bytes, like a pipe's capacity.
const fifoMax = 1 << 16

// Queue is the byte queue behind a FIFO inode: many writers, many readers,
// never blocking.
type Queue struct {
	id    uint64 // registry id; sharding key for byte counting
	stats *Stats // owning registry's counters; may be nil in isolation

	mu  sync.Mutex
	buf []byte
}

// Push appends data, bounded by the pipe capacity.
func (q *Queue) Push(data []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	room := fifoMax - len(q.buf)
	if room <= 0 {
		return 0, ErrWouldBlock
	}
	if len(data) > room {
		data = data[:room]
	}
	q.buf = append(q.buf, data...)
	if q.stats != nil {
		q.stats.FifoBytes.Add(int(q.id), uint64(len(data)))
	}
	return len(data), nil
}

// Pop removes up to n bytes (everything when n <= 0); an empty queue
// returns no data and no error, like a non-blocking pipe read with no
// writer.
func (q *Queue) Pop(n int) []byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.buf) == 0 {
		return nil
	}
	if n <= 0 || n > len(q.buf) {
		n = len(q.buf)
	}
	out := make([]byte, n)
	copy(out, q.buf[:n])
	q.buf = q.buf[n:]
	return out
}

// Len returns the number of buffered bytes.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// Registry owns the three rendezvous namespaces and the FIFO queue table.
// All four tables are copy-on-write maps behind atomic pointers: the
// connect/lookup path is lock-free, mutation serializes on mu.
type Registry struct {
	// Stats is the registry's activity accounting, read by the
	// observability exporter.
	Stats Stats

	mu     sync.Mutex
	nextID atomic.Uint64

	abstract atomic.Pointer[map[string]*Listener]
	ports    atomic.Pointer[map[uint16]*Listener]
	files    atomic.Pointer[map[uint64]*Listener] // registry id -> listener
	fifos    atomic.Pointer[map[uint64]*Queue]    // registry id -> queue
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.abstract.Store(&map[string]*Listener{})
	r.ports.Store(&map[uint16]*Listener{})
	r.files.Store(&map[uint64]*Listener{})
	r.fifos.Store(&map[uint64]*Queue{})
	return r
}

// store publishes a copy of the table at p with k set to v; the caller
// holds r.mu.
func store[K comparable, V any](p *atomic.Pointer[map[K]V], k K, v V) {
	next := maps.Clone(*p.Load())
	next[k] = v
	p.Store(&next)
}

// newListener allocates a listener with a fresh, never-recycled id.
func (r *Registry) newListener(ns NS, key string, port uint16, sid mac.SID, owner Cred) *Listener {
	m := Meta{NS: ns, Key: key, Port: port, ID: r.nextID.Add(1), SID: sid}
	switch ns {
	case NSAbstract:
		m.Display = "@" + key
	case NSPort:
		m.Display = ":" + strconv.Itoa(int(port))
	default:
		m.Display = key
	}
	return &Listener{
		meta:  m,
		owner: owner,
		stats: &r.Stats,
	}
}

// BindFile registers a listener for a filesystem socket. The caller stores
// the returned listener's Meta().ID on the inode; path and label are carried
// for rule matching. Name conflicts are the filesystem's business (the inode
// either exists or it doesn't), so BindFile never fails.
func (r *Registry) BindFile(path string, sid mac.SID, owner Cred) *Listener {
	l := r.newListener(NSFile, path, 0, sid, owner)
	r.Stats.BindsFile.Add(owner.PID, 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	store(&r.files, l.meta.ID, l)
	return l
}

// FileListener resolves a filesystem socket's registry id.
func (r *Registry) FileListener(id uint64) (*Listener, bool) {
	l, ok := (*r.files.Load())[id]
	return l, ok
}

// BindAbstract claims a name in the abstract namespace. A live (unclosed)
// listener blocks the bind with ErrAddrInUse; a closed one is silently
// replaced — first-come-first-served, the classic squat surface.
func (r *Registry) BindAbstract(name string, sid mac.SID, owner Cred) (*Listener, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := (*r.abstract.Load())[name]; ok && !prev.Closed() {
		return nil, ErrAddrInUse
	}
	l := r.newListener(NSAbstract, name, 0, sid, owner)
	r.Stats.BindsAbstract.Add(owner.PID, 1)
	store(&r.abstract, name, l)
	return l, nil
}

// LookupAbstract resolves an abstract name. Closed listeners are returned
// too; the caller decides how a dangling rendezvous fails.
func (r *Registry) LookupAbstract(name string) (*Listener, bool) {
	l, ok := (*r.abstract.Load())[name]
	return l, ok
}

// BindPort claims a TCP-like port. Semantics mirror SO_REUSEADDR hosts: the
// port conflicts only while its current listener is open, so the instant a
// daemon closes (or dies), the port is up for grabs.
func (r *Registry) BindPort(port uint16, sid mac.SID, owner Cred) (*Listener, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := (*r.ports.Load())[port]; ok && !prev.Closed() {
		return nil, ErrAddrInUse
	}
	l := r.newListener(NSPort, "", port, sid, owner)
	r.Stats.BindsPort.Add(owner.PID, 1)
	store(&r.ports, port, l)
	return l, nil
}

// LookupPort resolves a port.
func (r *Registry) LookupPort(port uint16) (*Listener, bool) {
	l, ok := (*r.ports.Load())[port]
	return l, ok
}

// Connect establishes a client connection to l, snapshotting the client
// credential into the pair (SO_PEERCRED).
func (r *Registry) Connect(l *Listener, client Cred) (*Conn, error) {
	return l.connect(client)
}

// NewFifo allocates the byte queue behind a new FIFO inode and returns its
// registry id.
func (r *Registry) NewFifo() uint64 {
	id := r.nextID.Add(1)
	q := &Queue{id: id, stats: &r.Stats}
	r.mu.Lock()
	defer r.mu.Unlock()
	store(&r.fifos, id, q)
	return id
}

// Fifo resolves a FIFO queue by registry id.
func (r *Registry) Fifo(id uint64) (*Queue, bool) {
	q, ok := (*r.fifos.Load())[id]
	return q, ok
}
