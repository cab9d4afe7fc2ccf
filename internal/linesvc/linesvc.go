// Package linesvc is the line service under the in-world daemons (policyd,
// the trace span relay). A server admits connections on an abstract socket,
// answers each line through a handler, broadcasts pushed lines and reaps
// closed peers; a client dials it and reads lines. Both wait on ipc
// readiness, never sleeping, so an idle service issues no syscalls. Each
// end owns one muted process driven by one goroutine (single-flow).
package linesvc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"pfirewall/internal/kernel"
	"pfirewall/internal/mac"
)

// MaxLine caps every line either end reads. A large worldgen reload is
// about 261 KB and a 10k-rule base about 868 KB.
const MaxLine = 4 << 20

// admitLine is sent on accept; Dial returns only after reading it, so a
// dialed client gets every later broadcast.
const admitLine = `{"admitted":true}`

// Errors of Dial, ReadLine and the line cap.
var (
	ErrTimeout     = errors.New("linesvc: line read timed out")
	ErrLineTooLong = fmt.Errorf("linesvc: line exceeds %d bytes", MaxLine)
	ErrNotAdmitted = errors.New("linesvc: server did not admit the connection")
)

// A Handler answers one line, or ErrLineTooLong (with no line) before the
// service closes a connection past MaxLine. A nil reply sends nothing.
type Handler func(line []byte, err error) (reply []byte)

// Lines frames a byte stream into lines of at most MaxLine bytes.
type Lines struct{ buf []byte }

func (l *Lines) room() int { return MaxLine + 1 - len(l.buf) }

// next cuts the next complete line, failing once the cap is passed.
func (l *Lines) next() ([]byte, bool, error) {
	line, rest, ok := bytes.Cut(l.buf, []byte{'\n'})
	switch {
	case ok:
		l.buf = rest
		return line, true, nil
	case len(l.buf) > MaxLine:
		return nil, false, ErrLineTooLong
	}
	return nil, false, nil
}

// Answer adds data, answers each complete line through handle and passes
// each reply, newline-terminated, to send. False means the connection
// must close: a send failed or the line cap was passed.
func (l *Lines) Answer(data []byte, handle Handler, send func([]byte) bool) bool {
	l.buf = append(l.buf, data...)
	for {
		line, ok, err := l.next()
		if !ok && err == nil {
			return true
		}
		reply := handle(line, err)
		if sent := reply == nil || send(append(reply, '\n')); !sent || err != nil {
			return false
		}
	}
}

func newProc(k *kernel.Kernel, label mac.Label) *kernel.Proc {
	p := k.NewProc(kernel.ProcSpec{UID: 0, Label: label})
	if t := k.Tracer(); t != nil {
		t.Mute(p.PID())
	}
	return p
}

// Server is a running line service.
type Server struct {
	proc         *kernel.Proc
	lfd          int
	handle       Handler
	admit, ready chan struct{} // listener queued; a connection readable
	stop, done   chan struct{}
	once         sync.Once
}

type conn struct {
	fd int
	in Lines
}

// Serve binds the abstract socket name for a new process labelled label and
// serves until Close or until push closes. Each pushed value is encoded and
// broadcast (a nil encoding is skipped); a nil push never fires.
func Serve[T any](k *kernel.Kernel, name string, label mac.Label, handle Handler, push <-chan T, encode func(T) []byte) (*Server, error) {
	s := &Server{proc: newProc(k, label), handle: handle,
		admit: make(chan struct{}, 1), ready: make(chan struct{}, 1),
		stop: make(chan struct{}), done: make(chan struct{})}
	var err error
	if s.lfd, err = s.proc.BindAbstract(name); err == nil {
		err = s.proc.Listen(s.lfd, 16)
	}
	if err == nil {
		err = s.proc.Notify(s.lfd, s.admit)
	}
	if err != nil {
		_ = s.proc.Close(s.lfd) // release the name (lfd is -1 if the bind failed)
		return nil, err
	}
	go serve(s, push, encode)
	return s, nil
}

// PID returns the server process's pid.
func (s *Server) PID() int { return s.proc.PID() }

// Close stops the service, closes every connection and waits for the loop.
func (s *Server) Close() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

func serve[T any](s *Server, push <-chan T, encode func(T) []byte) {
	var conns []*conn
	defer func() {
		s.reap(conns, func(*conn) bool { return false })
		_ = s.proc.Close(s.lfd)
		close(s.done)
	}()
	for {
		select {
		case <-s.stop:
			return
		case <-s.admit:
			conns = s.accept(conns)
		case <-s.ready:
			conns = s.reap(conns, s.read)
		case v, ok := <-push:
			if !ok {
				return
			}
			if line := encode(v); line != nil {
				line = append(line, '\n')
				conns = s.reap(conns, func(c *conn) bool { return s.send(c.fd, line) })
			}
		}
	}
}

// accept admits one queued connection; level-triggered readiness brings
// the next. Admission is the last syscall, so once Dial returns it is idle.
func (s *Server) accept(conns []*conn) []*conn {
	fd, err := s.proc.Accept(s.lfd)
	if err != nil {
		return conns
	}
	if s.proc.Notify(fd, s.ready) != nil || !s.send(fd, []byte(admitLine+"\n")) {
		_ = s.proc.Close(fd)
		return conns
	}
	return append(conns, &conn{fd: fd})
}

// read reads c once and answers its complete lines; false means c closes.
func (s *Server) read(c *conn) bool {
	data, err := s.proc.Recv(c.fd, c.in.room())
	return c.in.Answer(data, s.handle, func(line []byte) bool { return s.send(c.fd, line) }) &&
		(err == nil || kernel.IsWouldBlock(err))
}

// send writes one line (dropped if the stream is full); false: peer gone.
func (s *Server) send(fd int, line []byte) bool {
	_, err := s.proc.Send(fd, line)
	return err == nil || kernel.IsWouldBlock(err)
}

// reap keeps the connections for which ok holds and closes the rest.
func (s *Server) reap(conns []*conn, ok func(*conn) bool) []*conn {
	live := conns[:0]
	for _, c := range conns {
		if ok(c) {
			live = append(live, c)
		} else {
			_ = s.proc.Close(c.fd)
		}
	}
	return live
}

// Client is one connection, used from one goroutine at a time. Proc and Fd
// are its process and socket; raw sends must frame whole lines.
type Client struct {
	Proc *kernel.Proc
	Fd   int
	wake chan struct{}
	in   Lines
}

// Dial connects a fresh process labelled label to the service at the
// abstract name and returns once the server has admitted it (within 5 s).
func Dial(k *kernel.Kernel, name string, label mac.Label) (*Client, error) {
	c := &Client{Proc: newProc(k, label), wake: make(chan struct{}, 1)}
	var err error
	if c.Fd, err = c.Proc.ConnectAbstract(name); err == nil {
		err = c.Proc.Notify(c.Fd, c.wake)
	}
	if err != nil {
		return nil, err
	}
	line, err := c.ReadLine(5 * time.Second)
	if err == nil && string(line) != admitLine {
		err = ErrNotAdmitted
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// ReadLine returns the next line without its newline, waiting up to
// timeout; once the stream closes it returns the transport error.
func (c *Client) ReadLine(timeout time.Duration) ([]byte, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		if line, ok, err := c.in.next(); ok || err != nil {
			return line, err
		}
		data, err := c.Proc.Recv(c.Fd, c.in.room())
		c.in.buf = append(c.in.buf, data...)
		if err == nil {
			continue
		}
		if !kernel.IsWouldBlock(err) {
			return nil, err
		}
		select {
		case <-c.wake:
		case <-timer.C:
			return nil, ErrTimeout
		}
	}
}

// Close closes the client's connection.
func (c *Client) Close() { _ = c.Proc.Close(c.Fd) }
