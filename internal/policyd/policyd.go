// Package policyd is the live policy control plane: a daemon that owns an
// engine's rule base and applies streamed updates — add/remove/replace
// batches, full reloads, rollbacks — as single hitless transactions, each
// gated through the pfcheck analyzer (and, with invariants armed, the
// pfverify refinement gate) before its publish commits.
//
// The protocol is JSON lines over the simulated kernel's own abstract-
// namespace sockets (dogfooding internal/ipc the way internal/trace
// streams spans): one Request line in, one Response line out, in order,
// per connection. Because every update rides pf.TransactionGated, the
// mediation path never observes a half-applied batch — readers keep
// filtering against the previous ruleset generation until the atomic
// pointer store, and a vetoed or failed batch publishes nothing at all.
//
// Concurrency: the server owns exactly one simulated process and issues
// all of its syscalls from the event-loop goroutine; clients each own a
// fresh process driven by the caller's goroutine. Both endpoints are muted
// on the tracer (when one is attached) so the control plane's own
// Send/Recv traffic does not pollute provenance streams.
package policyd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pf"
	"pfirewall/internal/pfcheck"
	"pfirewall/internal/pftables"
	"pfirewall/internal/pfverify"
)

// DefaultSocketName is the abstract-namespace rendezvous both pfctl and
// Serve default to.
const DefaultSocketName = "pfpolicy"

// policyLabel is the subject label of the control plane's endpoint
// processes. It appears in no shipped ruleset, so persona-targeted rules
// can never match the transport.
const policyLabel = "pfpolicyd_t"

// serverPoll bounds how long an idle server loop sleeps between accept and
// read polls.
const serverPoll = 500 * time.Microsecond

// maxRequestLine caps one request line in bytes. A client whose line grows
// past it without a newline gets an error response and loses the
// connection. A large worldgen reload is about 261 KB and a 10k-rule base
// about 868 KB, so the cap leaves room for any real batch.
const maxRequestLine = 4 << 20

// Request is one control-plane operation, a single JSON line.
type Request struct {
	// Op selects the operation: "apply", "rollback", "version", "ping".
	Op string `json:"op"`
	// Src names the batch for rule provenance and gate scoping ("apply").
	Src string `json:"src,omitempty"`
	// Lines is the pftables batch to apply atomically ("apply").
	Lines []string `json:"lines,omitempty"`
	// NoCheck skips the pfcheck gate for this batch ("apply").
	NoCheck bool `json:"no_check,omitempty"`
}

// Response answers one Request, a single JSON line.
type Response struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
	// Version and Rules describe the live ruleset after the operation.
	Version uint64 `json:"version"`
	Rules   int    `json:"rules"`
	// Findings carries the gate's error-class diagnostics when a batch was
	// vetoed (rendered compiler-style).
	Findings []string `json:"findings,omitempty"`
	// PublishNs is the wall time the apply spent inside the engine
	// transaction (parse + mutate + gate + compile + publish).
	PublishNs int64 `json:"publish_ns,omitempty"`
	// Incremental reports whether the publish took the delta-compile path
	// (bucket-level copy-on-write) rather than a from-scratch compile.
	Incremental bool `json:"incremental,omitempty"`
}

// errVetoed marks a gate rejection inside ApplyAllGated so the handler can
// distinguish it from parse/install errors.
var errVetoed = errors.New("policyd: batch vetoed by pfcheck gate")

// Server owns an engine's rule base and serves the control protocol.
type Server struct {
	k      *kernel.Kernel
	env    *pftables.Env
	engine *pf.Engine
	sym    *pfcheck.Symbols
	proc   *kernel.Proc
	lfd    int

	// verify, when set, is the pfverify refinement gate: a batch that
	// weakens an invariant the live generation satisfies is vetoed before
	// its publish commits. verifyVetoes counts those rejections.
	verify       func(*pf.Program) error
	verifyVetoes atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// SetInvariants arms the symbolic refinement gate: every subsequent apply
// must refine the live ruleset with respect to invs — an invariant the
// current generation satisfies must still hold under the candidate, or the
// batch is vetoed pre-publish with the regression witnesses as findings.
// Call before the first client applies; the slice is not copied. Each call
// builds a fresh pfverify.Gate, so a new invariant set never reuses the
// previous set's proof.
func (s *Server) SetInvariants(invs []*pfverify.Invariant) {
	s.verify = nil
	if len(invs) > 0 {
		s.verify = pfverify.Gate(s.engine, s.engine.Policy().SIDs(), invs)
	}
}

// VerifyVetoes reports how many applies the refinement gate rejected.
func (s *Server) VerifyVetoes() uint64 { return s.verifyVetoes.Load() }

// Serve binds an abstract socket named name (DefaultSocketName when empty)
// inside k's world and starts the control loop for engine. sym configures
// the pfcheck gate's symbol validation; nil skips symbol findings but
// keeps the reachability analysis.
func Serve(k *kernel.Kernel, env *pftables.Env, engine *pf.Engine, name string, sym *pfcheck.Symbols) (*Server, error) {
	if name == "" {
		name = DefaultSocketName
	}
	proc := k.NewProc(kernel.ProcSpec{UID: 0, Label: policyLabel})
	if t := k.Tracer(); t != nil {
		t.Mute(proc.PID())
	}
	lfd, err := proc.BindAbstract(name)
	if err != nil {
		return nil, err
	}
	if err := proc.Listen(lfd, 16); err != nil {
		return nil, err
	}
	s := &Server{
		k: k, env: env, engine: engine, sym: sym, proc: proc, lfd: lfd,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go s.loop()
	return s, nil
}

// Close stops the control loop and waits for it to unwind.
func (s *Server) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// conn is one client connection's server-side state.
type conn struct {
	fd  int
	buf []byte
}

// loop is the server's single flow: admit pending connections, drain each
// client's stream, answer every complete request line in order.
func (s *Server) loop() {
	defer close(s.done)
	var conns []*conn
	defer func() {
		for _, c := range conns {
			_ = s.proc.Close(c.fd)
		}
		_ = s.proc.Close(s.lfd)
	}()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		busy := false
		for {
			fd, err := s.proc.Accept(s.lfd)
			if err != nil {
				break
			}
			conns = append(conns, &conn{fd: fd})
			busy = true
		}
		live := conns[:0]
		for _, c := range conns {
			ok, progressed := s.drain(c)
			if !ok {
				_ = s.proc.Close(c.fd)
				continue
			}
			busy = busy || progressed
			live = append(live, c)
		}
		conns = live
		if !busy {
			time.Sleep(serverPoll)
		}
	}
}

// drain reads whatever c has buffered, up to one byte past the line cap,
// and answers each complete line. Returns ok=false when the connection is
// gone or must be closed.
func (s *Server) drain(c *conn) (ok, progressed bool) {
	data, err := s.proc.Recv(c.fd, maxRequestLine+1-len(c.buf))
	if len(data) > 0 {
		c.buf = append(c.buf, data...)
		progressed = true
	}
	if err != nil && !kernel.IsWouldBlock(err) {
		return false, progressed
	}
	for {
		i := bytes.IndexByte(c.buf, '\n')
		if i < 0 {
			if len(c.buf) > maxRequestLine {
				s.reply(c, s.status(false, fmt.Sprintf("policyd: request line exceeds %d bytes", maxRequestLine)))
				return false, progressed
			}
			return true, progressed
		}
		line := c.buf[:i]
		c.buf = c.buf[i+1:]
		if !s.reply(c, s.handle(line)) {
			return false, progressed
		}
	}
}

// reply sends one response line; false means the connection is gone.
func (s *Server) reply(c *conn, resp Response) bool {
	out, err := json.Marshal(resp)
	if err != nil {
		out = []byte(`{"ok":false,"err":"policyd: response marshal failed"}`)
	}
	out = append(out, '\n')
	_, err = s.proc.Send(c.fd, out)
	return err == nil || kernel.IsWouldBlock(err)
}

// handle executes one request line.
func (s *Server) handle(line []byte) Response {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return s.status(false, fmt.Sprintf("policyd: bad request: %v", err))
	}
	switch req.Op {
	case "ping", "version":
		return s.status(true, "")
	case "rollback":
		if _, err := s.engine.Rollback(); err != nil {
			return s.status(false, err.Error())
		}
		return s.status(true, "")
	case "apply":
		return s.apply(&req)
	default:
		return s.status(false, fmt.Sprintf("policyd: unknown op %q", req.Op))
	}
}

// status snapshots the live ruleset into a minimal response.
func (s *Server) status(ok bool, errMsg string) Response {
	return Response{
		OK:      ok,
		Err:     errMsg,
		Version: s.engine.Version(),
		Rules:   s.engine.RuleCount(),
	}
}

// apply runs one batch as a single gated transaction. The gate analyzes
// the candidate rule base and vetoes on error-class findings anchored in
// this batch's source — pre-existing defects elsewhere in the rule base
// never wedge the control plane.
func (s *Server) apply(req *Request) Response {
	src := req.Src
	if src == "" {
		src = "policyd"
	}
	var vetoes []string
	gate := func(prog *pf.Program) error {
		if req.NoCheck {
			return nil
		}
		rep := pfcheck.AnalyzeRuleset(s.engine.Policy().SIDs(), prog.Chains(), s.sym)
		for _, f := range rep.Findings {
			if f.Sev == pfcheck.SevError && f.Pos.File == src {
				vetoes = append(vetoes, f.String())
			}
		}
		if len(vetoes) > 0 {
			return errVetoed
		}
		if s.verify == nil {
			return nil
		}
		// Refinement gate: the candidate must not weaken any invariant the
		// live generation satisfies.
		var ref *pfverify.RefinementError
		if err := s.verify(prog); !errors.As(err, &ref) {
			return err
		}
		for _, reg := range ref.Regressions {
			msg := fmt.Sprintf("pfverify: batch weakens invariant %s", reg.Invariant)
			if len(reg.Violations) > 0 {
				msg += ": " + reg.Violations[0].String()
			}
			vetoes = append(vetoes, msg)
		}
		s.verifyVetoes.Add(1)
		return errVetoed
	}
	st0 := s.engine.PublishStats()
	t0 := time.Now()
	_, err := pftables.ApplyAllGated(s.env, s.engine, src, req.Lines, gate)
	elapsed := time.Since(t0)
	st1 := s.engine.PublishStats()
	resp := s.status(err == nil, "")
	resp.PublishNs = elapsed.Nanoseconds()
	resp.Incremental = st1.DeltaCompiles > st0.DeltaCompiles
	if err != nil {
		resp.Err = err.Error()
		resp.Findings = vetoes
	}
	return resp
}
