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
// The transport is the shared, readiness-driven internal/linesvc.
package policyd

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"pfirewall/internal/kernel"
	"pfirewall/internal/linesvc"
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
	env    *pftables.Env
	engine *pf.Engine
	sym    *pfcheck.Symbols
	svc    *linesvc.Server

	// verify, when set, is the pfverify refinement gate: a batch that
	// weakens an invariant the live generation satisfies is vetoed before
	// its publish commits. verifyVetoes counts those rejections.
	verify       func(*pf.Program) error
	verifyVetoes atomic.Uint64
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
// keeps the reachability analysis. A request line longer than
// linesvc.MaxLine gets an error response and loses its connection.
func Serve(k *kernel.Kernel, env *pftables.Env, engine *pf.Engine, name string, sym *pfcheck.Symbols) (*Server, error) {
	if name == "" {
		name = DefaultSocketName
	}
	s := &Server{env: env, engine: engine, sym: sym}
	var err error
	if s.svc, err = linesvc.Serve[struct{}](k, name, policyLabel, s.answer, nil, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Close stops the control loop and waits for it to unwind.
func (s *Server) Close() { s.svc.Close() }

// answer is the line service's handler: one Response line per request
// line. (A Response always marshals.)
func (s *Server) answer(line []byte, err error) []byte {
	out, _ := json.Marshal(s.handle(line, err))
	return out
}

// handle executes one request line; err is the line service's framing
// error (a line over the cap).
func (s *Server) handle(line []byte, err error) Response {
	var req Request
	if err == nil {
		err = json.Unmarshal(line, &req)
	}
	if err != nil {
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
// never wedge the control plane. Jump cycles are judged per jump: the batch
// is vetoed when any cycle runs through one of its jump rules, wherever
// the analysis happens to cite that cycle.
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
			if f.Sev == pfcheck.SevError && f.Pos.File == src && f.Code != pfcheck.CodeJumpCycle {
				vetoes = append(vetoes, f.String())
			}
		}
		for _, f := range pfcheck.CycleJumps(prog.Chains(), src) {
			vetoes = append(vetoes, f.String())
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
