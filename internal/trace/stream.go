package trace

import (
	"encoding/json"
	"errors"
	"time"

	"pfirewall/internal/kernel"
	"pfirewall/internal/linesvc"
	"pfirewall/internal/obs"
)

// DefaultStreamName is the abstract-namespace rendezvous both pfctl -trace
// and ServeSpans default to.
const DefaultStreamName = "pftrace"

// streamLabel is the subject label of the stream's endpoint processes.
// It appears in no shipped ruleset, so persona-targeted rules can never
// match the transport.
const streamLabel = "pftrace_t"

// serverSubBuf is the relay's subscription depth: publishes are
// synchronous with the traced workload, so a deep buffer absorbs whole
// bursts (a span is ~300 bytes) and the tracer counts anything deeper.
const serverSubBuf = 8192

// ErrNoTracer is returned by ServeSpans on a kernel without an attached
// tracer, which is a kernel without observability attached.
var ErrNoTracer = errors.New("trace: kernel has no tracer attached (attach observability with Kernel.AttachObs)")

// ErrStreamTimeout is returned by SpanClient.Next when no span arrived
// within the deadline.
var ErrStreamTimeout = linesvc.ErrTimeout

// SpanServer relays published spans as JSON lines to in-world subscribers over
// the simulated kernel's own sockets (internal/linesvc). Both endpoints are
// muted on the tracer, or their syscalls would trace their own delivery.
type SpanServer struct {
	t   *obs.Tracer
	sub *obs.SpanSub
	svc *linesvc.Server
}

// ServeSpans binds an abstract socket named name (DefaultStreamName when
// empty) inside k's world and starts the relay. The tracer subscription
// exists before ServeSpans returns, and a client that cannot keep up loses
// the lines its stream has no room for.
func ServeSpans(k *kernel.Kernel, name string) (*SpanServer, error) {
	t := k.Tracer()
	if t == nil {
		return nil, ErrNoTracer
	}
	if name == "" {
		name = DefaultStreamName
	}
	sub := t.SubscribeBuf(serverSubBuf)
	// Subscribers ask nothing; a span that fails to encode is skipped.
	ignore := func([]byte, error) []byte { return nil }
	encode := func(sp obs.Span) []byte { line, _ := json.Marshal(&sp); return line }
	svc, err := linesvc.Serve(k, name, streamLabel, ignore, sub.C(), encode)
	if err != nil {
		t.Unsubscribe(sub)
		return nil, err
	}
	return &SpanServer{t: t, sub: sub, svc: svc}, nil
}

// Close stops the relay and waits for it to unwind. The server's
// subscription is dropped and every client connection is closed.
func (s *SpanServer) Close() {
	s.svc.Close()
	s.t.Unsubscribe(s.sub)
}

// SpanClient tails a SpanServer from inside the simulation.
type SpanClient struct {
	conn *linesvc.Client
}

// DialSpans connects a fresh (muted) process to the named span stream and
// returns once the relay has admitted it: every span published afterwards
// reaches the client.
func DialSpans(k *kernel.Kernel, name string) (*SpanClient, error) {
	if name == "" {
		name = DefaultStreamName
	}
	conn, err := linesvc.Dial(k, name, streamLabel)
	if err != nil {
		return nil, err
	}
	return &SpanClient{conn: conn}, nil
}

// Next returns the next streamed span, waiting up to timeout. Returns
// ErrStreamTimeout when nothing arrived in time and the transport error
// when the stream closed.
func (c *SpanClient) Next(timeout time.Duration) (obs.Span, error) {
	line, err := c.conn.ReadLine(timeout)
	if err != nil {
		return obs.Span{}, err
	}
	var sp obs.Span
	if err := json.Unmarshal(line, &sp); err != nil {
		return obs.Span{}, err
	}
	return sp, nil
}

// Close tears down the client's end of the stream.
func (c *SpanClient) Close() { c.conn.Close() }
