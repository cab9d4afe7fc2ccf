package policyd

import (
	"encoding/json"
	"fmt"
	"time"

	"pfirewall/internal/kernel"
	"pfirewall/internal/linesvc"
)

// ErrTimeout is returned by Client.Do when no response arrived in time.
var ErrTimeout = linesvc.ErrTimeout

// DefaultTimeout bounds one round trip when the caller passes zero.
const DefaultTimeout = 5 * time.Second

// Client speaks the control protocol to one policyd server from inside the
// simulation. A Client owns one simulated process; all calls must come
// from one goroutine at a time (the kernel's single-flow invariant).
type Client struct {
	conn *linesvc.Client
	// err is the read failure that closed the connection. Responses carry
	// no request id, so after a late or lost response the stream can no
	// longer be paired with requests; every later call fails with err.
	err error
}

// Dial connects a fresh (muted) process to the named control socket and
// returns once the server has admitted it.
func Dial(k *kernel.Kernel, name string) (*Client, error) {
	if name == "" {
		name = DefaultSocketName
	}
	conn, err := linesvc.Dial(k, name, policyLabel)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Do sends one request and waits for its response (requests on one
// connection are answered in order). A call whose response does not arrive
// in time closes the connection, so that response can never be read as the
// answer to a later request; later calls fail.
func (c *Client) Do(req Request, timeout time.Duration) (Response, error) {
	if c.err != nil {
		return Response{}, fmt.Errorf("policyd: connection closed after an earlier call failed: %w", c.err)
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	line, _ := json.Marshal(req) // a Request always marshals
	if _, err := c.conn.Proc.Send(c.conn.Fd, append(line, '\n')); err != nil {
		return Response{}, err
	}
	line, err := c.conn.ReadLine(timeout)
	if err != nil {
		c.err = err
		c.conn.Close()
		return Response{}, err
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// Apply streams one pftables batch to be applied as a single gated
// transaction. A Response with OK=false carries the gate's findings (or
// the parse/install error) and means nothing was published.
func (c *Client) Apply(src string, lines []string, timeout time.Duration) (Response, error) {
	return c.Do(Request{Op: "apply", Src: src, Lines: lines}, timeout)
}

// Rollback reverts the engine to the previous published ruleset version.
func (c *Client) Rollback(timeout time.Duration) (Response, error) {
	return c.Do(Request{Op: "rollback"}, timeout)
}

// Version reports the live ruleset version and rule count.
func (c *Client) Version(timeout time.Duration) (Response, error) {
	return c.Do(Request{Op: "version"}, timeout)
}

// Close tears down the client's end of the connection.
func (c *Client) Close() { c.conn.Close() }

// PublishResult is one target's outcome of a fan-out publish.
type PublishResult struct {
	Name  string        `json:"name"`
	RTT   time.Duration `json:"-"`
	RTTNs int64         `json:"rtt_ns"`
	Resp  Response      `json:"resp"`
	Err   string        `json:"err,omitempty"`
}

// Publisher fans control-plane operations out to a set of policyd servers
// — one per world of a fleet — concurrently, and reports per-target round
// trips. Each target's client is driven by its own goroutine per call, so
// the single-flow invariant holds per process.
type Publisher struct {
	names   []string
	clients []*Client
}

// NewPublisher assembles a fan-out set. Names and clients correspond by
// index; the Publisher takes ownership of the clients.
func NewPublisher(names []string, clients []*Client) *Publisher {
	if len(names) != len(clients) {
		panic("policyd: NewPublisher: names and clients length mismatch")
	}
	return &Publisher{names: names, clients: clients}
}

// Apply publishes one batch to every target concurrently and returns the
// per-target results in target order.
func (p *Publisher) Apply(src string, lines []string, timeout time.Duration) []PublishResult {
	return p.fanout(Request{Op: "apply", Src: src, Lines: lines}, timeout)
}

// Rollback reverts every target by one version concurrently.
func (p *Publisher) Rollback(timeout time.Duration) []PublishResult {
	return p.fanout(Request{Op: "rollback"}, timeout)
}

// fanout runs one request against every target on its own goroutine.
func (p *Publisher) fanout(req Request, timeout time.Duration) []PublishResult {
	results := make([]PublishResult, len(p.clients))
	done := make(chan int, len(p.clients))
	for i := range p.clients {
		go func(i int) {
			t0 := time.Now()
			resp, err := p.clients[i].Do(req, timeout)
			rtt := time.Since(t0)
			results[i] = PublishResult{Name: p.names[i], RTT: rtt, RTTNs: rtt.Nanoseconds(), Resp: resp}
			if err != nil {
				results[i].Err = err.Error()
			}
			done <- i
		}(i)
	}
	for range p.clients {
		<-done
	}
	return results
}

// Close tears down every target connection.
func (p *Publisher) Close() {
	for _, c := range p.clients {
		c.Close()
	}
}
