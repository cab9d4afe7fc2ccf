package policyd

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"pfirewall/internal/kernel"
	"pfirewall/internal/linesvc"
	"pfirewall/internal/pf"
	"pfirewall/internal/pfcheck"
	"pfirewall/internal/pftables"
	"pfirewall/internal/pfverify"
	"pfirewall/internal/programs"
)

func policyWorld(t *testing.T) *programs.World {
	t.Helper()
	cfg := pf.Optimized()
	return programs.NewWorld(programs.WorldOpts{PF: &cfg})
}

func serveWorld(t *testing.T, w *programs.World) (*Server, *Client) {
	t.Helper()
	sym := &pfcheck.Symbols{KnownLabel: pfcheck.LabelSnapshot(w.Env.Policy)}
	srv, err := Serve(w.K, w.Env, w.Engine, "", sym)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl, err := Dial(w.K, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return srv, cl
}

// TestApplyPublishesOnce is the basic protocol round trip: one streamed
// batch lands as exactly one engine publish, and the response reflects the
// live ruleset.
func TestApplyPublishesOnce(t *testing.T) {
	w := policyWorld(t)
	_, cl := serveWorld(t, w)
	gen0 := w.Engine.Generation()

	resp, err := cl.Apply("web.pft", []string{
		`pftables -A input -s httpd_t -d shadow_t -o FILE_OPEN -j DROP`,
		`pftables -A input -s httpd_t -o FILE_OPEN -j ACCEPT`,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("apply failed: %s (findings %v)", resp.Err, resp.Findings)
	}
	if resp.Rules != 2 || w.Engine.RuleCount() != 2 {
		t.Fatalf("rules = %d (engine %d), want 2", resp.Rules, w.Engine.RuleCount())
	}
	if got := w.Engine.Generation() - gen0; got != 1 {
		t.Fatalf("batch bumped generation %d times, want 1", got)
	}
	if resp.Version != w.Engine.Version() {
		t.Fatalf("response version %d != engine version %d", resp.Version, w.Engine.Version())
	}
	if resp.PublishNs <= 0 {
		t.Fatal("apply reported no publish time")
	}

	// A second small batch rides the incremental delta-compile path.
	resp, err = cl.Apply("web.pft", []string{
		`pftables -A input -s user_t -o FILE_OPEN -j DROP`,
	}, 0)
	if err != nil || !resp.OK {
		t.Fatalf("second apply: %v %s", err, resp.Err)
	}
	if !resp.Incremental {
		t.Fatal("single-rule apply did not take the incremental path")
	}
}

// TestGateVetoesBadBatch: a batch whose rules the analyzer flags as
// error-class never publishes, and the response carries the findings.
func TestGateVetoesBadBatch(t *testing.T) {
	w := policyWorld(t)
	_, cl := serveWorld(t, w)
	ver0 := w.Engine.Version()

	// The second rule is fully shadowed by the first with a conflicting
	// verdict — an error-class finding.
	resp, err := cl.Apply("bad.pft", []string{
		`pftables -A input -s httpd_t -o FILE_OPEN -j ACCEPT`,
		`pftables -A input -s httpd_t -o FILE_OPEN -j DROP`,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("gate accepted a batch with a conflicting shadowed rule")
	}
	if len(resp.Findings) == 0 || !strings.Contains(resp.Findings[0], "bad.pft") {
		t.Fatalf("veto carried no usable findings: %v", resp.Findings)
	}
	if w.Engine.Version() != ver0 || w.Engine.RuleCount() != 0 {
		t.Fatal("vetoed batch reached the rule base")
	}

	// NoCheck bypasses the gate for operators who mean it.
	resp, err = cl.Do(Request{Op: "apply", Src: "bad.pft", NoCheck: true, Lines: []string{
		`pftables -A input -s httpd_t -o FILE_OPEN -j ACCEPT`,
		`pftables -A input -s httpd_t -o FILE_OPEN -j DROP`,
	}}, 0)
	if err != nil || !resp.OK {
		t.Fatalf("NoCheck apply: %v %s", err, resp.Err)
	}
	if w.Engine.RuleCount() != 2 {
		t.Fatalf("NoCheck apply installed %d rules, want 2", w.Engine.RuleCount())
	}
}

// TestGateIgnoresPreexistingDefects: error findings anchored outside the
// batch being applied must not wedge the control plane.
func TestGateIgnoresPreexistingDefects(t *testing.T) {
	w := policyWorld(t)
	// Install a defective pair directly (bypassing the daemon).
	if _, err := pftables.InstallAllFrom(w.Env, w.Engine, "legacy.pft", []string{
		`pftables -A input -s httpd_t -o FILE_OPEN -j ACCEPT`,
		`pftables -A input -s httpd_t -o FILE_OPEN -j DROP`,
	}); err != nil {
		t.Fatal(err)
	}
	_, cl := serveWorld(t, w)
	resp, err := cl.Apply("clean.pft", []string{
		`pftables -A input -s user_t -d shadow_t -o FILE_OPEN -j DROP`,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("clean batch vetoed by pre-existing legacy defects: %s %v", resp.Err, resp.Findings)
	}
}

// TestRollbackOverProtocol: version moves forward on apply and back on
// rollback, and verdicts follow.
func TestRollbackOverProtocol(t *testing.T) {
	w := policyWorld(t)
	_, cl := serveWorld(t, w)

	if resp, err := cl.Apply("v1.pft", []string{
		`pftables -A input -s user_t -d shadow_t -o FILE_OPEN -j DROP`,
	}, 0); err != nil || !resp.OK {
		t.Fatalf("apply v1: %v %+v", err, resp)
	}
	v1, err := cl.Version(0)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := cl.Apply("v2.pft", []string{
		`pftables -F input`,
	}, 0); err != nil || !resp.OK {
		t.Fatalf("apply v2: %v %+v", err, resp)
	}
	if w.Engine.RuleCount() != 0 {
		t.Fatal("flush batch did not land")
	}

	resp, err := cl.Rollback(0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Version != v1.Version || resp.Rules != 1 {
		t.Fatalf("rollback resp = %+v, want version %d with 1 rule", resp, v1.Version)
	}
	// Draining the whole history window eventually errors without crashing.
	for i := 0; i < 16; i++ {
		if resp, _ = cl.Rollback(0); !resp.OK {
			break
		}
	}
	if resp.OK {
		t.Fatal("rollback never exhausted the history window")
	}
}

// TestApplyAtomicReload: a -F plus reinstall batch over the wire never
// exposes an empty rule base to concurrent mediation.
func TestApplyAtomicReload(t *testing.T) {
	w := policyWorld(t)
	_, cl := serveWorld(t, w)
	base := []string{
		`pftables -A input -s user_t -o FILE_OPEN -j DROP`,
	}
	// Non-vacuity: before the guard lands, the probe open succeeds.
	sanity := w.K.NewProc(kernel.ProcSpec{UID: 1000, Label: "user_t"})
	if fd, err := sanity.Open("/etc/passwd", kernel.O_RDONLY, 0); err != nil {
		t.Fatalf("probe open blocked before any rule: %v", err)
	} else {
		sanity.Close(fd)
	}
	if resp, err := cl.Apply("base.pft", base, 0); err != nil || !resp.OK {
		t.Fatalf("base apply: %v %+v", err, resp)
	}

	// A reader hammering the guarded open must never see an ACCEPT while
	// reload batches (-F + reinstall in one transaction) stream in.
	stop := make(chan struct{})
	accepts := make(chan int, 1)
	go func() {
		p := w.K.NewProc(kernel.ProcSpec{UID: 1000, Label: "user_t"})
		n := 0
		for {
			select {
			case <-stop:
				accepts <- n
				return
			default:
			}
			if fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0); err == nil {
				p.Close(fd)
				n++
			}
		}
	}()
	reload := append([]string{`pftables -F`}, base...)
	for i := 0; i < 50; i++ {
		if resp, err := cl.Apply("base.pft", reload, 0); err != nil || !resp.OK {
			t.Fatalf("reload %d: %v %+v", i, err, resp)
		}
	}
	close(stop)
	if n := <-accepts; n != 0 {
		t.Fatalf("%d guarded opens slipped through during atomic reloads", n)
	}
}

// TestPublisherFanout: one batch lands on every world of a small fleet.
func TestPublisherFanout(t *testing.T) {
	const worlds = 3
	var names []string
	var clients []*Client
	var engines []*pf.Engine
	for i := 0; i < worlds; i++ {
		w := policyWorld(t)
		name := "pfpolicy-" + string(rune('a'+i))
		sym := &pfcheck.Symbols{KnownLabel: pfcheck.LabelSnapshot(w.Env.Policy)}
		srv, err := Serve(w.K, w.Env, w.Engine, name, sym)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		cl, err := Dial(w.K, name)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		clients = append(clients, cl)
		engines = append(engines, w.Engine)
	}
	pub := NewPublisher(names, clients)
	defer pub.Close()

	results := pub.Apply("fleet.pft", []string{
		`pftables -A input -s user_t -d shadow_t -o FILE_OPEN -j DROP`,
	}, 10*time.Second)
	if len(results) != worlds {
		t.Fatalf("got %d results, want %d", len(results), worlds)
	}
	for i, res := range results {
		if res.Err != "" || !res.Resp.OK {
			t.Fatalf("target %s failed: %s %+v", res.Name, res.Err, res.Resp)
		}
		if engines[i].RuleCount() != 1 {
			t.Fatalf("target %s engine has %d rules, want 1", res.Name, engines[i].RuleCount())
		}
		if res.RTT <= 0 {
			t.Fatalf("target %s reported no round trip", res.Name)
		}
	}
}

// TestBadRequestLine: protocol garbage gets an error response, and the
// connection keeps working.
func TestBadRequestLine(t *testing.T) {
	w := policyWorld(t)
	_, cl := serveWorld(t, w)
	if _, err := cl.conn.Proc.Send(cl.conn.Fd, []byte("not json\n")); err != nil {
		t.Fatal(err)
	}
	// Read the error response by hand via Do's machinery: issue a ping and
	// expect the garbage answer first.
	resp, err := cl.Do(Request{Op: "ping"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("garbage line was answered OK")
	}
	resp, err = cl.Do(Request{Op: "ping"}, 0)
	if err != nil || !resp.OK {
		t.Fatalf("connection broken after garbage: %v %+v", err, resp)
	}
	if _, err := cl.Do(Request{Op: "nonsense"}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantGateVetoesWeakeningBatch: with SetInvariants armed, a batch
// that passes pfcheck but weakens a held invariant is vetoed pre-publish,
// with the regression witness in the findings.
func TestInvariantGateVetoesWeakeningBatch(t *testing.T) {
	w := policyWorld(t)
	srv, cl := serveWorld(t, w)

	invs, err := pfverify.ParseInvariants("srv.inv", `invariant httpd-no-shadow {
    require DROP
    op FILE_OPEN
    subject httpd_t
    object shadow_t
}`)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetInvariants(invs)

	resp, err := cl.Apply("base.pft", []string{
		`pftables -A input -s httpd_t -d shadow_t -o FILE_OPEN -j DROP`,
	}, 0)
	if err != nil || !resp.OK {
		t.Fatalf("base apply: %v %s", err, resp.Err)
	}
	ver := w.Engine.Version()

	// Clean per pfcheck (nothing shadowed — the ACCEPT is narrower than
	// nothing and first-match puts it ahead), but it weakens the invariant.
	resp, err = cl.Apply("weaken.pft", []string{
		`pftables -I input -s httpd_t -o FILE_OPEN -j ACCEPT`,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("refinement gate let a weakening batch publish")
	}
	found := false
	for _, f := range resp.Findings {
		if strings.Contains(f, "httpd-no-shadow") {
			found = true
		}
	}
	if !found {
		t.Fatalf("veto findings missing the regressed invariant: %v", resp.Findings)
	}
	if w.Engine.Version() != ver {
		t.Fatal("vetoed batch reached the rule base")
	}
	if srv.VerifyVetoes() != 1 {
		t.Fatalf("VerifyVetoes = %d, want 1", srv.VerifyVetoes())
	}

	// A non-weakening batch still publishes with the gate armed.
	resp, err = cl.Apply("ok.pft", []string{
		`pftables -A input -s user_t -d shadow_t -o FILE_OPEN -j DROP`,
	}, 0)
	if err != nil || !resp.OK {
		t.Fatalf("harmless apply: %v %s %v", err, resp.Err, resp.Findings)
	}
}

// TestOversizedRequestLine: a client that streams more than the line cap
// without a newline gets an error response and loses its connection,
// while other clients keep being served.
func TestOversizedRequestLine(t *testing.T) {
	w := policyWorld(t)
	_, good := serveWorld(t, w)
	bad, err := Dial(w.K, "")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.conn.Proc.Send(bad.conn.Fd, bytes.Repeat([]byte{'a'}, linesvc.MaxLine+1)); err != nil {
		t.Fatal(err)
	}
	// Read until the server hangs up: the error line, then a closed peer.
	var got []byte
	deadline := time.Now().Add(DefaultTimeout)
	for {
		data, err := bad.conn.Proc.Recv(bad.conn.Fd, 0)
		got = append(got, data...)
		if err != nil && !kernel.IsWouldBlock(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server kept the connection open; read %q", got)
		}
		time.Sleep(100 * time.Microsecond)
	}
	var resp Response
	if err := json.Unmarshal(bytes.TrimSuffix(got, []byte{'\n'}), &resp); err != nil {
		t.Fatalf("no response line before the hang-up: %q (%v)", got, err)
	}
	if resp.OK || !strings.Contains(resp.Err, "exceeds") {
		t.Fatalf("oversized line answered %+v", resp)
	}
	if resp, err := good.Do(Request{Op: "ping"}, 0); err != nil || !resp.OK {
		t.Fatalf("second client's ping: %v %+v", err, resp)
	}
}

// TestIdleServerIssuesNoSyscalls: a server with a connected client waits on
// readiness and issues no syscalls while nobody speaks.
func TestIdleServerIssuesNoSyscalls(t *testing.T) {
	w := policyWorld(t)
	serveWorld(t, w)
	n0 := w.K.SyscallCount.Load()
	time.Sleep(100 * time.Millisecond)
	if n := w.K.SyscallCount.Load() - n0; n != 0 {
		t.Fatalf("idle policyd issued %d syscalls in 100ms", n)
	}
}

// FuzzPolicydLine feeds arbitrary bytes through the line service's framing
// into policyd's request handler, without sockets: no panic, exactly one
// reply per complete line, and every reply is one JSON Response line.
func FuzzPolicydLine(f *testing.F) {
	cfg := pf.Optimized()
	f.Fuzz(func(t *testing.T, data []byte) {
		w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
		s := &Server{env: w.Env, engine: w.Engine}
		var in linesvc.Lines
		replies := 0
		open := in.Answer(data, s.answer, func(reply []byte) bool {
			replies++
			var resp Response
			if bytes.IndexByte(reply, '\n') != len(reply)-1 || json.Unmarshal(reply, &resp) != nil {
				t.Fatalf("reply is not one JSON Response line: %q", reply)
			}
			return true
		})
		if len(data) <= linesvc.MaxLine && !open {
			t.Fatalf("framing closed the connection on a %d-byte input", len(data))
		}
		if want := bytes.Count(data, []byte{'\n'}); replies != want {
			t.Fatalf("%d replies for %d complete lines", replies, want)
		}
	})
}

// TestServeReleasesNameOnFailure: a Serve whose listen the firewall denies
// leaves the rendezvous name free, so a later Serve can bind it.
func TestServeReleasesNameOnFailure(t *testing.T) {
	w := policyWorld(t)
	if _, err := pftables.Install(w.Env, w.Engine, `pftables -o SOCKET_LISTEN -s pfpolicyd_t -j DROP`); err != nil {
		t.Fatal(err)
	}
	if _, err := Serve(w.K, w.Env, w.Engine, "", nil); err == nil {
		t.Fatal("Serve succeeded with its listen denied")
	}
	if _, err := w.Engine.Rollback(); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(w.K, w.Env, w.Engine, "", nil)
	if err != nil {
		t.Fatalf("Serve after the failed one: %v", err)
	}
	srv.Close()
}

// TestGateVetoesBatchJumpCycle: a batch whose jump closes a jump cycle is
// vetoed whichever way the chains are named. The analysis cites a cycle at
// the jump that closes it in DFS order, which may be the base's; the gate
// must not depend on that. The handler runs without a socket, as in
// FuzzPolicydLine, so a cycle wrongly accepted fails the test rather than
// looping a mediated reply.
func TestGateVetoesBatchJumpCycle(t *testing.T) {
	for _, tc := range []struct{ base, batch string }{
		{"pftables -A cb -j ca", "pftables -A ca -j cb"},
		{"pftables -A ca -j cb", "pftables -A cb -j ca"},
	} {
		w := policyWorld(t)
		s := &Server{env: w.Env, engine: w.Engine}
		apply := func(src string, lines ...string) Response {
			line, _ := json.Marshal(Request{Op: "apply", Src: src, Lines: lines})
			return s.handle(line, nil)
		}
		base := apply("legacy.pft", "pftables -N ca", "pftables -N cb", "pftables -A input -s httpd_t -j ca", tc.base)
		if !base.OK {
			t.Fatalf("base %q: %s %v", tc.base, base.Err, base.Findings)
		}
		resp := apply("batch.pft", tc.batch)
		if resp.OK || resp.Version != base.Version || len(resp.Findings) != 1 ||
			!strings.Contains(resp.Findings[0], "batch.pft:1") || !strings.Contains(resp.Findings[0], "jump cycle") {
			t.Errorf("base %q, batch %q: ok=%v version %d -> %d, findings %q; want one jump-cycle veto at batch.pft:1",
				tc.base, tc.batch, resp.OK, base.Version, resp.Version, resp.Findings)
		}
	}
}

// TestNoCheckApplyRefusesJumpCycle: a NoCheck batch skips the gate, but not
// the engine's own commit check: a batch that closes a jump cycle fails
// with the cycle named and publishes nothing. The handler runs without a
// socket, as in TestGateVetoesBatchJumpCycle.
func TestNoCheckApplyRefusesJumpCycle(t *testing.T) {
	w := policyWorld(t)
	s := &Server{env: w.Env, engine: w.Engine}
	apply := func(noCheck bool, lines ...string) Response {
		line, _ := json.Marshal(Request{Op: "apply", Src: "batch.pft", NoCheck: noCheck, Lines: lines})
		return s.handle(line, nil)
	}
	base := apply(false, "pftables -N ca", "pftables -N cb", "pftables -A input -s httpd_t -j ca", "pftables -A ca -j cb")
	if !base.OK {
		t.Fatalf("base: %s %v", base.Err, base.Findings)
	}
	resp := apply(true, "pftables -A cb -j ca")
	if resp.OK || resp.Version != base.Version || resp.Rules != base.Rules || !strings.Contains(resp.Err, "jump cycle: ca -> cb -> ca") {
		t.Fatalf("NoCheck cycle: ok=%v version %d -> %d, rules %d -> %d, err %q; want a refusal naming ca -> cb -> ca",
			resp.OK, base.Version, resp.Version, base.Rules, resp.Rules, resp.Err)
	}
}

// TestDoAfterTimeoutFails: a call that timed out closes its connection, so
// its late response can never be read as the answer to a later request. A
// gate that waits for the test holds the apply's response back until the
// call has timed out.
func TestDoAfterTimeoutFails(t *testing.T) {
	w := policyWorld(t)
	srv, cl := serveWorld(t, w)
	release := make(chan struct{})
	srv.verify = func(*pf.Program) error { <-release; return nil }
	_, err := cl.Apply("late.pft", []string{
		`pftables -A input -s httpd_t -d shadow_t -o FILE_OPEN -j DROP`,
	}, time.Millisecond)
	close(release)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("apply held past its timeout: %v, want ErrTimeout", err)
	}
	if resp, err := cl.Do(Request{Op: "nonsense"}, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call after a timeout: ok=%v rules=%d err=%q, %v; want a failure wrapping ErrTimeout",
			resp.OK, resp.Rules, resp.Err, err)
	}
}
