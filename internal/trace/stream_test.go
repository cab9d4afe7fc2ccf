package trace

import (
	"errors"
	"testing"
	"time"

	"pfirewall/internal/ipc"
	"pfirewall/internal/kernel"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
	"pfirewall/internal/programs"
)

func tracedWorld(t *testing.T, every int) *programs.World {
	t.Helper()
	cfg := pf.Optimized()
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg, Obs: obs.New(), ObsEvery: every})
	// Spans are only generated for ops the firewall actually filters
	// (MayFilter short-circuits the rest), so give the world a rule.
	if _, err := pftables.Install(w.Env, w.Engine,
		`pftables -o FILE_OPEN -d shadow_t -s user_t -j DROP`); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSpanStreamDelivers is the end-to-end dogfooding check: spans sampled
// from one process's syscalls travel over the simulated kernel's own
// sockets to an in-world subscriber.
func TestSpanStreamDelivers(t *testing.T) {
	w := tracedWorld(t, 1)
	srv, err := ServeSpans(w.K, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialSpans(w.K, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	deadline := time.Now().Add(time.Second)

	p := w.K.NewProc(kernel.ProcSpec{UID: 0, Label: "httpd_t", Exec: "/usr/bin/apache2"})
	var opened bool
	var got obs.Span
	for time.Now().Before(deadline) {
		fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		_ = p.Close(fd)
		opened = true
		sp, err := cl.Next(100 * time.Millisecond)
		if err == nil && sp.PID == p.PID() {
			got = sp
			break
		}
		if err != nil && !errors.Is(err, ErrStreamTimeout) {
			t.Fatal(err)
		}
	}
	if !opened || got.PID != p.PID() {
		t.Fatalf("no span from pid %d arrived over the stream", p.PID())
	}
	if got.Op == "" || got.Verdict == "" {
		t.Errorf("streamed span missing op/verdict: %+v", got)
	}
	if got.Subject != "httpd_t" {
		t.Errorf("streamed span subject = %q, want httpd_t", got.Subject)
	}

	// The transport muted itself: no span describes the stream's own pids.
	for _, sp := range w.K.Tracer().Snapshot() {
		if sp.PID == srv.svc.PID() || sp.PID == cl.conn.Proc.PID() {
			t.Fatalf("transport traced itself: %+v", sp)
		}
	}
}

// TestSpanRightAfterDialArrives: DialSpans returns only once the relay has
// admitted the client, so a span published the moment it returns reaches
// the client.
func TestSpanRightAfterDialArrives(t *testing.T) {
	w := tracedWorld(t, 1)
	srv, err := ServeSpans(w.K, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := w.K.NewProc(kernel.ProcSpec{UID: 0, Label: "httpd_t", Exec: "/usr/bin/apache2"})
	cl, err := DialSpans(w.K, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Close(fd)
	for {
		sp, err := cl.Next(2 * time.Second)
		if err != nil {
			t.Fatalf("span published right after DialSpans returned never arrived: %v", err)
		}
		if sp.PID == p.PID() {
			return
		}
	}
}

// TestIdleRelayIssuesNoSyscalls: with a subscriber admitted and no workload
// running, the relay and its client wait on readiness and issue no
// syscalls at all.
func TestIdleRelayIssuesNoSyscalls(t *testing.T) {
	w := tracedWorld(t, 1)
	srv, err := ServeSpans(w.K, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialSpans(w.K, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	n0 := w.K.SyscallCount.Load()
	time.Sleep(100 * time.Millisecond)
	if n := w.K.SyscallCount.Load() - n0; n != 0 {
		t.Fatalf("idle relay issued %d syscalls in 100ms", n)
	}
}

// TestSlowSubscriberStaysBounded: a subscriber that never reads holds at
// most ipc.StreamMax unread bytes (the relay drops the lines it has no room
// for) while a subscriber that reads keeps receiving spans.
func TestSlowSubscriberStaysBounded(t *testing.T) {
	w := tracedWorld(t, 1)
	srv, err := ServeSpans(w.K, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	slow, err := DialSpans(w.K, "")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := DialSpans(w.K, "")
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		p := w.K.NewProc(kernel.ProcSpec{UID: 0, Label: "httpd_t", Exec: "/usr/bin/apache2"})
		for {
			select {
			case <-stop:
				return
			default:
			}
			if fd, err := p.Open("/etc/passwd", kernel.O_RDONLY, 0); err == nil {
				_ = p.Close(fd)
			}
		}
	}()
	// Every line the fast subscriber receives was offered to the slow one
	// too, so past StreamMax bytes the slow one's stream has filled.
	received := 0
	for received <= ipc.StreamMax+1<<20 {
		line, err := fast.conn.ReadLine(5 * time.Second)
		if err != nil {
			close(stop)
			t.Fatalf("fast subscriber stalled after %d bytes: %v", received, err)
		}
		received += len(line) + 1
	}
	close(stop)
	<-done
	held, err := slow.conn.Proc.Recv(slow.conn.Fd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(held) == 0 || len(held) > ipc.StreamMax {
		t.Fatalf("slow subscriber holds %d unread bytes, want 1..%d", len(held), ipc.StreamMax)
	}
	if held[len(held)-1] != '\n' {
		t.Fatal("slow subscriber's stream ends in a partial line")
	}
}

func TestServeSpansRequiresTracer(t *testing.T) {
	cfg := pf.Optimized()
	w := programs.NewWorld(programs.WorldOpts{PF: &cfg})
	if _, err := ServeSpans(w.K, ""); !errors.Is(err, ErrNoTracer) {
		t.Fatalf("ServeSpans without tracer: %v, want ErrNoTracer", err)
	}
}

// TestSpanJSONGolden pins the span wire schema (the streaming protocol and
// pfctl -trace output) and checks a marshal → unmarshal → marshal round
// trip is byte-stable, derived fields included.
func TestSpanJSONGolden(t *testing.T) {
	sp := obs.Span{
		Seq: 3, TimeUnixNano: 1700000000000000000, PID: 42, SyscallSeq: 9,
		BatchIndex: 2,
		Flags: obs.SpanBatch | obs.SpanDcacheHit | obs.SpanAdvCacheMiss |
			obs.SpanRuleDecided,
		Syscall: "open", Op: "FILE_OPEN", Verdict: "DROP",
		Subject: "user_t", Path: "/tmp/trap",
		RuleFile: "trap.pft", RuleLine: 7, RuleCol: 1, RuleTarget: "DROP",
		RulesEvaluated: 4,
		KernelNs:       120, CheckNs: 350, GauntletNs: 900, TotalNs: 1250,
	}
	sp.PushChain("input")
	sp.PushChain("user-jail")

	const golden = `{"seq":3,"time_unix_nano":1700000000000000000,"pid":42,` +
		`"syscall_seq":9,"batch_index":2,"flags":201,` +
		`"flag_names":["batch","dcache_hit","adv_cache_miss","rule_decided"],` +
		`"syscall":"open","op":"FILE_OPEN","verdict":"DROP","subject":"user_t",` +
		`"path":"/tmp/trap","chains":["input","user-jail"],` +
		`"rule_src":"trap.pft:7:1","rule_file":"trap.pft","rule_line":7,` +
		`"rule_col":1,"rule_target":"DROP","rules_evaluated":4,` +
		`"kernel_ns":120,"check_ns":350,"gauntlet_ns":900,"total_ns":1250}`

	first, err := sp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != golden {
		t.Errorf("span wire schema drifted:\n got %s\nwant %s", first, golden)
	}

	var back obs.Span
	if err := back.UnmarshalJSON(first); err != nil {
		t.Fatal(err)
	}
	second, err := back.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(second) != string(first) {
		t.Errorf("round trip not byte-stable:\n 1st %s\n 2nd %s", first, second)
	}
	if back != sp {
		t.Errorf("round trip changed the span:\n got %+v\nwant %+v", back, sp)
	}
}
