package kernel

import (
	"errors"
	"math"
	"strings"
	"testing"

	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/pftables"
)

// traceWorld attaches an optimized engine with a positioned DROP rule on
// tmp_t opens plus a DIR_SEARCH ACCEPT (so path-walk mediations produce
// spans too), and samples one syscall in every.
func traceWorld(t *testing.T, every int) (*Kernel, *obs.Registry) {
	t.Helper()
	k := newWorld(t)
	engine := pf.New(k.Policy, pf.Optimized())
	if _, err := pftables.InstallAt(pfEnv(k), engine,
		`pftables -o FILE_OPEN -d tmp_t -s user_t -j DROP`,
		pf.Pos{File: "trap.pft", Line: 7, Col: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := pftables.InstallAt(pfEnv(k), engine,
		`pftables -o DIR_SEARCH -j ACCEPT`,
		pf.Pos{File: "trap.pft", Line: 9, Col: 1}); err != nil {
		t.Fatal(err)
	}
	k.AttachPF(engine)
	reg := obs.New()
	k.AttachObs(reg, ObsConfig{SampleEvery: every})
	return k, reg
}

func TestTraceSpanProvenance(t *testing.T) {
	k, _ := traceWorld(t, 1)
	p := newUser(k)

	// Seed the file as root (httpd_t is not matched by the DROP rule), then
	// have the user trip it.
	root := newRoot(k, "httpd_t", "/usr/bin/apache2")
	fd, err := root.Open("/tmp/trap", O_CREAT|O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	_ = root.Close(fd)

	tr := k.Tracer()
	if tr == nil {
		t.Fatal("tracer not attached")
	}
	before := tr.Total()
	if _, err := p.Open("/tmp/trap", O_RDONLY, 0); !errors.Is(err, ErrPFDenied) {
		t.Fatalf("user open /tmp/trap: %v, want ErrPFDenied", err)
	}
	if tr.Total() <= before {
		t.Fatal("no spans published for traced syscall")
	}

	spans := tr.Snapshot()
	var drop *obs.Span
	var walks []obs.Span
	for i := range spans {
		sp := spans[i]
		if sp.PID != p.PID() {
			continue
		}
		switch {
		case sp.Op == "FILE_OPEN" && sp.Path == "/tmp/trap" && sp.Verdict == "DROP":
			drop = &spans[i]
		case sp.Op == "DIR_SEARCH":
			walks = append(walks, sp)
		}
	}
	if drop == nil {
		t.Fatalf("no DROP span for /tmp/trap in snapshot: %+v", spans)
	}

	// Deciding-rule provenance: the positioned DROP rule.
	if drop.Flags&obs.SpanRuleDecided == 0 {
		t.Error("DROP span missing SpanRuleDecided")
	}
	if drop.RuleFile != "trap.pft" || drop.RuleLine != 7 {
		t.Errorf("rule src = %s:%d, want trap.pft:7", drop.RuleFile, drop.RuleLine)
	}
	if got := drop.RuleSrc(); got != "trap.pft:7:1" {
		t.Errorf("RuleSrc() = %q, want trap.pft:7:1", got)
	}
	if drop.RuleTarget != "DROP" {
		t.Errorf("rule target = %q, want DROP", drop.RuleTarget)
	}
	if drop.RulesEvaluated == 0 {
		t.Error("DROP span records zero rules evaluated")
	}

	// Chain path: every request enters through the input chain.
	chains := drop.Chains()
	if len(chains) == 0 || chains[0] != "input" {
		t.Errorf("chain path = %v, want to start at input", chains)
	}

	// Identity and batching.
	if drop.Subject != "user_t" {
		t.Errorf("subject = %q, want user_t", drop.Subject)
	}
	if drop.Syscall != "open" {
		t.Errorf("syscall = %q, want open", drop.Syscall)
	}
	if len(walks) == 0 {
		t.Fatal("no DIR_SEARCH spans from the path walk")
	}
	if drop.Flags&obs.SpanBatch == 0 {
		t.Error("final open span should be marked batch (path walk spanned first)")
	}
	if drop.BatchIndex == 0 {
		t.Error("final open span should not be batch index 0")
	}
	for _, w := range walks {
		if w.SyscallSeq != drop.SyscallSeq {
			t.Errorf("walk span syscall_seq %d != open span %d", w.SyscallSeq, drop.SyscallSeq)
		}
		if w.Verdict != "ACCEPT" {
			t.Errorf("walk verdict = %q, want ACCEPT", w.Verdict)
		}
	}

	// Latency split: the gauntlet ran, and totals include it.
	if drop.GauntletNs == 0 {
		t.Error("gauntlet latency not measured")
	}
	if drop.TotalNs < drop.GauntletNs {
		t.Errorf("total %dns < gauntlet %dns", drop.TotalNs, drop.GauntletNs)
	}
	if drop.TimeUnixNano == 0 {
		t.Error("span missing timestamp")
	}

	// Dentry-cache provenance: the walk that located /tmp/trap missed or
	// hit the dcache; either way the bits must be attributed somewhere in
	// this syscall's spans.
	var sawDc bool
	for _, sp := range append(walks, *drop) {
		if sp.Flags&(obs.SpanDcacheHit|obs.SpanDcacheMiss) != 0 {
			sawDc = true
		}
	}
	if !sawDc {
		t.Error("no span carries dcache attribution bits")
	}

	// A repeat open walks a warm dcache: some span must now record a hit.
	if _, err := p.Open("/tmp/trap", O_RDONLY, 0); !errors.Is(err, ErrPFDenied) {
		t.Fatalf("repeat open: %v, want ErrPFDenied", err)
	}
	var warmHit bool
	for _, sp := range tr.Snapshot() {
		if sp.PID == p.PID() && sp.Flags&obs.SpanDcacheHit != 0 {
			warmHit = true
		}
	}
	if !warmHit {
		t.Error("warm re-walk produced no dcache-hit span")
	}
}

func TestTraceAdvCacheBits(t *testing.T) {
	k := newWorld(t)
	engine := pf.New(k.Policy, pf.Optimized())
	// An adversary-sensitive rule forces EvalCtx to consult the MAC
	// adversary cache during collection.
	if _, err := pftables.InstallAt(pfEnv(k), engine,
		`pftables -o FILE_OPEN -m ADV_ACCESS --write --is true -j DROP`,
		pf.Pos{File: "adv.pft", Line: 1, Col: 1}); err != nil {
		t.Fatal(err)
	}
	k.AttachPF(engine)
	reg := obs.New()
	k.AttachObs(reg, ObsConfig{SampleEvery: 1})

	root := newRoot(k, "httpd_t", "/usr/bin/apache2")
	// First open computes adversary accessibility (miss), second is served
	// from the snapshot (hit).
	if _, err := root.Open("/etc/passwd", O_RDONLY, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Open("/etc/passwd", O_RDONLY, 0); err != nil {
		t.Fatal(err)
	}

	var sawMiss, sawHit bool
	for _, sp := range k.Tracer().Snapshot() {
		if sp.Op != "FILE_OPEN" {
			continue
		}
		if sp.Flags&obs.SpanAdvCacheMiss != 0 {
			sawMiss = true
		}
		if sp.Flags&obs.SpanAdvCacheHit != 0 {
			sawHit = true
		}
	}
	if !sawMiss {
		t.Error("no span recorded an adversary-cache miss")
	}
	if !sawHit {
		t.Error("no span recorded an adversary-cache hit")
	}
}

// Without observability there is no tracer; attaching it always brings
// one.
func TestTraceDisabledNoTracer(t *testing.T) {
	k := newWorld(t)
	if k.Tracer() != nil {
		t.Fatal("tracer attached without observability")
	}
	p := newUser(k)
	fd, err := p.Open("/tmp/f", O_CREAT|O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Close(fd)
	k.AttachObs(obs.New(), ObsConfig{})
	if k.Tracer() == nil {
		t.Fatal("no tracer with observability attached")
	}
}

// drain empties a subscription that synchronous publishes filled.
func drain(sub *obs.SpanSub) []obs.Span {
	var out []obs.Span
	for {
		select {
		case sp := <-sub.C():
			out = append(out, sp)
		default:
			return out
		}
	}
}

// gauntletCounts reads pf_gauntlet_latency_ns's count per op.
func gauntletCounts(reg *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for key, hs := range reg.HistogramSnapshots("pf_gauntlet_latency_ns") {
		out[strings.TrimPrefix(key, "op=")] = hs.Count
	}
	return out
}

// TestEveryDropIsASpan: 64 denied opens at the default period publish 64
// DROP spans, each naming the deciding rule. Only the four opens the
// period samples are timed, and the gauntlet histogram counts only those.
func TestEveryDropIsASpan(t *testing.T) {
	k, reg := traceWorld(t, 16)
	root := newRoot(k, "httpd_t", "/usr/bin/apache2")
	fd, err := root.Open("/tmp/trap", O_CREAT|O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	_ = root.Close(fd)
	p := newUser(k)
	sub := k.Tracer().SubscribeBuf(1024)
	before := gauntletCounts(reg)["FILE_OPEN"]
	for i := 0; i < 64; i++ {
		if _, err := p.Open("/tmp/trap", O_RDONLY, 0); !errors.Is(err, ErrPFDenied) {
			t.Fatalf("open %d: %v, want ErrPFDenied", i, err)
		}
	}
	drops, timed := 0, 0
	for _, sp := range drain(sub) {
		if sp.Verdict != "DROP" {
			continue
		}
		drops++
		if sp.PID != p.PID() || sp.Op != "FILE_OPEN" || sp.Path != "/tmp/trap" || sp.Syscall != "open" || sp.Subject != "user_t" {
			t.Errorf("DROP span identity = %+v", sp)
		}
		if sp.RuleSrc() != "trap.pft:7:1" || sp.RuleTarget != "DROP" {
			t.Errorf("DROP span rule = %q(%s), want trap.pft:7:1(DROP)", sp.RuleSrc(), sp.RuleTarget)
		}
		if sp.Flags&obs.SpanUntimed != 0 {
			if sp.TotalNs != 0 || sp.GauntletNs != 0 || sp.KernelNs != 0 || sp.TimeUnixNano == 0 {
				t.Errorf("untimed DROP span carries latency or lacks its stamp: %+v", sp)
			}
			continue
		}
		timed++
		if sp.GauntletNs == 0 {
			t.Errorf("timed DROP span without gauntlet latency: %+v", sp)
		}
	}
	if drops != 64 {
		t.Errorf("%d DROP spans for 64 denied opens, want 64", drops)
	}
	if timed != 4 {
		t.Errorf("%d timed DROP spans, want the 4 sampled opens of 64 at period 16", timed)
	}
	if got := gauntletCounts(reg)["FILE_OPEN"] - before; got != uint64(timed) {
		t.Errorf("FILE_OPEN gauntlet histogram grew by %d, want %d (the timed spans)", got, timed)
	}
}

// TestHistogramsObserveTimedSpans: at period 1 every filtered request
// carries a timed span and pf_gauntlet_latency_ns{op} counts exactly
// those; each DROP is one span; kernel_mediation_latency_ns covers every
// mediation of the sampled syscalls.
func TestHistogramsObserveTimedSpans(t *testing.T) {
	k, reg := traceWorld(t, 1)
	sub := k.Tracer().SubscribeBuf(4096)
	root := newRoot(k, "httpd_t", "/usr/bin/apache2")
	fd, err := root.Open("/tmp/trap", O_CREAT|O_RDWR, 0o666)
	if err != nil {
		t.Fatal(err)
	}
	_ = root.Close(fd)
	p := newUser(k)
	for i := 0; i < 8; i++ {
		if _, err := p.Open("/tmp/trap", O_RDONLY, 0); !errors.Is(err, ErrPFDenied) {
			t.Fatalf("open: %v, want ErrPFDenied", err)
		}
		if _, err := root.Stat("/etc/passwd"); err != nil {
			t.Fatal(err)
		}
	}
	timed := map[string]uint64{}
	drops := uint64(0)
	for _, sp := range drain(sub) {
		if sp.Flags&obs.SpanUntimed != 0 {
			t.Errorf("untimed span at period 1: %+v", sp)
		}
		timed[sp.Op]++
		if sp.Verdict == "DROP" {
			drops++
		}
	}
	counts := gauntletCounts(reg)
	for op, n := range counts {
		if n != timed[op] {
			t.Errorf("pf_gauntlet_latency_ns{op=%s} count %d, want %d timed spans", op, n, timed[op])
		}
	}
	if timed["FILE_OPEN"] == 0 || timed["DIR_SEARCH"] == 0 {
		t.Errorf("timed spans by op = %v, want FILE_OPEN and DIR_SEARCH", timed)
	}
	if want := k.PF.Stats.Drops.Load(); drops != want {
		t.Errorf("%d DROP spans, engine dropped %d", drops, want)
	}
	if med := reg.HistogramSnapshots("kernel_mediation_latency_ns")[""].Count; med != k.MediationCount.Load() {
		t.Errorf("kernel_mediation_latency_ns count %d, want every mediation (%d)", med, k.MediationCount.Load())
	}
}

// A mediation whose op the firewall skips (MayFilter false) leaves no
// stamp behind: stat's FILE_GETATTR request reaches the firewall without
// a vfs wrapper, so its span has no DAC+MAC split and its kernel time runs
// past every (skipped) path-walk mediation up to the request itself.
func TestSpanSplitIgnoresSkippedMediation(t *testing.T) {
	k := newWorld(t)
	engine := pf.New(k.Policy, pf.Optimized())
	if _, err := pftables.Install(pfEnv(k), engine, `pftables -o FILE_GETATTR -j ACCEPT`); err != nil {
		t.Fatal(err)
	}
	k.AttachPF(engine)
	reg := obs.New()
	k.AttachObs(reg, ObsConfig{SampleEvery: 1})
	p := newRoot(k, "httpd_t", "/usr/bin/apache2")
	if _, err := p.Stat("/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	walk := reg.HistogramSnapshots("kernel_mediation_latency_ns")[""]
	spans := k.Tracer().Snapshot()
	if len(spans) != 1 || spans[0].Op != "FILE_GETATTR" {
		t.Fatalf("spans = %+v, want one FILE_GETATTR span", spans)
	}
	sp := spans[0]
	if sp.CheckNs != 0 || sp.TotalNs != sp.GauntletNs {
		t.Errorf("FILE_GETATTR span check=%dns total=%dns gauntlet=%dns: a skipped mediation's stamp leaked into its split",
			sp.CheckNs, sp.TotalNs, sp.GauntletNs)
	}
	if walk.Count == 0 || sp.KernelNs < walk.Sum {
		t.Errorf("FILE_GETATTR span kernel=%dns, want at least the %d path-walk mediations' %dns",
			sp.KernelNs, walk.Count, walk.Sum)
	}
}

func TestTraceSampling(t *testing.T) {
	k, _ := traceWorld(t, 4) // every 4th syscall
	// Three syscalls per iteration so the power-of-two sample mask does
	// not alias onto a single syscall kind in the loop.
	p := newRoot(k, "httpd_t", "/usr/bin/apache2")
	for i := 0; i < 64; i++ {
		fd, err := p.Open("/etc/passwd", O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Fstat(fd); err != nil {
			t.Fatal(err)
		}
		_ = p.Close(fd)
	}
	total := k.Tracer().Total()
	if total == 0 {
		t.Fatal("sampled tracing produced no spans")
	}
	// 192 syscalls at 1-in-4 sampling: a quarter of them span; each open
	// spans several mediations, but far fewer publish than tracing
	// everything would.
	every1 := uint64(0)
	{
		k2, _ := traceWorld(t, 1)
		p2 := newRoot(k2, "httpd_t", "/usr/bin/apache2")
		for i := 0; i < 64; i++ {
			fd, err := p2.Open("/etc/passwd", O_RDONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p2.Fstat(fd); err != nil {
				t.Fatal(err)
			}
			_ = p2.Close(fd)
		}
		every1 = k2.Tracer().Total()
	}
	if total*2 >= every1 {
		t.Errorf("1-in-4 sampling published %d spans, full tracing %d; want far fewer", total, every1)
	}
}

// A signal delivery is a request of the kill that sends it: on a sampled
// kill it carries a timed span in the kill's batch, which the gauntlet
// histogram observes; a delivery the firewall drops outside a sampled
// kill is an untimed DROP span, still named by its syscall.
func TestSignalDeliverySharesKillSampling(t *testing.T) {
	for _, every := range []int{1, math.MaxInt} {
		k := newWorld(t)
		engine := pf.New(k.Policy, pf.Optimized())
		if _, err := pftables.Install(pfEnv(k), engine, `pftables -o PROCESS_SIGNAL_DELIVERY -s httpd_t -j DROP`); err != nil {
			t.Fatal(err)
		}
		k.AttachPF(engine)
		reg := obs.New()
		k.AttachObs(reg, ObsConfig{SampleEvery: every})
		open := newRoot(k, "sshd_t", "/usr/sbin/sshd")
		guarded := newRoot(k, "httpd_t", "/usr/bin/apache2")
		root := newRoot(k, "sshd_t", "/usr/sbin/sshd")
		if err := root.Kill(open.PID(), SIGUSR1); err != nil {
			t.Fatal(err)
		}
		if err := root.Kill(guarded.PID(), SIGUSR1); !errors.Is(err, ErrPFDenied) {
			t.Fatalf("kill httpd_t: %v, want ErrPFDenied", err)
		}
		timed := every == 1
		want := []struct {
			pid     int
			subject string
			verdict string
		}{{open.PID(), "sshd_t", "ACCEPT"}, {guarded.PID(), "httpd_t", "DROP"}}
		if !timed {
			want = want[1:]
		}
		var spans []obs.Span
		for _, sp := range k.Tracer().Snapshot() {
			if sp.Op == "PROCESS_SIGNAL_DELIVERY" {
				spans = append(spans, sp)
			}
		}
		if len(spans) != len(want) {
			t.Fatalf("period %d: delivery spans %+v, want %d", every, spans, len(want))
		}
		for i, sp := range spans {
			if sp.Syscall != "kill" || sp.PID != want[i].pid || sp.Subject != want[i].subject || sp.Verdict != want[i].verdict {
				t.Errorf("period %d: delivery span identity = %+v, want %+v", every, sp, want[i])
			}
			if (sp.Flags&obs.SpanUntimed == 0) != timed || timed && (sp.GauntletNs == 0 || sp.SyscallSeq == 0) {
				t.Errorf("period %d: delivery span timing = %+v", every, sp)
			}
		}
		if n, want := gauntletCounts(reg)["PROCESS_SIGNAL_DELIVERY"], map[bool]uint64{true: 2}[timed]; n != want {
			t.Errorf("period %d: delivery gauntlet histogram counts %d, want %d", every, n, want)
		}
	}
}
