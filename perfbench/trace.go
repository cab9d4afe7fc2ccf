package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// spanName identifies a span the benchmark opens around one exported call
// (or one whole op) it makes. The program's own code is never instrumented.
type spanName uint8

const (
	spHotCycle spanName = iota
	spOpen
	spFstat
	spRead
	spClose
	spStat
	spGetpid
	spServe
	spServeDeep
	spServeSymlink
	spAuth
	spGuardProbe
	spPHPInclude
	spPHPProbe
	spSshdSession
	spFork
	spExecve
	spDbusRoundtrip
	spConnect
	spAccept
	spSendmmsg
	spRecvmmsg
	spAdversary
	spApply
	spCanary
	spRead0 // first page read after a publish
	spReadN // later page reads
	spInstall
	spWorldBuild
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"hot_cycle", "kernel.open", "kernel.fstat", "kernel.read", "kernel.close",
	"kernel.stat", "kernel.getpid", "programs.serve", "programs.serve_deep",
	"programs.serve_symlink", "programs.auth", "programs.guard_probe",
	"programs.php_include", "programs.php_probe", "programs.sshd_session",
	"kernel.fork", "kernel.execve", "programs.dbus_roundtrip", "ipc.connect",
	"ipc.accept", "ipc.sendmmsg", "ipc.recvmmsg", "programs.adversary_op",
	"policyd.apply", "churn.canary", "churn.read_first", "churn.read",
	"pftables.install", "world.build",
}

// spanGroups are the per-layer metrics read off spans: per op, the summed
// duration of the named spans; the metric is the median over the ops that
// opened at least one of them.
var spanGroups = []struct {
	metric string
	unit   string
	div    float64 // ns per unit
	names  []spanName
}{
	{"kernel.getpid_ns", "ns", 1, []spanName{spGetpid}},
	{"kernel.open_close_ns", "ns", 1, []spanName{spOpen, spClose}},
	{"kernel.stat_ns", "ns", 1, []spanName{spStat}},
	{"kernel.fstat_read_ns", "ns", 1, []spanName{spFstat, spRead}},
	{"kernel.fork_exec_us", "us", 1e3, []spanName{spFork, spExecve}},
	{"ipc.connect_accept_us", "us", 1e3, []spanName{spConnect, spAccept}},
	{"ipc.burst_us", "us", 1e3, []spanName{spSendmmsg, spRecvmmsg}},
	{"programs.serve_us", "us", 1e3, []spanName{spServe}},
	{"programs.serve_deep_us", "us", 1e3, []spanName{spServeDeep}},
	{"programs.serve_symlink_us", "us", 1e3, []spanName{spServeSymlink}},
	{"programs.auth_us", "us", 1e3, []spanName{spAuth}},
	{"programs.guard_probe_us", "us", 1e3, []spanName{spGuardProbe}},
	{"programs.php_include_us", "us", 1e3, []spanName{spPHPInclude}},
	{"programs.php_probe_us", "us", 1e3, []spanName{spPHPProbe}},
	{"programs.sshd_session_us", "us", 1e3, []spanName{spSshdSession}},
	{"programs.dbus_roundtrip_us", "us", 1e3, []spanName{spDbusRoundtrip}},
	{"programs.adversary_op_us", "us", 1e3, []spanName{spAdversary}},
	{"pf.first_read_after_publish_ns", "ns", 1, []spanName{spRead0}},
}

// spanRec is one closed span. Seq numbers are unique per run; parent is
// the enclosing span's seq, or -1 for an op's root span.
type spanRec struct {
	seq, parent int64
	op          int64
	name        spanName
	start, end  int64
}

type openSpan struct {
	seq   int64
	name  spanName
	start int64
	child int64 // summed duration of closed children
}

// ringCap bounds the spans kept for the span file: the last ringCap spans.
const ringCap = 1 << 16

// resCap bounds each per-name and per-group sample reservoir.
const resCap = 1 << 15

// reservoir keeps a uniform sample of at most resCap values.
type reservoir struct {
	n   int64
	buf []uint32
}

func (r *reservoir) add(v uint32, rng *xorshift) {
	r.n++
	if len(r.buf) < resCap {
		r.buf = append(r.buf, v)
		return
	}
	if j := rng.next() % uint64(r.n); j < resCap {
		r.buf[j] = v
	}
}

func (r *reservoir) median() float64 {
	s := slices.Clone(r.buf)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// tracer records the benchmark's spans in memory. A nil tracer, or one
// whose current op is not traced, makes begin/end a single branch.
type tracer struct {
	on    bool
	op    int64
	seq   int64
	stack []openSpan

	ring  []spanRec
	ringN int64

	dur, self [nSpanNames]reservoir
	opSum     [nSpanNames]int64
	opHas     [nSpanNames]bool
	groups    []reservoir
	rng       xorshift
}

func newTracer() *tracer {
	return &tracer{
		ring:   make([]spanRec, ringCap),
		groups: make([]reservoir, len(spanGroups)),
		rng:    xorshift{s: 0x9e3779b97f4a7c15},
	}
}

// beginOp starts op id; traced says whether its spans are recorded. The
// timed phase traces even ops only, so trace.overhead_pct compares two
// interleaved halves of the same rounds.
func (t *tracer) beginOp(id int64, traced bool) {
	if t == nil {
		return
	}
	t.on = traced
	t.op = id
	if traced {
		clear(t.opSum[:])
		clear(t.opHas[:])
	}
}

// endOp folds the op's spans into the group reservoirs.
func (t *tracer) endOp() {
	if t == nil || !t.on {
		return
	}
	for gi, g := range spanGroups {
		var sum int64
		has := false
		for _, n := range g.names {
			if t.opHas[n] {
				has = true
				sum += t.opSum[n]
			}
		}
		if has {
			t.groups[gi].add(toNs(sum), &t.rng)
		}
	}
	t.on = false
}

func (t *tracer) begin(n spanName) {
	if t == nil || !t.on {
		return
	}
	t.seq++
	t.stack = append(t.stack, openSpan{seq: t.seq, name: n, start: nanotime()})
}

func (t *tracer) end() {
	if t == nil || !t.on {
		return
	}
	now := nanotime()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - top.start
	parent := int64(-1)
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
		parent = t.stack[len(t.stack)-1].seq
	}
	t.ring[t.ringN%ringCap] = spanRec{seq: top.seq, parent: parent, op: t.op, name: top.name, start: top.start, end: now}
	t.ringN++
	t.dur[top.name].add(toNs(d), &t.rng)
	t.self[top.name].add(toNs(d-top.child), &t.rng)
	t.opSum[top.name] += d
	t.opHas[top.name] = true
}

// groupMetrics reports every span group's median.
func (t *tracer) groupMetrics(m metricSet) {
	for gi, g := range spanGroups {
		m.put(g.metric, t.groups[gi].median()/g.div, g.unit)
	}
}

// summary lists each span name's count, median duration and median self
// time.
func (t *tracer) summary() map[string][3]float64 {
	out := map[string][3]float64{}
	for n := spanName(0); n < nSpanNames; n++ {
		if t.dur[n].n == 0 {
			continue
		}
		out[spanNames[n]] = [3]float64{float64(t.dur[n].n), t.dur[n].median(), t.self[n].median()}
	}
	return out
}

// writeSpans writes the retained spans (the last ringCap) as CSV.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "seq,parent,op,name,start_ns,end_ns")
	first := int64(0)
	if t.ringN > ringCap {
		first = t.ringN - ringCap
	}
	for i := first; i < t.ringN; i++ {
		s := t.ring[i%ringCap]
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.seq, s.parent, s.op, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
