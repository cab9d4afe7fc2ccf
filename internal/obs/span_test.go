package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestTracerRingAndSeq(t *testing.T) {
	tr := NewTracer("t", TraceConfig{RingSize: 4})
	for i := 0; i < 6; i++ {
		sp := Span{Op: "FILE_OPEN", PID: i}
		tr.Publish(&sp)
	}
	if tr.Total() != 6 {
		t.Fatalf("total = %d, want 6", tr.Total())
	}
	got := tr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring keeps %d spans, want 4", len(got))
	}
	for i, sp := range got {
		if want := uint64(3 + i); sp.Seq != want {
			t.Errorf("snapshot[%d].Seq = %d, want %d (oldest-first, newest kept)", i, sp.Seq, want)
		}
	}
}

func TestTracerSubscribeFanoutAndDrops(t *testing.T) {
	tr := NewTracer("t", TraceConfig{RingSize: 8, SubBuf: 2})
	a, b := tr.Subscribe(), tr.Subscribe()
	if tr.Subscribers() != 2 {
		t.Fatalf("subscribers = %d", tr.Subscribers())
	}
	for i := 0; i < 5; i++ {
		tr.Publish(&Span{PID: i})
	}
	// Each buffer holds 2; 3 spans dropped per subscriber.
	if a.Drops() != 3 || b.Drops() != 3 {
		t.Errorf("drops = %d/%d, want 3/3", a.Drops(), b.Drops())
	}
	if tr.Dropped() != 6 {
		t.Errorf("tracer dropped = %d, want 6", tr.Dropped())
	}
	if sp := <-a.C(); sp.PID != 0 {
		t.Errorf("first delivered span PID = %d, want 0", sp.PID)
	}
	tr.Unsubscribe(a)
	if _, ok := <-a.C(); ok {
		// One span was still buffered; the channel must drain then close.
		if _, ok := <-a.C(); ok {
			t.Error("unsubscribed channel did not close")
		}
	}
	tr.Unsubscribe(a) // double-unsubscribe is a no-op, must not panic
	if tr.Subscribers() != 1 {
		t.Errorf("subscribers after unsubscribe = %d, want 1", tr.Subscribers())
	}
}

func TestTracerMute(t *testing.T) {
	tr := NewTracer("t", TraceConfig{})
	tr.Mute(7)
	tr.Publish(&Span{PID: 7})
	tr.Publish(&Span{PID: 8})
	if tr.Total() != 1 {
		t.Fatalf("muted pid published; total = %d, want 1", tr.Total())
	}
	tr.Unmute(7)
	tr.Publish(&Span{PID: 7})
	if tr.Total() != 2 {
		t.Fatalf("unmuted pid silent; total = %d, want 2", tr.Total())
	}
}

func TestSpanChainTruncates(t *testing.T) {
	var sp Span
	for _, c := range []string{"a", "b", "c", "d", "e", "f"} {
		sp.PushChain(c)
	}
	got := sp.Chains()
	if len(got) != SpanChainMax {
		t.Fatalf("chain len = %d, want %d", len(got), SpanChainMax)
	}
	if got[0] != "a" || got[SpanChainMax-1] != "d" {
		t.Errorf("chain = %v, want first %d entries kept", got, SpanChainMax)
	}
}

func TestSpanRuleSrc(t *testing.T) {
	sp := Span{Flags: SpanRuleDecided, RuleFile: "web.pft", RuleLine: 12, RuleCol: 3}
	if got := sp.RuleSrc(); got != "web.pft:12:3" {
		t.Errorf("RuleSrc = %q", got)
	}
	sp.RuleCol = 0
	if got := sp.RuleSrc(); got != "web.pft:12" {
		t.Errorf("RuleSrc without col = %q", got)
	}
	var empty Span
	if got := empty.RuleSrc(); got != "" {
		t.Errorf("undecided RuleSrc = %q, want empty", got)
	}
	// A decoded span may carry any int: the most negative renders whole.
	sp.RuleLine = math.MinInt64
	if got := sp.RuleSrc(); got != "web.pft:-9223372036854775808" {
		t.Errorf("RuleSrc of line MinInt64 = %q", got)
	}
}

func TestRegistryFamilyKindMixPanics(t *testing.T) {
	r := New()
	r.Counter("m_total", "", L("op", "A"))
	defer func() {
		if recover() == nil {
			t.Fatal("registering a histogram under a counter family must panic")
		}
	}()
	// Different label set, same family name, different kind: the
	// family-level check must reject it even though the series is new.
	r.Histogram("m_total", "", L("op", "B"))
}

func TestRegistryTracerDedupe(t *testing.T) {
	r := New()
	a := r.Tracer("spans", TraceConfig{RingSize: 8})
	b := r.Tracer("spans", TraceConfig{RingSize: 999})
	if a != b {
		t.Fatal("same tracer name must return the same tracer")
	}
}

// TestExportOrderStable registers the same series in two different orders
// and requires byte-identical Prometheus and JSON exports: ordering is a
// property of the schema, not of registration history.
func TestExportOrderStable(t *testing.T) {
	build := func(reverse bool) *Registry {
		r := New()
		series := []struct {
			name string
			op   string
		}{{"b_total", "y"}, {"a_total", "z"}, {"b_total", "x"}, {"a_total", "a"}}
		if reverse {
			for i, j := 0, len(series)-1; i < j; i, j = i+1, j-1 {
				series[i], series[j] = series[j], series[i]
			}
		}
		for _, s := range series {
			r.Counter(s.name, "help", L("op", s.op)).Add(0, 1)
		}
		tr := r.Tracer("spans", TraceConfig{RingSize: 4})
		tr.Publish(&Span{Op: "FILE_OPEN", Verdict: "ACCEPT"})
		return r
	}
	var p1, p2 bytes.Buffer
	if err := build(false).WritePrometheus(&p1); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WritePrometheus(&p2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Errorf("prometheus export depends on registration order:\n%s\nvs\n%s", &p1, &p2)
	}
	j1, err := json.Marshal(build(false).JSON())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(build(true).JSON())
	if err != nil {
		t.Fatal(err)
	}
	// Timestamps differ; spans carry none here, so the documents compare
	// directly.
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSON export depends on registration order:\n%s\nvs\n%s", j1, j2)
	}
}

func TestJSONExportsSpans(t *testing.T) {
	r := New()
	tr := r.Tracer("spans", TraceConfig{RingSize: 4})
	tr.Publish(&Span{Op: "FILE_OPEN", Verdict: "DROP", PID: 3})
	doc := r.JSON()
	s, ok := doc.Spans["spans"]
	if !ok {
		t.Fatalf("JSON export missing spans section: %+v", doc)
	}
	if s.Total != 1 || len(s.Recent) != 1 {
		t.Fatalf("spans export = %+v", s)
	}
	if s.Recent[0].Verdict != "DROP" || s.Recent[0].PID != 3 {
		t.Errorf("recent span = %+v", s.Recent[0])
	}
}

func TestHistQuantile(t *testing.T) {
	h := New().Histogram("q_ns", "")
	// 90 observations near 1µs, 10 near 1ms: p50 lands in the µs bucket,
	// p99 in the ms bucket.
	for i := 0; i < 90; i++ {
		h.Observe(i, 1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(i, 1_000_000)
	}
	s := h.Snapshot()
	p50, p99 := s.Quantile(0.50), s.Quantile(0.99)
	if p50 < 1000 || p50 > 2048 {
		t.Errorf("p50 = %d, want ~1µs bucket", p50)
	}
	if p99 < 1_000_000 || p99 > 1<<21 {
		t.Errorf("p99 = %d, want ~1ms bucket", p99)
	}
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}
