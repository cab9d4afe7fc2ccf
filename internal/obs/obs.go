// Package obs is the process-wide, lock-free observability layer of the
// mediation stack. It answers, for a running system, the questions the
// paper's operational story depends on — how many FILE_OPENs were
// mediated, at what latency, with what cache hit rates, and what got
// dropped in the last minute (Section 6.1.2's denial review, Section 7's
// syscall-granularity overhead measurement) — without ever taking a lock
// on the hot path.
//
// Design:
//
//   - Metrics are registered once, at wire-up time, against a fixed, low
//     cardinality (op × verdict × chain). Registration returns the raw
//     sharded primitive (Counter, Histogram); the hot path touches only
//     that pointer — no map lookups, no interface calls, no locks.
//   - The registry's metric list is itself an immutable snapshot behind an
//     atomic pointer (the same RCU discipline as the PF ruleset), so
//     exporters never block writers and registration never blocks readers.
//   - Cheap always-on subsystem counters (the vfs dcache atomics, the MAC
//     adversary-cache counters, IPC byte counts) are not duplicated: the
//     registry samples them at export time through CounterFunc/GaugeFunc.
//   - Spans (span.go) are the one timed record: the kernel samples one
//     syscall in N at entry, every request of a sampled syscall carries a
//     timed span, and the latency histograms observe those spans' stamps;
//     counters are exact. The tracer's ring is the flight recorder, and
//     every DROP is published there as a span, timed or not.
//   - The disabled path is a single nil check at each instrumentation
//     point: a system built without a registry pays one predictable branch.
//
// Exporters: Prometheus text exposition (WritePrometheus), expvar-style
// JSON (WriteJSON/MarshalJSON), and an optional net/http handler serving
// both (Handler).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {op, FILE_OPEN}.
type Label struct {
	Key   string
	Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric kinds. Funcs sample external atomics at export time.
type kind uint8

const (
	kindCounter kind = iota
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

func (k kind) promType() string {
	switch k {
	case kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// metric is one registered series.
type metric struct {
	name   string
	help   string
	labels []Label
	kind   kind

	counter *Counter
	fn      func() uint64
	hist    *Histogram
}

// value reads the scalar kinds.
func (m *metric) value() uint64 {
	if m.fn != nil {
		return m.fn()
	}
	return m.counter.Load()
}

// labelString renders the Prometheus label block, "" when unlabeled.
func (m *metric) labelString(extra ...Label) string {
	ls := m.labels
	if len(extra) > 0 {
		ls = append(append([]Label(nil), ls...), extra...)
	}
	if len(ls) == 0 {
		return ""
	}
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, escapeLabel(l.Value))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// jsonKey renders the label set as the expvar-style map key,
// "op=FILE_OPEN,verdict=ACCEPT"; "" when unlabeled.
func (m *metric) jsonKey() string {
	if len(m.labels) == 0 {
		return ""
	}
	parts := make([]string, len(m.labels))
	for i, l := range m.labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// escapeLabel applies Prometheus label-value escaping.
func escapeLabel(v string) string { return v } // %q in labelString already escapes \ " and \n

// key uniquely identifies a series for idempotent registration.
func seriesKey(name string, labels []Label) string {
	b := strings.Builder{}
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('\xff')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// snapshot is the immutable export view.
type snapshot struct {
	metrics []*metric // sorted by (name, labelString)
	tracers []*Tracer // sorted by name
}

// Registry owns the process-wide metric set. Registration is serialized;
// the hot path and the exporters are lock-free.
type Registry struct {
	mu       sync.Mutex
	byKey    map[string]*metric
	byFamily map[string]kind // metric family name -> kind, for mixed-kind rejection
	tracers  map[string]*Tracer
	snap     atomic.Pointer[snapshot]
}

// New returns an empty registry.
func New() *Registry {
	r := &Registry{
		byKey:    make(map[string]*metric),
		byFamily: make(map[string]kind),
		tracers:  make(map[string]*Tracer),
	}
	r.snap.Store(&snapshot{})
	return r
}

// register inserts m (or returns the existing series with the same name
// and labels — registration is deterministic and idempotent: the first
// registration of a series wins and every duplicate resolves to it, so
// re-attaching a subsystem is harmless and export output never depends on
// attach order). Kind mismatches — whether on the exact series or between
// series sharing a family name, which would emit contradictory Prometheus
// TYPE lines — are programmer errors and panic.
func (r *Registry) register(m *metric) *metric {
	key := seriesKey(m.name, m.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byKey[key]; ok {
		if old.kind != m.kind {
			panic(fmt.Sprintf("obs: series %s re-registered as a different kind", m.name))
		}
		return old
	}
	if fk, ok := r.byFamily[m.name]; ok && fk != m.kind {
		panic(fmt.Sprintf("obs: metric family %s mixes kinds (%s and %s)", m.name, fk.promType(), m.kind.promType()))
	}
	r.byFamily[m.name] = m.kind
	r.byKey[key] = m
	r.publishLocked()
	return m
}

// publishLocked rebuilds the sorted export snapshot.
func (r *Registry) publishLocked() {
	ms := make([]*metric, 0, len(r.byKey))
	for _, m := range r.byKey {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].jsonKey() < ms[j].jsonKey()
	})
	ts := make([]*Tracer, 0, len(r.tracers))
	for _, t := range r.tracers {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	r.snap.Store(&snapshot{metrics: ms, tracers: ts})
}

// Counter registers (or finds) a sharded counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(&metric{name: name, help: help, labels: labels, kind: kindCounter, counter: &Counter{}})
	return m.counter
}

// CounterFunc registers a counter series whose value is sampled from fn at
// export time — used to surface always-on subsystem atomics (dcache hits,
// adversary-cache hits, engine verdict totals) without double counting.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(&metric{name: name, help: help, labels: labels, kind: kindCounterFunc, fn: fn})
}

// GaugeFunc registers a gauge series sampled from fn at export time.
func (r *Registry) GaugeFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(&metric{name: name, help: help, labels: labels, kind: kindGaugeFunc, fn: fn})
}

// Histogram registers (or finds) a latency histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	m := r.register(&metric{name: name, help: help, labels: labels, kind: kindHistogram, hist: &Histogram{}})
	return m.hist
}

// HistogramSnapshots reads every histogram series of one family, keyed by
// the series' expvar-style label string ("op=FILE_OPEN"; "" when
// unlabeled). Front-ends use it to derive quantile summaries from the
// already-exported histograms instead of keeping separate state.
func (r *Registry) HistogramSnapshots(family string) map[string]HistSnapshot {
	out := map[string]HistSnapshot{}
	for _, m := range r.snap.Load().metrics {
		if m.kind == kindHistogram && m.name == family {
			out[m.jsonKey()] = m.hist.Snapshot()
		}
	}
	return out
}

// Tracer registers (or finds) a named provenance-span tracer, attaching
// its flight ring to the registry's JSON export.
func (r *Registry) Tracer(name string, cfg TraceConfig) *Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.tracers[name]; ok {
		return old
	}
	t := NewTracer(name, cfg)
	r.tracers[name] = t
	r.publishLocked()
	return t
}
