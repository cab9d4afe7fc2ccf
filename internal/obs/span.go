package obs

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is the decision-provenance layer: a fixed-size Span record that
// explains one mediated request — which chains it traversed, which rule
// decided it (with its ruleset source position), which caches hit, and how
// the latency split across kernel → DAC/MAC → gauntlet — plus the Tracer
// that keeps spans in a flight ring and fans them out to live subscribers.
// Every request of a sampled syscall carries a timed span, and every DROP
// is published as one (untimed outside a sampled syscall). Spans are
// embedded by value in the kernel's per-syscall mediation scratch, so
// neither kind allocates; the schema is deliberately the one a future
// learning mode will mine.

// SpanFlags is a bitfield of provenance facts about one mediated request.
type SpanFlags uint32

const (
	// SpanBatch marks a request that was not the first mediation of its
	// syscall (BatchIndex > 0): one of several requests amortized over a
	// single gauntlet setup, e.g. the per-component walk of a path.
	SpanBatch SpanFlags = 1 << iota
	// SpanEptCacheHit: the entrypoint context was served from the per-proc
	// unwind cache (stack and address-space generations unchanged).
	SpanEptCacheHit
	// SpanEptUnwound: the user stack was actually unwound for this request.
	SpanEptUnwound
	// SpanDcacheHit / SpanDcacheMiss: how the request's object was found
	// during path resolution. Both clear means no lookup was attributable
	// (fd-based syscalls, IPC resources, the syscall-begin probe).
	SpanDcacheHit
	SpanDcacheMiss
	// SpanAdvCacheHit / SpanAdvCacheMiss: whether the adversary-
	// accessibility answer came from the wait-free MAC snapshot. Both clear
	// means no rule needed adversary context.
	SpanAdvCacheHit
	SpanAdvCacheMiss
	// SpanRuleDecided: a rule issued the final verdict; clear means the
	// ruleset default (accept) applied.
	SpanRuleDecided
	// SpanEmptyRuleset: the empty-ruleset fast path accepted the request
	// without entering any chain.
	SpanEmptyRuleset
	// SpanUntimed: a DROP outside a sampled syscall. The span carries the
	// request's identity, verdict and deciding rule, but no chain path,
	// cache bits or latency split.
	SpanUntimed
)

// spanFlagNames is ordered by bit position, for the derived flag_names
// JSON field.
var spanFlagNames = []string{
	"batch",
	"ept_cache_hit",
	"ept_unwound",
	"dcache_hit",
	"dcache_miss",
	"adv_cache_hit",
	"adv_cache_miss",
	"rule_decided",
	"empty_ruleset",
	"untimed",
}

// Names expands the bitfield into its symbolic names, bit order.
func (f SpanFlags) Names() []string {
	var out []string
	for i, n := range spanFlagNames {
		if f&(1<<uint(i)) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// SpanChainMax bounds the recorded chain path so the record stays
// fixed-size: the first SpanChainMax chains a request enters are kept and
// deeper ones dropped. The engine sets no jump-depth limit of its own; it
// refuses to commit a jump cycle, so every path is finite, not short.
const SpanChainMax = 4

// Span is one request's provenance record. It is fixed-size — every string
// field is an interned or pre-existing string (operation names, verdict
// names, ruleset file names, resolved paths), so filling a span performs no
// allocation; the record itself lives in per-syscall scratch and is copied
// by value into the tracer ring and subscriber channels.
//
// Latency split, all monotonic nanoseconds (all zero on a SpanUntimed
// span):
//
//	KernelNs   syscall entry → this request's mediation start
//	CheckNs    DAC + MAC checks ahead of the gauntlet (0 when the request
//	           reached the firewall without a vfs mediation wrapper)
//	GauntletNs pf.Batch.Filter entry → verdict
//	TotalNs    mediation start → verdict (CheckNs + GauntletNs)
type Span struct {
	Seq          uint64 // tracer-assigned publish ordinal (1-based)
	TimeUnixNano int64  // wall-clock publish stamp
	PID          int
	SyscallSeq   uint64 // kernel-wide syscall ordinal; groups batch members
	BatchIndex   uint32 // request ordinal within its syscall (0 = first)
	Flags        SpanFlags

	Syscall string // syscall name ("open", "connect", ...)
	Op      string // firewall operation ("FILE_OPEN", ...)
	Verdict string // "ACCEPT" or "DROP"
	Subject string // subject label of the mediating process
	Path    string // object path, when the resource has one

	// Deciding rule, valid when SpanRuleDecided is set. The source position
	// is kept as separate fields so recording never renders a string; use
	// RuleSrc (or the rule_src JSON field) for display.
	RuleFile   string
	RuleLine   int
	RuleCol    int
	RuleTarget string // target name of the deciding rule ("DROP", "ACCEPT", "LOG", ...)

	RulesEvaluated uint32 // rules the gauntlet evaluated for this request

	KernelNs   uint64
	CheckNs    uint64
	GauntletNs uint64
	TotalNs    uint64

	chain    [SpanChainMax]string
	chainLen uint8
}

// PushChain records entry into a chain. Beyond SpanChainMax entries the
// record truncates silently; no allocation either way.
func (s *Span) PushChain(name string) {
	if int(s.chainLen) < SpanChainMax {
		s.chain[s.chainLen] = name
		s.chainLen++
	}
}

// Chains returns the recorded chain path, oldest first. The slice aliases
// the span's fixed buffer; callers that retain it must copy.
func (s *Span) Chains() []string {
	return s.chain[:s.chainLen]
}

// RuleSrc renders the deciding rule's source position ("file:line:col"),
// or "" when no rule decided the request. Allocates; display/export only.
func (s *Span) RuleSrc() string {
	if s.Flags&SpanRuleDecided == 0 || s.RuleFile == "" && s.RuleLine == 0 {
		return ""
	}
	b := make([]byte, 0, len(s.RuleFile)+8)
	b = append(b, s.RuleFile...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(s.RuleLine), 10)
	if s.RuleCol > 0 {
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(s.RuleCol), 10)
	}
	return string(b)
}

// spanJSON is the wire schema. rule_src and flag_names are derived on
// marshal and ignored on unmarshal (flags is authoritative), so a
// marshal → unmarshal → marshal round trip is byte-stable.
type spanJSON struct {
	Seq            uint64   `json:"seq"`
	TimeUnixNano   int64    `json:"time_unix_nano"`
	PID            int      `json:"pid"`
	SyscallSeq     uint64   `json:"syscall_seq"`
	BatchIndex     uint32   `json:"batch_index"`
	Flags          uint32   `json:"flags"`
	FlagNames      []string `json:"flag_names,omitempty"`
	Syscall        string   `json:"syscall,omitempty"`
	Op             string   `json:"op"`
	Verdict        string   `json:"verdict"`
	Subject        string   `json:"subject,omitempty"`
	Path           string   `json:"path,omitempty"`
	Chains         []string `json:"chains,omitempty"`
	RuleSrc        string   `json:"rule_src,omitempty"`
	RuleFile       string   `json:"rule_file,omitempty"`
	RuleLine       int      `json:"rule_line,omitempty"`
	RuleCol        int      `json:"rule_col,omitempty"`
	RuleTarget     string   `json:"rule_target,omitempty"`
	RulesEvaluated uint32   `json:"rules_evaluated,omitempty"`
	KernelNs       uint64   `json:"kernel_ns"`
	CheckNs        uint64   `json:"check_ns"`
	GauntletNs     uint64   `json:"gauntlet_ns"`
	TotalNs        uint64   `json:"total_ns"`
}

// MarshalJSON encodes the span's wire schema. Export/display only; never
// called on the mediation path.
func (s *Span) MarshalJSON() ([]byte, error) {
	var chains []string
	if s.chainLen > 0 {
		chains = append(chains, s.chain[:s.chainLen]...)
	}
	return json.Marshal(spanJSON{
		Seq: s.Seq, TimeUnixNano: s.TimeUnixNano, PID: s.PID,
		SyscallSeq: s.SyscallSeq, BatchIndex: s.BatchIndex,
		Flags: uint32(s.Flags), FlagNames: s.Flags.Names(),
		Syscall: s.Syscall, Op: s.Op, Verdict: s.Verdict,
		Subject: s.Subject, Path: s.Path, Chains: chains,
		RuleSrc: s.RuleSrc(), RuleFile: s.RuleFile, RuleLine: s.RuleLine,
		RuleCol: s.RuleCol, RuleTarget: s.RuleTarget,
		RulesEvaluated: s.RulesEvaluated,
		KernelNs:       s.KernelNs, CheckNs: s.CheckNs,
		GauntletNs: s.GauntletNs, TotalNs: s.TotalNs,
	})
}

// UnmarshalJSON decodes the wire schema back into a span.
func (s *Span) UnmarshalJSON(data []byte) error {
	var j spanJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = Span{
		Seq: j.Seq, TimeUnixNano: j.TimeUnixNano, PID: j.PID,
		SyscallSeq: j.SyscallSeq, BatchIndex: j.BatchIndex,
		Flags:   SpanFlags(j.Flags),
		Syscall: j.Syscall, Op: j.Op, Verdict: j.Verdict,
		Subject: j.Subject, Path: j.Path,
		RuleFile: j.RuleFile, RuleLine: j.RuleLine, RuleCol: j.RuleCol,
		RuleTarget:     j.RuleTarget,
		RulesEvaluated: j.RulesEvaluated,
		KernelNs:       j.KernelNs, CheckNs: j.CheckNs,
		GauntletNs: j.GauntletNs, TotalNs: j.TotalNs,
	}
	for _, c := range j.Chains {
		s.PushChain(c)
	}
	return nil
}

// TraceConfig parameterizes a Tracer.
type TraceConfig struct {
	// RingSize is the span flight-recorder capacity (default 256, rounded
	// up to a power of two so a publish indexes the ring with a mask).
	RingSize int
	// SubBuf is the per-subscriber channel depth (default 64). A slow
	// subscriber drops spans rather than stalling mediation.
	SubBuf int
}

// SpanSub is one live subscription. Spans are delivered by value on C;
// deliveries that would block are counted in Drops instead.
type SpanSub struct {
	id    uint64
	ch    chan Span
	drops atomic.Uint64
}

// C is the subscriber's delivery channel. It is closed by Unsubscribe.
func (s *SpanSub) C() <-chan Span { return s.ch }

// Drops reports spans dropped because this subscriber's buffer was full.
func (s *SpanSub) Drops() uint64 { return s.drops.Load() }

// subSet is the published subscriber list; swapped wholesale on
// subscribe/unsubscribe so Publish reads it without locks.
type subSet struct {
	subs []*SpanSub
}

// Tracer keeps published spans in a bounded ring — the flight recorder —
// and fans them out to subscribers. Publish is called from the kernel's
// syscall layer (never from inside the gauntlet closure): a short mutex
// guards the ring slots, while the subscriber list and mute set are read
// via atomic snapshots.
type Tracer struct {
	name string

	seq   atomic.Uint64
	drops atomic.Uint64 // total spans dropped across all subscribers

	mu    sync.Mutex
	slots []Span

	subMu  sync.Mutex // guards copy-on-write of subs and muted
	nextID uint64
	subs   atomic.Pointer[subSet]
	muted  atomic.Pointer[map[int]struct{}]

	subBuf int
}

// NewTracer creates a standalone tracer. Most callers want
// Registry.Tracer, which also exports the ring.
func NewTracer(name string, cfg TraceConfig) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	ring := 1
	for ring < cfg.RingSize {
		ring <<= 1
	}
	if cfg.SubBuf <= 0 {
		cfg.SubBuf = 64
	}
	t := &Tracer{name: name, slots: make([]Span, ring), subBuf: cfg.SubBuf}
	t.subs.Store(&subSet{})
	empty := map[int]struct{}{}
	t.muted.Store(&empty)
	return t
}

// Name returns the tracer's registered name.
func (t *Tracer) Name() string { return t.name }

// Publish assigns the span its sequence number, records it in the ring,
// and fans it out to subscribers (dropping, never blocking). Spans from
// muted pids are discarded — that is what breaks the feedback loop when
// the trace stream itself is carried over mediated in-simulation sockets.
func (t *Tracer) Publish(sp *Span) {
	if m := t.muted.Load(); len(*m) > 0 {
		if _, ok := (*m)[sp.PID]; ok {
			return
		}
	}
	sp.Seq = t.seq.Add(1)
	t.mu.Lock()
	t.slots[(sp.Seq-1)&uint64(len(t.slots)-1)] = *sp
	t.mu.Unlock()
	if ss := t.subs.Load(); len(ss.subs) > 0 {
		for _, sub := range ss.subs {
			select {
			case sub.ch <- *sp:
			default:
				sub.drops.Add(1)
				t.drops.Add(1)
			}
		}
	}
}

// Total reports spans published (including those since evicted).
func (t *Tracer) Total() uint64 { return t.seq.Load() }

// Dropped reports spans dropped across all subscribers.
func (t *Tracer) Dropped() uint64 { return t.drops.Load() }

// Subscribers reports the current live subscription count.
func (t *Tracer) Subscribers() int { return len(t.subs.Load().subs) }

// Subscribe registers a live span consumer with the tracer's default
// buffer depth.
func (t *Tracer) Subscribe() *SpanSub { return t.SubscribeBuf(0) }

// SubscribeBuf registers a live span consumer with an explicit channel
// depth (<= 0 uses the tracer default). Relays that fan out to further
// consumers use a deep buffer so a synchronous burst of publishes does
// not overrun them before their goroutine is scheduled.
func (t *Tracer) SubscribeBuf(buf int) *SpanSub {
	if buf <= 0 {
		buf = t.subBuf
	}
	t.subMu.Lock()
	defer t.subMu.Unlock()
	t.nextID++
	sub := &SpanSub{id: t.nextID, ch: make(chan Span, buf)}
	cur := t.subs.Load()
	next := &subSet{subs: make([]*SpanSub, 0, len(cur.subs)+1)}
	next.subs = append(next.subs, cur.subs...)
	next.subs = append(next.subs, sub)
	t.subs.Store(next)
	return sub
}

// Unsubscribe removes the subscription and closes its channel. Safe to
// call at most once per subscription; unknown subscriptions are ignored.
func (t *Tracer) Unsubscribe(sub *SpanSub) {
	t.subMu.Lock()
	defer t.subMu.Unlock()
	cur := t.subs.Load()
	next := &subSet{subs: make([]*SpanSub, 0, len(cur.subs))}
	found := false
	for _, s := range cur.subs {
		if s.id == sub.id {
			found = true
			continue
		}
		next.subs = append(next.subs, s)
	}
	if !found {
		return
	}
	t.subs.Store(next)
	close(sub.ch)
}

// Mute discards future spans whose PID matches. Used by the span stream's
// own server/client processes so the transport cannot trace itself into a
// feedback loop.
func (t *Tracer) Mute(pid int) {
	t.subMu.Lock()
	defer t.subMu.Unlock()
	cur := t.muted.Load()
	next := make(map[int]struct{}, len(*cur)+1)
	for k := range *cur {
		next[k] = struct{}{}
	}
	next[pid] = struct{}{}
	t.muted.Store(&next)
}

// Unmute re-enables spans for pid.
func (t *Tracer) Unmute(pid int) {
	t.subMu.Lock()
	defer t.subMu.Unlock()
	cur := t.muted.Load()
	next := make(map[int]struct{}, len(*cur))
	for k := range *cur {
		if k != pid {
			next[k] = struct{}{}
		}
	}
	t.muted.Store(&next)
}

// Snapshot returns the ring's current spans ordered by sequence number,
// oldest first.
func (t *Tracer) Snapshot() []Span {
	t.mu.Lock()
	out := make([]Span, 0, len(t.slots))
	for i := range t.slots {
		if t.slots[i].Seq != 0 {
			out = append(out, t.slots[i])
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
