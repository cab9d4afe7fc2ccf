package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pfirewall/internal/obs"
)

// TestListGolden pins the -L output format: per-rule hit counters,
// per-chain traversal counts, and the verdict-totals footer. The world and
// the canned workload are fully deterministic, so the whole listing is
// byte-stable. The counts reflect the kernel's per-op rule-mask fast path:
// operations no installed rule could match are accepted before a request
// is even built, so only the one LNK_FILE_READ access reaches the engine.
func TestListGolden(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-e", "pftables -o LNK_FILE_READ -d tmp_t -j DROP", "-workload", "-L"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `[filter/input] -d {tmp_t} -o LNK_FILE_READ -j DROP
# 1 rules installed; chains: input, mangle/input, syscallbegin
Chain input (1 rules, traversals=1)
    1  hits=1        -d {tmp_t} -o LNK_FILE_READ -j DROP
Chain mangle/input (0 rules, traversals=0)
Chain syscallbegin (0 rules, traversals=0)
Verdict totals: requests=1 accepts=0 drops=1
`
	if buf.String() != golden {
		t.Errorf("-L output drifted:\n--- got ---\n%s--- want ---\n%s", buf.String(), golden)
	}
}

// TestStatsPromFormat checks the Prometheus exposition for the acceptance
// series: FILE_OPEN and SOCKET_SENDMSG counters and histograms with the
// deterministic workload's counts, plus verdict totals.
func TestStatsPromFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-stats-prom"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pf_mediations_total counter\n",
		"# TYPE pf_gauntlet_latency_ns histogram\n",
		"# TYPE pf_verdicts_total counter\n",
		`pf_mediations_total{op="FILE_OPEN",verdict="ACCEPT"} 8` + "\n",
		`pf_mediations_total{op="SOCKET_SENDMSG",verdict="ACCEPT"} 8` + "\n",
		`pf_gauntlet_latency_ns_bucket{op="FILE_OPEN",le="+Inf"} 8` + "\n",
		`pf_gauntlet_latency_ns_count{op="FILE_OPEN"} 8` + "\n",
		`pf_gauntlet_latency_ns_count{op="SOCKET_SENDMSG"} 8` + "\n",
		`pf_verdicts_total{verdict="DROP"} 1` + "\n",
		`ipc_binds_total{ns="abstract"} 1` + "\n",
		`kernel_syscalls_total{nr="open"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats-prom output missing %q", want)
		}
	}
	// Every sample line parses as "name{labels} value" or "name value".
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, " ") != 1 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestStatsJSONRoundTrip checks that -stats emits a JSON document that
// round-trips through encoding/json and carries the workload's evidence:
// the registry snapshot and the TopN denial summary.
func TestStatsJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-stats output is not valid JSON: %v", err)
	}
	re, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var doc2 map[string]any
	if err := json.Unmarshal(re, &doc2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, doc2) {
		t.Error("-stats JSON does not round-trip through encoding/json")
	}

	metrics, ok := doc["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("metrics section missing: %v", doc)
	}
	counters := metrics["counters"].(map[string]any)
	med := counters["pf_mediations_total"].(map[string]any)
	if got := med["op=FILE_OPEN,verdict=ACCEPT"].(float64); got != 8 {
		t.Errorf("FILE_OPEN accepts = %v, want 8", got)
	}
	if got := med["op=SOCKET_SENDMSG,verdict=ACCEPT"].(float64); got != 8 {
		t.Errorf("SOCKET_SENDMSG accepts = %v, want 8", got)
	}
	var drop map[string]any
	for _, sp := range metrics["spans"].(map[string]any)["pf_spans"].(map[string]any)["recent"].([]any) {
		if sp := sp.(map[string]any); sp["verdict"] == "DROP" {
			drop = sp
		}
	}
	if drop == nil {
		t.Error("span ring captured no drops")
	}
	denials, ok := doc["denials"].([]any)
	if !ok || len(denials) == 0 {
		t.Fatalf("denial summary missing: %v", doc["denials"])
	}
	top := denials[0].(map[string]any)
	if op := top["Key"].(map[string]any)["Op"]; op != "LNK_FILE_READ" {
		t.Errorf("top denial op = %v, want LNK_FILE_READ", op)
	}

	// The load-time analysis summary rides along: the standard base is
	// clean, so every tally except the rule/chain counts is zero.
	checks, ok := doc["checks"].(map[string]any)
	if !ok {
		t.Fatalf("checks section missing: %v", doc)
	}
	if checks["errors"].(float64) != 0 || checks["warnings"].(float64) != 0 {
		t.Errorf("standard base should analyze clean, got %v", checks)
	}
	if checks["rules"].(float64) == 0 {
		t.Errorf("checks should count analyzed rules, got %v", checks)
	}
}

// TestCheckStandardClean pins that the shipped Table 5 rule base passes the
// static analyzer with zero findings of any severity.
func TestCheckStandardClean(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-check", "-standard"}, &buf); err != nil {
		t.Fatalf("pfctl -check -standard: %v\n%s", err, buf.String())
	}
	const golden = "# pfcheck: 13 rules, 4 chains: 0 errors, 0 warnings, 0 infos\n"
	if buf.String() != golden {
		t.Errorf("-check -standard output drifted:\n--- got ---\n%s--- want ---\n%s", buf.String(), golden)
	}
}

// TestCheckFileFindings runs -check over a rule file with one defect of
// each headline class and checks the compiler-style finding lines and the
// non-zero exit.
func TestCheckFileFindings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.pft")
	src := strings.Join([]string{
		"# exercise every analyzer layer",
		"pftables -A input -s sshd_t -j ACCEPT",
		"pftables -A input -s sshd_t -d shadow_t -j DROP",
		"pftables -A input -o NOT_AN_OP -j DROP",
		"pftables -A syscallbegin -o FILE_OPEN -j DROP",
		"pftables -A input -s sshd_tt -o FILE_READ -j DROP",
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"-check", "-f", path}, &buf)
	if err == nil || !strings.Contains(err.Error(), "error finding") {
		t.Fatalf("want error-findings failure, got err=%v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		path + ":3: error: [shadowed]",
		path + ":4:19: error: [parse]",
		path + ":5: error: [never-matches]",
		path + ":6: warning: [unknown-label]",
		"3 errors, 1 warnings",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-check output missing %q:\n%s", want, out)
		}
	}
}

// TestCheckScaleDeterministic runs the analyzer twice over the same
// synthetic base and demands byte-identical stdout.
func TestCheckScaleDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-check", "-scale", "600"}, &a); err != nil {
		t.Fatalf("-check -scale: %v", err)
	}
	if err := run([]string{"-check", "-scale", "600"}, &b); err != nil {
		t.Fatalf("-check -scale: %v", err)
	}
	if a.String() != b.String() {
		t.Error("-check -scale output is not deterministic")
	}
	if !strings.Contains(a.String(), "# pfcheck: 600 rules") {
		t.Errorf("summary line missing:\n%s", a.String())
	}
}

// TestStatsLatencySection checks the -stats per-op latency summary
// derived from the gauntlet histograms: present, sorted by op, and
// carrying the deterministic workload's counts.
func TestStatsLatencySection(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-stats"}, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Latency []struct {
			Op    string `json:"op"`
			Count uint64 `json:"count"`
			P50Ns uint64 `json:"p50_ns"`
			P99Ns uint64 `json:"p99_ns"`
		} `json:"latency"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Latency) == 0 {
		t.Fatal("-stats has no latency section")
	}
	byOp := map[string]uint64{}
	for i, l := range doc.Latency {
		if l.P50Ns == 0 || l.P99Ns < l.P50Ns {
			t.Errorf("%s: implausible quantiles p50=%d p99=%d", l.Op, l.P50Ns, l.P99Ns)
		}
		if i > 0 && doc.Latency[i-1].Op >= l.Op {
			t.Errorf("latency section not sorted by op: %q >= %q", doc.Latency[i-1].Op, l.Op)
		}
		byOp[l.Op] = l.Count
	}
	if byOp["FILE_OPEN"] != 8 {
		t.Errorf("FILE_OPEN latency count = %d, want 8", byOp["FILE_OPEN"])
	}
	if byOp["LNK_FILE_READ"] != 1 {
		t.Errorf("LNK_FILE_READ latency count = %d, want 1", byOp["LNK_FILE_READ"])
	}
}

// TestTraceStreamsSpans runs the canned workload under -trace and checks
// the streamed span lines: accepted opens with per-layer latency, and the
// link-walk denial naming the deciding rule's source position.
func TestTraceStreamsSpans(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-trace"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"FILE_OPEN /etc/passwd -> ACCEPT",
		"LNK_FILE_READ /tmp/trap -> DROP rule=<standard>:13(DROP)",
		"kernel=", "check=", "gauntlet=", "total=",
		"[batch", "dcache_hit",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-trace output missing %q:\n%s", want, out)
		}
	}
	// Every span line carries the full latency split.
	spans := 0
	for _, line := range strings.Split(out, "\n") {
		if len(line) < 2 || line[0] != '#' || line[1] < '0' || line[1] > '9' {
			continue // rule chatter and comments, not span lines
		}
		spans++
		for _, part := range []string{" kernel=", " check=", " gauntlet=", " total="} {
			if !strings.Contains(line, part) {
				t.Errorf("span line missing %q: %s", part, line)
			}
		}
	}
	if spans < 50 {
		t.Errorf("only %d span lines streamed, want the workload's full trace", spans)
	}
}

// TestTopRendersFleetView runs a short traced fleet under -top and checks
// the aggregated frame: header with stream health and per
// tenant/persona/op rows with quantiles.
func TestTopRendersFleetView(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-world", "tiny", "-fleet", "2", "-duration", "300ms", "-top", "-trace-every", "4"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "pfctl top — ") {
		t.Fatalf("-top frame header missing:\n%s", out)
	}
	if !strings.Contains(out, "TENANT") || !strings.Contains(out, "PERSONA") || !strings.Contains(out, "P99") {
		t.Errorf("-top column header missing:\n%s", out)
	}
	// The tiny fleet always walks directories; at 1-in-4 sampling the
	// busiest buckets must include persona'd DIR_SEARCH rows.
	if !strings.Contains(out, "DIR_SEARCH") {
		t.Errorf("-top shows no DIR_SEARCH bucket:\n%s", out)
	}
}

// TestCheckExitsNonZeroOnErrorFindings: -check must fail the process when
// the analyzer reports an error-class finding (here: a parse error), and
// succeed on a clean ruleset.
func TestCheckExitsNonZeroOnErrorFindings(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-check", "-e", "pftables -R input -j DROP"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "error finding") {
		t.Fatalf("err = %v, want error-finding failure\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "-R requires a 1-based rule position") {
		t.Errorf("finding not printed:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-check", "-e", "pftables -o FILE_OPEN -d tmp_t -j DROP"}, &buf); err != nil {
		t.Fatalf("clean ruleset: %v", err)
	}
}

// TestCheckJSON pins -check -json: a machine-readable report with rendered
// positions, still failing on error findings.
func TestCheckJSON(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-check", "-json", "-e", "pftables -A input --tag web -j DROP"}, &buf)
	if err == nil {
		t.Fatal("want non-zero on error finding")
	}
	var doc struct {
		Findings []struct {
			Severity string `json:"severity"`
			Pos      string `json:"pos"`
			Col      int    `json:"col"`
		} `json:"findings"`
	}
	if jerr := json.Unmarshal(buf.Bytes(), &doc); jerr != nil {
		t.Fatalf("not JSON: %v\n%s", jerr, buf.String())
	}
	if len(doc.Findings) != 1 || doc.Findings[0].Severity != "error" || doc.Findings[0].Col != 19 {
		t.Errorf("findings = %+v, want one error at col 19", doc.Findings)
	}
}

// TestVerifyProvesStandardInvariants: -verify over the paper ruleset and
// its shipped invariant file proves every property.
func TestVerifyProvesStandardInvariants(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-verify", "-standard", "-inv", "../../examples/rules/standard.inv"}, &buf)
	if err != nil {
		t.Fatalf("verify: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, inv := range []string{"ld-untrusted-library", "safe-open-owner-diff", "dbus-connect-trusted-socket", "python-untrusted-module"} {
		if !strings.Contains(out, "invariant "+inv+": holds") {
			t.Errorf("invariant %s not proven:\n%s", inv, out)
		}
	}
}

// TestVerifyDetectsAndReplaysViolation: dropping the loader guard from the
// paper ruleset violates ld-untrusted-library; -verify must report it, the
// witness must replay, and the exit must be non-zero.
func TestVerifyDetectsAndReplaysViolation(t *testing.T) {
	lines, err := os.ReadFile("../../examples/rules/standard.pft")
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(string(lines), "\n") {
		if strings.Contains(line, "0x596b") {
			continue // seed the violation: remove the ld.so guard
		}
		kept = append(kept, line)
	}
	f := filepath.Join(t.TempDir(), "weak.pft")
	if err := os.WriteFile(f, []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = run([]string{"-verify", "-f", f, "-inv", "../../examples/rules/standard.inv"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "invariant violation") {
		t.Fatalf("err = %v, want violation failure\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "invariant ld-untrusted-library: VIOLATED") {
		t.Errorf("violation not reported:\n%s", out)
	}
	if !strings.Contains(out, "# witness replay:") || strings.Contains(out, "REPLAY FAILED") {
		t.Errorf("witness replay missing or failed:\n%s", out)
	}
	if !strings.Contains(out, " 0 failed") {
		t.Errorf("replay failures present:\n%s", out)
	}
}

// TestVerifyWorldgenTenantInvariant: -verify -world proves the built-in
// tenant non-interference invariant over a generated deployment.
func TestVerifyWorldgenTenantInvariant(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-verify", "-world", "tiny"}, &buf); err != nil {
		t.Fatalf("verify: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "invariant tenant-home-no-serve: holds") {
		t.Errorf("tenant invariant not proven:\n%s", buf.String())
	}
}

// TestUntimedDropSpan: a DROP outside a sampled syscall reaches -trace and
// -top as an untimed span. -trace prints it with its deciding rule and no
// latency split; -top counts it as a span and a deny, while its P50/P99
// aggregate only the timed spans.
func TestUntimedDropSpan(t *testing.T) {
	untimed := obs.Span{
		Seq: 7, PID: 3, Flags: obs.SpanRuleDecided | obs.SpanUntimed,
		Syscall: "open", Op: "LNK_FILE_READ", Verdict: "DROP",
		Subject: "sshd_t", Path: "/tmp/trap",
		RuleFile: "<standard>", RuleLine: 13, RuleTarget: "DROP",
	}
	line := formatSpan(&untimed)
	if want := "#7 pid=3 sshd_t open LNK_FILE_READ /tmp/trap -> DROP rule=<standard>:13(DROP) [rule_decided,untimed]"; line != want {
		t.Errorf("untimed DROP line:\n got %s\nwant %s", line, want)
	}
	timed := untimed
	timed.Flags = obs.SpanRuleDecided
	timed.TotalNs = 3000
	if line := formatSpan(&timed); !strings.Contains(line, " total=3µs") {
		t.Errorf("timed DROP line lacks its split: %s", line)
	}

	agg := newTopAgg()
	agg.add(&untimed)
	agg.add(&timed)
	r := agg.rows[topKey{Tenant: "-", Persona: "sshd_t", Op: "LNK_FILE_READ"}]
	if r == nil || r.count != 2 || r.drops != 2 {
		t.Fatalf("-top row = %+v, want 2 spans and 2 denies", r)
	}
	if r.hist.Count != 1 || r.hist.Quantile(0.5) != 4096 {
		t.Errorf("-top latency = %d samples, p50 %dns; want the one timed span (3µs, bucket 4096ns)", r.hist.Count, r.hist.Quantile(0.5))
	}
}
