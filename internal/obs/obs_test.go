package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBucketIndexBoundaries pins the bucket math at the exact edges: 0 ns,
// 1 ns, each power-of-two boundary and its neighbors, and overflow.
func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, // zero lands in the first bucket (le 1)
		{1, 0},
		{2, 1}, // first value above 2^0
		{3, 2},
		{4, 2}, // exact edge: 4 <= 2^2
		{5, 3},
		{8, 3},
		{9, 4},
		{1024, 10},
		{1025, 11},
		{1 << 30, 30},        // largest finite bound
		{1<<30 + 1, 31},      // first overflow value
		{1 << 40, 31},        // deep overflow
		{math.MaxUint64, 31}, // extreme overflow
	}
	for _, c := range cases {
		if got := BucketIndex(c.ns); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every finite bucket's bound must itself land in that bucket (le is
	// inclusive), and bound+1 in the next.
	for i := 0; i < NumBuckets-1; i++ {
		bound := uint64(1) << uint(i)
		if got := BucketIndex(bound); got != i {
			t.Errorf("BucketIndex(2^%d) = %d, want %d", i, got, i)
		}
		wantNext := i + 1
		if wantNext > NumBuckets-1 {
			wantNext = NumBuckets - 1
		}
		if got := BucketIndex(bound + 1); got != wantNext {
			t.Errorf("BucketIndex(2^%d+1) = %d, want %d", i, got, wantNext)
		}
	}
	if BucketBound(NumBuckets-1) != "+Inf" {
		t.Errorf("last bucket bound = %q, want +Inf", BucketBound(NumBuckets-1))
	}
	if BucketBound(3) != "8" {
		t.Errorf("BucketBound(3) = %q, want 8", BucketBound(3))
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(0, 0)
	h.Observe(1, 100)
	h.Observe(2, 100)
	h.Observe(3, 1<<62) // overflow
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if want := uint64(0 + 100 + 100 + 1<<62); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	if s.Buckets[0] != 1 || s.Buckets[BucketIndex(100)] != 2 || s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("bucket spread wrong: %+v", s.Buckets)
	}
}

func TestCounterShardsSum(t *testing.T) {
	var c Counter
	for key := 0; key < 1000; key++ {
		c.Add(key, 2)
	}
	if got := c.Load(); got != 2000 {
		t.Fatalf("Load = %d, want 2000", got)
	}
}

// TestSampleMask pins the period → mask rounding, including a period no
// counter reaches (the counters-only bench arm), which must neither fire
// early nor overflow.
func TestSampleMask(t *testing.T) {
	for _, c := range []struct {
		every int
		want  uint64
	}{{0, 0}, {1, 0}, {2, 1}, {10, 15}, {16, 15}, {17, 31}, {math.MaxInt, math.MaxInt64}} {
		if got := SampleMask(c.every); got != c.want {
			t.Errorf("SampleMask(%d) = %#x, want %#x", c.every, got, c.want)
		}
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "", L("op", "A"))
	b := r.Counter("x_total", "", L("op", "A"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	if c := r.Counter("x_total", "", L("op", "B")); c == a {
		t.Fatal("different labels must return a distinct counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Histogram("x_total", "", L("op", "A"))
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("pf_requests_total", "Requests mediated.").Add(1, 3)
	r.Counter("pf_mediations_total", "Mediations.", L("op", "FILE_OPEN"), L("verdict", "ACCEPT")).Add(1, 2)
	r.Counter("pf_mediations_total", "Mediations.", L("op", "FILE_OPEN"), L("verdict", "DROP")).Add(1, 1)
	r.GaugeFunc("mac_adv_epoch", "Adversary cache epoch.", func() uint64 { return 7 })
	h := r.Histogram("pf_gauntlet_latency_ns", "Gauntlet latency.", L("op", "FILE_OPEN"))
	h.Observe(0, 3)
	h.Observe(0, 900)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE pf_requests_total counter\n",
		"pf_requests_total 3\n",
		"# HELP pf_mediations_total Mediations.\n",
		`pf_mediations_total{op="FILE_OPEN",verdict="ACCEPT"} 2` + "\n",
		`pf_mediations_total{op="FILE_OPEN",verdict="DROP"} 1` + "\n",
		"# TYPE mac_adv_epoch gauge\n",
		"mac_adv_epoch 7\n",
		"# TYPE pf_gauntlet_latency_ns histogram\n",
		`pf_gauntlet_latency_ns_bucket{op="FILE_OPEN",le="4"} 1` + "\n",
		`pf_gauntlet_latency_ns_bucket{op="FILE_OPEN",le="1024"} 2` + "\n",
		`pf_gauntlet_latency_ns_bucket{op="FILE_OPEN",le="+Inf"} 2` + "\n",
		`pf_gauntlet_latency_ns_sum{op="FILE_OPEN"} 903` + "\n",
		`pf_gauntlet_latency_ns_count{op="FILE_OPEN"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// The TYPE header must appear exactly once per family even with
	// multiple label sets.
	if n := strings.Count(out, "# TYPE pf_mediations_total counter"); n != 1 {
		t.Errorf("TYPE header for pf_mediations_total appears %d times, want 1", n)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("pf_requests_total", "").Add(0, 5)
	r.Counter("pf_mediations_total", "", L("op", "SOCKET_SENDMSG"), L("verdict", "ACCEPT")).Add(0, 4)
	r.GaugeFunc("mac_adv_epoch", "", func() uint64 { return 2 })
	r.Histogram("kernel_mediation_latency_ns", "").Observe(0, 77)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc JSONSnapshot
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("round-trip failed: %v\n%s", err, buf.String())
	}
	if doc.Counters["pf_requests_total"][""] != 5 {
		t.Errorf("pf_requests_total = %v", doc.Counters["pf_requests_total"])
	}
	if doc.Counters["pf_mediations_total"]["op=SOCKET_SENDMSG,verdict=ACCEPT"] != 4 {
		t.Errorf("labeled counter = %v", doc.Counters["pf_mediations_total"])
	}
	if doc.Gauges["mac_adv_epoch"][""] != 2 {
		t.Errorf("gauge = %v", doc.Gauges)
	}
	h := doc.Histograms["kernel_mediation_latency_ns"][""]
	if h.Count != 1 || h.SumNs != 77 {
		t.Errorf("histogram = %+v", h)
	}
	// And the marshal must be deterministic enough to re-marshal equal.
	again, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(r.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(first) {
		t.Errorf("re-marshal differs:\n%s\n%s", again, first)
	}
}

func TestHandler(t *testing.T) {
	r := New()
	r.Counter("pf_requests_total", "").Add(0, 1)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "pf_requests_total 1") {
		t.Errorf("/metrics missing counter:\n%s", buf.String())
	}

	resp, err = srv.Client().Get(srv.URL + "/vars")
	if err != nil {
		t.Fatal(err)
	}
	var doc JSONSnapshot
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Counters["pf_requests_total"][""] != 1 {
		t.Errorf("/vars = %+v", doc.Counters)
	}
}
