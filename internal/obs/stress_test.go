package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"
)

// TestRegistryStress hammers every primitive from 8+ writer goroutines
// while exporter readers run concurrently — the invariants the lock-free
// claims rest on, under -race.
func TestRegistryStress(t *testing.T) {
	const (
		writers       = 8
		itersPerGorot = 2000
	)
	r := New()
	ctr := r.Counter("stress_total", "stress counter")
	labeled := r.Counter("stress_ops_total", "labeled", L("op", "FILE_OPEN"), L("verdict", "ACCEPT"))
	hist := r.Histogram("stress_latency_ns", "stress histogram")
	tr := r.Tracer("stress_spans", TraceConfig{RingSize: 64})

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Exporter readers: Prometheus + JSON, continuously.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				var buf bytes.Buffer
				if err := r.WriteJSON(&buf); err != nil {
					t.Errorf("WriteJSON: %v", err)
					return
				}
				var doc JSONSnapshot
				if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
					t.Errorf("round-trip under load: %v", err)
					return
				}
			}
		}()
	}

	// Concurrent registration of fresh series (exercises the COW snapshot
	// swap against in-flight exports).
	wg.Add(1)
	go func() {
		defer wg.Done()
		ops := []string{"FILE_OPEN", "SOCKET_SENDMSG", "FILE_READ", "IPC_BIND"}
		for i := 0; i < 200; i++ {
			r.Counter("stress_dyn_total", "", L("op", ops[i%len(ops)])).Add(i, 1)
		}
	}()

	var writersWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			for i := 0; i < itersPerGorot; i++ {
				key := g*itersPerGorot + i
				ctr.Add(key, 1)
				labeled.Add(key, 2)
				hist.Observe(key, uint64(i%5000))
				if i%4 == 0 {
					tr.Publish(&Span{PID: key, Op: "FILE_OPEN", Verdict: "DROP"})
				}
			}
		}(g)
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()

	if got := ctr.Load(); got != writers*itersPerGorot {
		t.Errorf("stress_total = %d, want %d", got, writers*itersPerGorot)
	}
	if got := labeled.Load(); got != 2*writers*itersPerGorot {
		t.Errorf("stress_ops_total = %d, want %d", got, 2*writers*itersPerGorot)
	}
	hs := hist.Snapshot()
	if hs.Count != writers*itersPerGorot {
		t.Errorf("histogram count = %d, want %d", hs.Count, writers*itersPerGorot)
	}
	var bucketSum uint64
	for _, b := range hs.Buckets {
		bucketSum += b
	}
	if bucketSum != hs.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, hs.Count)
	}
	// Span ring: every surviving span must have a distinct seq, ascending,
	// and every publish must be counted.
	sps := tr.Snapshot()
	for i := 1; i < len(sps); i++ {
		if sps[i].Seq <= sps[i-1].Seq {
			t.Errorf("ring order violated at %d: %d then %d", i, sps[i-1].Seq, sps[i].Seq)
		}
	}
	if got := tr.Total(); got != writers*itersPerGorot/4 {
		t.Errorf("spans published = %d, want %d", got, writers*itersPerGorot/4)
	}
}
