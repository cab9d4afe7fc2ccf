package trace_test

// External test package: worldgen and fleet import rulegen, which imports
// trace, so this stress lives outside package trace to break the cycle.

import (
	"sync"
	"testing"
	"time"

	"pfirewall/internal/fleet"
	"pfirewall/internal/obs"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
	"pfirewall/internal/trace"
	"pfirewall/internal/worldgen"
)

// TestStreamChurnUnderFleet is the -race stress: subscribers connect and
// disconnect while a churned fleet drives traced traffic through the same
// kernel. Nothing here asserts on span contents — the test is that no data
// race, deadlock, or panic occurs while the subscriber set churns.
func TestStreamChurnUnderFleet(t *testing.T) {
	cfg := pf.Optimized()
	gw := worldgen.Build(worldgen.Tiny, programs.WorldOpts{
		PF: &cfg, MACEnforcing: true,
		Obs: obs.New(), ObsEvery: 2,
	})
	srv, err := trace.ServeSpans(gw.K, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fl := fleet.New(gw, fleet.Config{
		Seed: 11, Instances: 3, Duration: 500 * time.Millisecond,
		ProcChurn: true,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		fl.Run()
	}()

	var wg sync.WaitGroup
	stop := time.Now().Add(450 * time.Millisecond)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				cl, err := trace.DialSpans(gw.K, "")
				if err != nil {
					t.Error(err)
					return
				}
				// Read a little, then churn away regardless of outcome.
				for i := 0; i < 3; i++ {
					if _, err := cl.Next(20 * time.Millisecond); err != nil {
						break
					}
				}
				cl.Close()
			}
		}()
	}
	wg.Wait()
	<-done

	if got := gw.K.Tracer().Total(); got == 0 {
		t.Error("fleet run published no spans")
	}
}
