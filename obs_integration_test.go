// obs_integration_test.go exercises the observability layer end to end
// through the public facade: a system with metrics attached records an
// accepted open and a blocked link-following attack, and both show up in
// the registry's JSON and Prometheus exports.
package pfirewall_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"pfirewall"
	"pfirewall/internal/obs"
)

func TestObservabilityIntegration(t *testing.T) {
	sys := pfirewall.NewSystem(pfirewall.Options{
		Firewall:       true,
		Observability:  true,
		ObsSampleEvery: 1, // sample every request so histograms fill deterministically
	})
	sys.MustInstallRules(pfirewall.StandardRules())

	adversary := sys.NewAdversary()
	if err := adversary.Symlink("/etc/shadow", "/tmp/innocent"); err != nil {
		t.Fatal(err)
	}
	victim := sys.NewProcess(pfirewall.ProcessSpec{UID: 0, Label: "sshd_t", Exec: "/usr/sbin/sshd"})
	if _, err := victim.Open("/tmp/innocent", pfirewall.O_RDONLY, 0); !errors.Is(err, pfirewall.ErrPFDenied) {
		t.Fatalf("link walk should be blocked, got %v", err)
	}
	fd, err := victim.Open("/etc/passwd", pfirewall.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim.Close(fd)

	reg := sys.Obs()
	if reg == nil {
		t.Fatal("Obs() must be non-nil with Observability set")
	}
	snap := reg.JSON()

	if got := snap.Counters["pf_mediations_total"]["op=FILE_OPEN,verdict=ACCEPT"]; got < 1 {
		t.Errorf("FILE_OPEN accepts = %d, want >= 1", got)
	}
	if got := snap.Counters["kernel_syscalls_total"]["nr=open"]; got < 2 {
		t.Errorf("open syscalls = %d, want >= 2", got)
	}
	if got := snap.Histograms["pf_gauntlet_latency_ns"]["op=FILE_OPEN"].Count; got < 1 {
		t.Errorf("FILE_OPEN latency samples = %d, want >= 1", got)
	}

	// The blocked attack must land in the span ring with its identity
	// intact.
	var drop *obs.Span
	spans := snap.Spans["pf_spans"]
	for i := range spans.Recent {
		if spans.Recent[i].Verdict == "DROP" {
			drop = &spans.Recent[i]
		}
	}
	if drop == nil {
		t.Fatalf("span ring holds no DROP after a blocked attack: %+v", spans)
	}
	if drop.Verdict != "DROP" || drop.Path != "/tmp/innocent" {
		t.Errorf("drop span = %+v, want DROP of /tmp/innocent", drop)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		`pf_verdicts_total{verdict="DROP"} 1`,
		"# TYPE pf_gauntlet_latency_ns histogram",
		"vfs_dcache_hits_total",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus export missing %q", want)
		}
	}

	// Without the option, the registry is absent and the hot path carries
	// no instrumentation.
	plain := pfirewall.NewSystem(pfirewall.Options{Firewall: true})
	if plain.Obs() != nil {
		t.Error("Obs() must be nil without Observability")
	}
}
