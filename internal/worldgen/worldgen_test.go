package worldgen

import (
	"testing"

	"pfirewall/internal/kernel"
	"pfirewall/internal/pf"
	"pfirewall/internal/programs"
)

// TestDeterministicManifest is the golden determinism test: two builds
// from the same spec hash identically, and changing only the seed changes
// the hash (the /tmp seed spread is seed-dependent).
func TestDeterministicManifest(t *testing.T) {
	a := Build(Tiny, programs.WorldOpts{})
	b := Build(Tiny, programs.WorldOpts{})
	if ha, hb := a.ManifestHash(), b.ManifestHash(); ha != hb {
		t.Fatalf("same spec, different manifests: %x vs %x", ha, hb)
	}
	other := Tiny
	other.Seed = 99
	c := Build(other, programs.WorldOpts{})
	if a.ManifestHash() == c.ManifestHash() {
		t.Fatalf("different seeds produced identical manifests")
	}
}

// TestEstimatedInodesExact pins EstimatedInodes to what Build actually
// creates, for every preset small enough to build in a unit test.
func TestEstimatedInodesExact(t *testing.T) {
	for _, spec := range []Spec{Tiny, Small} {
		w := Build(spec, programs.WorldOpts{})
		if got, want := w.Stats.Inodes, spec.EstimatedInodes(); got != want {
			t.Errorf("%s: built %d inodes, estimated %d", spec.Name, got, want)
		}
	}
}

// TestLargeCrossesMillion checks the top preset's arithmetic clears the
// 1M-inode bar without building it.
func TestLargeCrossesMillion(t *testing.T) {
	if n := Large.EstimatedInodes(); n < 1_000_000 {
		t.Fatalf("Large estimates %d inodes, want >= 1,000,000", n)
	}
}

// TestRuleBaseSized checks Rules pads to the spec's total and that the
// whole base installs cleanly on an armed world.
func TestRuleBaseSized(t *testing.T) {
	cfg := pf.Optimized()
	w := Build(Tiny, programs.WorldOpts{PF: &cfg})
	if w.Stats.Rules < Tiny.Rules {
		t.Fatalf("installed %d rules, spec asks %d", w.Stats.Rules, Tiny.Rules)
	}
	if got := w.Engine.RuleCount(); got != w.Stats.Rules {
		t.Fatalf("engine holds %d rules, stats say %d", got, w.Stats.Rules)
	}
}

// TestTenantGuard exercises the generated world end to end: the web
// server serves tenant web content but is blocked by the per-tenant PF
// guard — not MAC, not DAC — when a planted symlink lures its serve
// entrypoint into a tenant home.
func TestTenantGuard(t *testing.T) {
	cfg := pf.Optimized()
	w := Build(Tiny, programs.WorldOpts{PF: &cfg, MACEnforcing: true})
	ap := programs.NewApache(w.World)
	ap.DocRoot = TenantRoot
	httpd := ap.Spawn()

	if _, err := ap.Serve(httpd, "/t00/u0000/public_html/index.html"); err != nil {
		t.Fatalf("benign serve: %v", err)
	}
	if _, err := ap.Serve(httpd, "/t01/u0001/current/index.html"); err != nil {
		t.Fatalf("serve through owner-matched symlink: %v", err)
	}

	// Adversary plants a lure in their own web tree pointing at a home
	// file; the serve entrypoint must get ErrPFDenied from the guard.
	adv := w.NewTenantUser(0, 0)
	lure := UserDir(0, 0) + "/public_html/steal.html"
	if err := adv.Symlink(HomeFilePath(0, 0, 0), lure); err != nil {
		t.Fatalf("adversary symlink: %v", err)
	}
	if _, err := ap.Serve(httpd, "/t00/u0000/public_html/steal.html"); err == nil {
		t.Fatalf("serve followed lure into tenant home")
	} else if err != kernel.ErrPFDenied && err != programs.ErrForbidden {
		t.Fatalf("lure denied by %v, want PF denial", err)
	}
}

// TestPathHelpersResolve checks the path-reconstruction helpers used by
// the fleet traffic drivers actually name inodes Build created.
func TestPathHelpersResolve(t *testing.T) {
	w := Build(Tiny, programs.WorldOpts{})
	spec := w.Spec
	paths := []string{
		WebFilePath(0, 0, 0),
		WebFilePath(spec.Tenants-1, spec.UsersPerTenant-1, spec.WebFilesPerUser),
		HomeFilePath(0, 0, 0),
		HomeFilePath(spec.Tenants-1, spec.UsersPerTenant-1, spec.HomeFilesPerUser),
		spec.DeepFilePath(0, 0),
	}
	for _, p := range paths {
		if _, ok := w.K.LookupIno(p); !ok {
			t.Errorf("%s does not resolve", p)
		}
	}
}

// TestBuildPublishesOnce: the generated rule base is applied as one
// transaction, so building a world publishes exactly one rule-base
// snapshot however many rules it installs.
func TestBuildPublishesOnce(t *testing.T) {
	cfg := pf.Optimized()
	for _, spec := range []Spec{Small, Medium} {
		w := Build(spec, programs.WorldOpts{PF: &cfg})
		if got := w.Engine.PublishStats().Publishes; got != 1 {
			t.Errorf("%s: building %d rules published %d times, want 1", spec.Name, w.Stats.Rules, got)
		}
	}
}
