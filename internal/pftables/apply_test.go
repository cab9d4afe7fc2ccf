package pftables

import (
	"strings"
	"testing"

	"pfirewall/internal/pf"
)

// TestMissingChainNotCreated: only a new rule's own chain (-I, -A) and its
// jump target are created on demand. -F, -D and -R name a chain that must
// exist: on a missing one they fail with the transaction's no-such-chain
// error and leave no chain behind.
func TestMissingChainNotCreated(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	before := strings.Join(engine.Chains(), ",")
	for _, line := range []string{
		`pftables -F nosuch`,
		`pftables -D nosuch -s httpd_t -j DROP`,
		`pftables -D nosuch --tag batch.pft`,
		`pftables -R nosuch 1 -s httpd_t -j DROP`,
		`pftables -R nosuch 1 -j newchain`,
	} {
		if _, err := Install(env, engine, line); err == nil || !strings.Contains(err.Error(), `no such chain "nosuch"`) {
			t.Errorf("%s: %v, want a no-such-chain error", line, err)
		}
	}
	if after := strings.Join(engine.Chains(), ","); after != before {
		t.Fatalf("chains %s -> %s: a failed command created one", before, after)
	}
	// A new rule's chains are still made for it, a replacement's jump
	// target included.
	if _, err := Install(env, engine, `pftables -A made -j DROP`); err != nil {
		t.Fatal(err)
	}
	if _, err := Install(env, engine, `pftables -R made 1 -j target`); err != nil {
		t.Fatal(err)
	}
	if _, ok := engine.Chain("target"); !ok {
		t.Fatal("-R did not create its jump target")
	}
}

// --- -R replace-by-position ---------------------------------------------

func TestReplaceByPosition(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	lines := []string{
		`pftables -A input -s httpd_t -o FILE_OPEN -j ACCEPT`,
		`pftables -A input -s httpd_t -o FILE_OPEN -j ACCEPT`,
		`pftables -A input -s user_t -o FILE_OPEN -j DROP`,
	}
	if _, err := InstallAll(env, engine, lines); err != nil {
		t.Fatal(err)
	}

	if _, err := Install(env, engine, `pftables -R input 2 -s httpd_t -d shadow_t -o FILE_OPEN -j DROP`); err != nil {
		t.Fatal(err)
	}
	c, _ := engine.Chain("input")
	if len(c.Rules) != 3 {
		t.Fatalf("rule count after replace = %d, want 3", len(c.Rules))
	}
	got := c.Rules[1].String(env.Policy.SIDs())
	if !strings.Contains(got, "shadow_t") || !strings.Contains(got, "DROP") {
		t.Fatalf("position 2 after replace renders %q, want the new shadow_t DROP", got)
	}

	// Out-of-range and malformed positions fail cleanly.
	if _, err := Install(env, engine, `pftables -R input 9 -o FILE_OPEN -j DROP`); err == nil {
		t.Fatal("replace at position 9 of a 3-rule chain must fail")
	}
	if _, err := Parse(env, `pftables -R input -o FILE_OPEN -j DROP`); err == nil {
		t.Fatal("-R without a position must fail to parse")
	}
	if _, err := Parse(env, `pftables -R input 0 -o FILE_OPEN -j DROP`); err == nil {
		t.Fatal("-R position 0 must fail to parse (positions are 1-based)")
	}
}

func TestReplaceByPositionMangle(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	if _, err := Install(env, engine, `pftables -t mangle -A input -o FILE_OPEN -j LOG --prefix "a"`); err != nil {
		t.Fatal(err)
	}
	if _, err := Install(env, engine, `pftables -t mangle -R input 1 -o FILE_OPEN -j LOG --prefix "b"`); err != nil {
		t.Fatal(err)
	}
	c, _ := engine.Chain("mangle/input")
	if len(c.Rules) != 1 || !strings.Contains(c.Rules[0].String(env.Policy.SIDs()), `"b"`) {
		t.Fatalf("mangle replace did not land: %v", Save(engine))
	}
}

// --- -D --tag remove-by-tag ---------------------------------------------

func TestRemoveByTag(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	// Two tagged churn rules and one untagged bystander.
	for i := 0; i < 2; i++ {
		line := `pftables -A input -s user_t -o FILE_UNLINK -j DROP`
		if _, err := InstallAt(env, engine, line, pf.Pos{File: "<wave>", Line: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Install(env, engine, `pftables -A input -s httpd_t -o FILE_OPEN -j ACCEPT`); err != nil {
		t.Fatal(err)
	}

	gen0 := engine.Generation()
	if _, err := Install(env, engine, `pftables -D input --tag <wave>`); err != nil {
		t.Fatal(err)
	}
	if engine.RuleCount() != 1 {
		t.Fatalf("rule count after tag drain = %d, want 1 (the bystander)", engine.RuleCount())
	}
	if got := engine.Generation() - gen0; got != 1 {
		t.Fatalf("tag drain bumped generation %d times, want 1 (one batch, one publish)", got)
	}
	// Draining a tag with no matches is a no-op, not an error.
	if _, err := Install(env, engine, `pftables -D input --tag <wave>`); err != nil {
		t.Fatal(err)
	}
}

// --- -F flush ------------------------------------------------------------

func TestFlushCommand(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	lines := []string{
		`pftables -A input -s httpd_t -o FILE_OPEN -j ACCEPT`,
		`pftables -t mangle -A input -o FILE_OPEN -j LOG`,
		`pftables -A syscallbegin -o SYSCALL_BEGIN -j ACCEPT`,
	}
	if _, err := InstallAll(env, engine, lines); err != nil {
		t.Fatal(err)
	}

	// Single-chain flush leaves the others alone.
	if _, err := Install(env, engine, `pftables -F input`); err != nil {
		t.Fatal(err)
	}
	if engine.RuleCount() != 2 {
		t.Fatalf("rule count after -F input = %d, want 2", engine.RuleCount())
	}
	// Global flush empties everything.
	if _, err := Install(env, engine, `pftables -F`); err != nil {
		t.Fatal(err)
	}
	if engine.RuleCount() != 0 {
		t.Fatalf("rule count after -F = %d, want 0", engine.RuleCount())
	}
}

// --- transactional batch apply ------------------------------------------

func TestApplyAllFromSinglePublish(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	gen0 := engine.Generation()
	st0 := engine.PublishStats()

	n, err := ApplyAllFrom(env, engine, "batch.pft", []string{
		`# comment`,
		`pftables -N side`,
		`pftables -A input -s httpd_t -o FILE_OPEN -j side`,
		`pftables -A side -o FILE_OPEN -j DROP`,
		``,
		`pftables -A syscallbegin -o SYSCALL_BEGIN -j ACCEPT`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("applied %d commands, want 4", n)
	}
	if got := engine.Generation() - gen0; got != 1 {
		t.Fatalf("batch bumped generation %d times, want exactly 1", got)
	}
	if got := engine.PublishStats().Publishes - st0.Publishes; got != 1 {
		t.Fatalf("batch published %d times, want 1", got)
	}
	if _, ok := engine.Chain("side"); !ok {
		t.Fatal("side chain missing after batch")
	}
	if engine.RuleCount() != 3 {
		t.Fatalf("rule count = %d, want 3", engine.RuleCount())
	}
	// Rules carry the batch source for tag-targeting and provenance spans.
	c, _ := engine.Chain("input")
	if c.Rules[0].Src.File != "batch.pft" {
		t.Fatalf("rule source = %q, want batch.pft", c.Rules[0].Src.File)
	}
}

func TestApplyAllFromAtomicOnError(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	if _, err := Install(env, engine, `pftables -A input -s httpd_t -o FILE_OPEN -j ACCEPT`); err != nil {
		t.Fatal(err)
	}
	ver0 := engine.Version()

	// A flush+reinstall batch with a bad line must leave the engine
	// untouched.
	n, err := ApplyAllFrom(env, engine, "reload.pft", []string{
		`pftables -F`,
		`pftables -A input -s user_t -o FILE_OPEN -j DROP`,
		`pftables -A input -o BOGUS_OP -j DROP`,
	})
	if err == nil {
		t.Fatal("batch with a bad line must fail")
	}
	if n != 0 {
		t.Fatalf("failed batch reported %d applied commands, want 0", n)
	}
	if engine.Version() != ver0 {
		t.Fatalf("failed batch published: version %d -> %d", ver0, engine.Version())
	}
	if engine.RuleCount() != 1 {
		t.Fatalf("failed batch changed the rule base: count = %d, want 1", engine.RuleCount())
	}
}

func TestApplyAllGatedVeto(t *testing.T) {
	env := testEnv()
	engine := pf.New(env.Policy, pf.Optimized())
	ver0 := engine.Version()
	gateRan := false
	_, err := ApplyAllGated(env, engine, "gated.pft", []string{
		`pftables -A input -s httpd_t -o FILE_OPEN -j ACCEPT`,
	}, func(prog *pf.Program) error {
		gateRan = true
		if c := prog.Chains()["input"]; c == nil || len(c.Rules) != 1 {
			t.Errorf("gate saw stale chains: %+v", prog.Chains())
		}
		return &Error{Err: errVeto}
	})
	if err == nil || !gateRan {
		t.Fatalf("gate veto not honored (ran=%v err=%v)", gateRan, err)
	}
	if engine.Version() != ver0 || engine.RuleCount() != 0 {
		t.Fatal("vetoed batch reached the rule base")
	}
}

var errVeto = &vetoError{}

type vetoError struct{}

func (*vetoError) Error() string { return "vetoed" }
