package pf

import (
	"testing"

	"pfirewall/internal/ustack"
)

// TestRouteCacheTracksEvents pins the per-process route cache: a process
// whose entrypoint route list is cached must get the linear oracle's
// verdict after every event that can change which entrypoint-key rules its
// stack reaches — a publish adding or removing a rule on a key the stack
// hits, a rollback, a frame push or pop, an mmap, and an execve. Each check
// filters twice (the second request is a cache hit) and alternates input
// and syscallbegin requests, whose route lists are cached apart.
func TestRouteCacheTracksEvents(t *testing.T) {
	for _, cfg := range []Config{Optimized(), {EptChains: true}} {
		pol := testPolicy()
		e := New(pol, cfg)
		p := newFakeProc(1, sid(pol, "httpd_t"), "/usr/bin/apache2")
		setupLdSo(t, p)
		ld, _ := p.as.FindByPath("/lib/ld-2.15.so")

		keyed := func(chain, prog string, off uint64) *Rule {
			op := OpFileOpen
			if chain == "syscallbegin" {
				op = OpSyscallBegin
			}
			return &Rule{Program: prog, Entry: off, EntrySet: true, Ops: NewOpSet(op), Target: Drop()}
		}
		add := func(chain string, r *Rule) {
			t.Helper()
			if err := e.Append(chain, r); err != nil {
				t.Fatal(err)
			}
		}
		remove := func(chain string, victim *Rule) {
			t.Helper()
			if err := e.Remove(chain, func(r *Rule) bool { return r == victim }); err != nil {
				t.Fatal(err)
			}
		}
		step := 0
		check := func(event string, wantOpen, wantBegin Verdict) {
			t.Helper()
			step++
			for round := 0; round < 2; round++ {
				for _, op := range []Op{OpFileOpen, OpSyscallBegin} {
					want := wantOpen
					if op == OpSyscallBegin {
						want = wantBegin
					}
					req := func() *Request { return &Request{Proc: p, Op: op, Obj: &fakeRes{sid: sid(pol, "etc_t")}} }
					got, oracle := e.Filter(req()), linearFilter(e, req())
					if got != oracle || got != want {
						t.Fatalf("cfg %+v step %d (%s) round %d op %v: program %v, oracle %v, want %v",
							cfg, step, event, round, op, got, oracle, want)
					}
				}
			}
		}

		// The stack is [ld.so:0x596b (PC), ld.so:0x100]; no key it hits has
		// a rule yet, but entrypoint rules exist, so the scan runs.
		add("input", keyed("input", "/lib/ld-2.15.so", 0x7777))
		add("syscallbegin", keyed("syscallbegin", "/lib/ld-2.15.so", 0x100))
		check("warm", VerdictAccept, VerdictDrop)

		hit := keyed("input", "/lib/ld-2.15.so", 0x596b)
		add("input", hit)
		check("publish adds a rule on a hit key", VerdictDrop, VerdictDrop)
		remove("input", hit)
		check("publish removes it", VerdictAccept, VerdictDrop)
		if _, err := e.Rollback(); err != nil {
			t.Fatal(err)
		}
		check("rollback restores it", VerdictDrop, VerdictDrop)

		remove("input", hit)
		add("input", keyed("input", "/lib/ld-2.15.so", 0x200))
		check("rule on a key not yet on the stack", VerdictAccept, VerdictDrop)
		if err := p.stack.Call(ld.Base + 0x200); err != nil {
			t.Fatal(err)
		}
		check("frame push reaches it", VerdictDrop, VerdictDrop)
		if err := p.stack.Ret(); err != nil {
			t.Fatal(err)
		}
		p.stack.SetPC(ld.Base + 0x596b)
		check("frame pop leaves it", VerdictAccept, VerdictDrop)

		// A frame whose PC lies where the next mapping will load resolves
		// only once the library is mapped: the mmap alone changes the route.
		add("input", keyed("input", "/lib/libx.so", 0x40))
		next := ld.Base + 0x1000000
		if err := p.stack.Call(next + 0x40); err != nil {
			t.Fatal(err)
		}
		check("frame in an unmapped region", VerdictAccept, VerdictDrop)
		if m := p.as.Map("/lib/libx.so", 0); m.Base != next {
			t.Fatalf("libx.so mapped at %#x, want %#x", m.Base, next)
		}
		check("mmap maps the frame's library", VerdictDrop, VerdictDrop)

		// execve: fresh memory, stack and address space under the same
		// firewall state; the new image's stack hits none of the keys.
		p.mem.Recycle()
		p.mem = ustack.NewMemory(4096)
		p.stack = ustack.NewStack(p.mem, 1000)
		p.as = ustack.NewAddressSpace(3)
		img := p.as.Map("/usr/bin/php", 0)
		p.stack.SetPC(img.Base + 0x10)
		check("execve replaces the image", VerdictAccept, VerdictAccept)
		add("input", keyed("input", "/usr/bin/php", 0x10))
		check("publish on the new image's key", VerdictDrop, VerdictAccept)
	}
}
