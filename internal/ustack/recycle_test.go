package ustack

import (
	"encoding/binary"
	"testing"
)

// expectZero fails unless every valid address of m reads 0 and no page is
// marked dirty.
func expectZero(t *testing.T, m *Memory, what string) {
	t.Helper()
	for a := uint64(1); a < m.Size(); a++ {
		if v, err := m.Read(a); err != nil || v != 0 {
			t.Fatalf("%s: word %d of %d reads %#x, %v; want 0", what, a, m.Size(), v, err)
		}
	}
	if m.dirty != 0 {
		t.Fatalf("%s: dirty mask %#x, want 0", what, m.dirty)
	}
}

// TestRecycledMemoryReadsZero pins the recycle contract: whatever a process
// wrote, the next NewMemory of that size reads 0 at every address. The
// writes cover the first and last valid words and both sides of every page
// boundary, so a clear that skips any page, or stops one word short of a
// page's end, leaves a nonzero word behind.
func TestRecycledMemoryReadsZero(t *testing.T) {
	for _, n := range []int{16, 100, 4096, 1 << 14, 1<<14 + 3} {
		m := NewMemory(n)
		page := uint64(1) << m.pageShift
		if npages := (uint64(n) + page - 1) / page; npages > 64 {
			t.Fatalf("n=%d: %d pages of %d words, want at most 64", n, npages, page)
		}
		addrs := []uint64{1, uint64(n - 1)}
		for b := page; b < uint64(n); b += page {
			addrs = append(addrs, b-1, b)
		}
		var pages uint64 // the pages the writes touch
		write := func() {
			for i, a := range addrs {
				if a == 0 {
					continue
				}
				if err := m.Write(a, uint64(i)+1); err != nil {
					t.Fatal(err)
				}
				pages |= 1 << (a / page)
			}
		}

		write()
		if m.dirty != pages {
			t.Fatalf("n=%d: dirty mask %#x, want %#x", n, m.dirty, pages)
		}
		m.clearDirty()
		expectZero(t, m, "cleared in place")

		write()
		m.Recycle()
		expectZero(t, NewMemory(n), "next NewMemory after Recycle")
	}
}

// fuzzMemWords sizes FuzzUnwind's memory: small, so fuzzed pointers often
// land inside it.
const fuzzMemWords = 1024

// FuzzUnwind drives the untrusted-memory reader, the surface a process
// controls: arbitrary stores into its memory, then both unwinders from
// fuzzed registers and interpreter heads. Each 4-byte record of stores is
// one Write (16-bit address, reduced to just past the memory's end so some
// stores miss it; 16-bit value). Neither unwinder may panic or return more
// than MaxFrames frames, reading must not change the memory, and after
// Recycle the next NewMemory of that size reads 0 at every address. The
// seed corpus (testdata/fuzz/FuzzUnwind) holds a native frame chain, a
// frame-pointer cycle, one frame of each interpreter and a PHP frame cycle.
func FuzzUnwind(f *testing.F) {
	f.Fuzz(func(t *testing.T, stores []byte, pc, fp, head uint64, lang uint8) {
		m := NewMemory(fuzzMemWords)
		for ; len(stores) >= 4; stores = stores[4:] {
			addr := uint64(binary.LittleEndian.Uint16(stores)) % (fuzzMemWords + 8)
			_ = m.Write(addr, uint64(binary.LittleEndian.Uint16(stores[2:])))
		}
		gen := m.Gen()
		pcs, err := UnwindBinary(m, Regs{PC: pc, FP: fp}, MaxFrames)
		if err == nil && (len(pcs) > MaxFrames || pcs[0] != pc) {
			t.Fatalf("UnwindBinary returned %d frames starting %v, want at most %d starting at the PC %#x",
				len(pcs), pcs[:1], MaxFrames, pc)
		}
		frames, _ := UnwindInterp(Lang(lang%5), m, head)
		if len(frames) > MaxFrames {
			t.Fatalf("UnwindInterp returned %d frames, want at most %d", len(frames), MaxFrames)
		}
		if m.Gen() != gen {
			t.Fatalf("unwinding changed the memory generation %d -> %d", gen, m.Gen())
		}
		m.Recycle()
		expectZero(t, NewMemory(fuzzMemWords), "NewMemory after Recycle")
	})
}
