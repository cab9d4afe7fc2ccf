// Package ustack simulates process user memory and the stack unwinding the
// Process Firewall's entrypoint context module performs (paper Section 4.4).
//
// The paper's kernel reads call stacks out of untrusted user memory with
// copy_from_user, bounds every read, and caps frame counts so a malicious or
// corrupted process can at worst disable its own protection — never crash or
// hang the kernel. This package reproduces those properties:
//
//   - Memory is word-addressed and every read is bounds-checked
//     (the copy_from_user analogue).
//   - Binary programs maintain a conventional frame-pointer chain
//     [savedFP, returnPC]; UnwindBinary walks it with a frame cap and
//     aborts cleanly on invalid pointers or cycles.
//   - Interpreted programs (PHP, Python, Bash) keep language-specific frame
//     structures in user memory; per-language unwinders parse them, just as
//     the paper adapts each interpreter's backtrace code to run in-kernel.
//   - An AddressSpace maps binaries at randomized-looking bases so absolute
//     PCs must be rebased to (binary, offset) pairs, which is how rules
//     handle ASLR ("entrypoint program counters are specified relative to
//     program binary base", Section 5.2).
package ustack

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Errors reported by unwinders. All of them mean "context unavailable":
// the Process Firewall aborts evaluation of the malformed context without
// failing the kernel (paper Section 4.4).
var (
	ErrBadAddress = errors.New("ustack: address outside user memory")
	ErrTooDeep    = errors.New("ustack: frame count exceeds limit")
	ErrCorrupt    = errors.New("ustack: malformed frame structure")
)

// MaxFrames caps unwinding depth, the paper's DoS defense against infinite
// or cyclic frame chains.
const MaxFrames = 64

// Memory is simulated word-addressed user memory. Address 0 is reserved as
// the NULL terminator for frame chains.
type Memory struct {
	words []uint64
	gen   uint64
	// dirty has bit i set once a Write lands in page i, words
	// [i<<pageShift, (i+1)<<pageShift): the memory is split into at most 64
	// pages, so one word tracks every page a process touched.
	dirty     uint64
	pageShift uint8
}

// Gen returns the memory's mutation generation. It changes on every Write,
// so callers may cache state derived from memory contents (e.g. entrypoint
// unwinds) keyed on it; any store — including one that corrupts a frame
// chain — invalidates the cache.
func (m *Memory) Gen() uint64 { return m.gen }

// NewMemory allocates zeroed user memory of n words, reusing recycled
// address spaces of the same size when available (process exit returns
// them via Recycle), the way a kernel reuses page frames instead of
// demanding fresh zeroed memory from nowhere. A recycled buffer is zeroed
// by clearing only the pages its previous owner wrote.
func NewMemory(n int) *Memory {
	if v := memPool.Get(); v != nil {
		m := v.(*Memory)
		if len(m.words) == n {
			m.clearDirty()
			return m
		}
		// Wrong size: drop it and fall through.
	}
	shift := uint8(0)
	for n > 64<<shift {
		shift++
	}
	return &Memory{words: make([]uint64, n), pageShift: shift}
}

// clearDirty zeroes every page a Write has touched and empties the mask,
// leaving the whole buffer zero.
func (m *Memory) clearDirty() {
	for d := m.dirty; d != 0; d &= d - 1 {
		lo := bits.TrailingZeros64(d) << m.pageShift
		clear(m.words[lo:min(lo+1<<m.pageShift, len(m.words))])
	}
	m.dirty = 0
}

// memPool recycles Memory buffers across process lifetimes.
var memPool = sync.Pool{}

// Recycle returns the memory to the allocator pool. The caller must not
// touch the Memory afterwards.
func (m *Memory) Recycle() {
	memPool.Put(m)
}

// Size returns the number of addressable words.
func (m *Memory) Size() uint64 { return uint64(len(m.words)) }

// Read performs a bounds-checked load; the copy_from_user analogue.
//
//pflint:allow-fn — unwinder memory access on entrypoint-cache miss, once per program phase.
func (m *Memory) Read(addr uint64) (uint64, error) {
	if addr == 0 || addr >= uint64(len(m.words)) {
		return 0, fmt.Errorf("%w: %#x", ErrBadAddress, addr)
	}
	return m.words[addr], nil
}

// Write performs a bounds-checked store. Processes own their memory, so
// writes to bad addresses are programming errors in the simulation and
// still return an error rather than panicking.
func (m *Memory) Write(addr, val uint64) error {
	if addr == 0 || addr >= uint64(len(m.words)) {
		return fmt.Errorf("%w: %#x", ErrBadAddress, addr)
	}
	m.words[addr] = val
	m.dirty |= 1 << (addr >> m.pageShift)
	m.gen++
	return nil
}

// WriteString stores s length-prefixed at addr (one byte per word for
// simplicity) and returns the number of words consumed.
func (m *Memory) WriteString(addr uint64, s string) (uint64, error) {
	if err := m.Write(addr, uint64(len(s))); err != nil {
		return 0, err
	}
	for i := 0; i < len(s); i++ {
		if err := m.Write(addr+1+uint64(i), uint64(s[i])); err != nil {
			return 0, err
		}
	}
	return 1 + uint64(len(s)), nil
}

// maxStringLen bounds string reads from untrusted memory.
const maxStringLen = 4096

// ReadString loads a length-prefixed string written by WriteString,
// validating the length against memory bounds.
//
//pflint:allow-fn — unwinder memory access on entrypoint-cache miss, once per program phase.
func (m *Memory) ReadString(addr uint64) (string, error) {
	n, err := m.Read(addr)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("%w: string length %d", ErrCorrupt, n)
	}
	buf := make([]byte, n)
	for i := uint64(0); i < n; i++ {
		w, err := m.Read(addr + 1 + i)
		if err != nil {
			return "", err
		}
		if w > 0xff {
			return "", fmt.Errorf("%w: non-byte word in string", ErrCorrupt)
		}
		buf[i] = byte(w)
	}
	return string(buf), nil
}

// Regs is the register state the kernel snapshots at syscall entry.
type Regs struct {
	PC uint64 // program counter of the instruction issuing the syscall
	FP uint64 // frame pointer (base of the current frame record)
}

// Stack manages a frame-pointer chain in user memory for a simulated binary
// program. Layout of one frame record at address fp: [savedFP, returnPC].
type Stack struct {
	Mem  *Memory
	Regs Regs
	base uint64 // lowest address of the stack region
	sp   uint64 // next free word (grows upward in this simulation)
	gen  uint64
}

// Gen returns the stack's mutation generation. It changes on every Call,
// Ret and SetPC — the register-only mutations Memory.Gen cannot see (Ret
// and SetPC restore Regs without touching memory).
func (s *Stack) Gen() uint64 { return s.gen }

// NewStack carves a stack out of mem starting at base.
func NewStack(mem *Memory, base uint64) *Stack {
	return &Stack{Mem: mem, base: base, sp: base}
}

// Call pushes a frame recording that execution reached callsitePC and then
// transferred to a callee; the callee's instructions will report PCs of
// their own. Mirrors a CALL instruction's effect on the frame chain.
func (s *Stack) Call(callsitePC uint64) error {
	fp := s.sp
	if err := s.Mem.Write(fp, s.Regs.FP); err != nil {
		return err
	}
	if err := s.Mem.Write(fp+1, callsitePC); err != nil {
		return err
	}
	s.sp += 2
	s.Regs.FP = fp
	s.gen++
	return nil
}

// Ret pops the top frame, restoring the caller's frame pointer and PC.
func (s *Stack) Ret() error {
	fp := s.Regs.FP
	savedFP, err := s.Mem.Read(fp)
	if err != nil {
		return err
	}
	retPC, err := s.Mem.Read(fp + 1)
	if err != nil {
		return err
	}
	s.Regs.FP = savedFP
	s.Regs.PC = retPC
	s.sp = fp
	s.gen++
	return nil
}

// SetPC records the PC of the instruction about to execute (e.g. the
// syscall instruction's call site).
func (s *Stack) SetPC(pc uint64) {
	if s.Regs.PC == pc {
		// Re-arming the same syscall site is not a state change; skipping
		// the bump keeps generation-keyed caches warm across loops that
		// set their call site every iteration.
		return
	}
	s.Regs.PC = pc
	s.gen++
}

// Depth returns the current number of live frames.
func (s *Stack) Depth() int { return int((s.sp - s.base) / 2) }

// UnwindBinary walks the frame chain starting from regs, returning PCs from
// innermost (regs.PC) outward. It stops cleanly at the NULL frame pointer.
// Corrupt chains produce an error; the caller treats the context as
// unavailable. max caps the walk (use MaxFrames).
//
//pflint:allow-fn — native unwind on entrypoint-cache miss, once per program phase.
func UnwindBinary(mem *Memory, regs Regs, max int) ([]uint64, error) {
	if max <= 0 {
		max = MaxFrames
	}
	pcs := make([]uint64, 1, 8)
	pcs[0] = regs.PC
	fp := regs.FP
	// Cycle detection uses a small on-stack window instead of a map: frame
	// chains are short (MaxFrames-capped), and the kernel hot path must
	// not allocate per unwind.
	var seen [MaxFrames]uint64
	n := 0
	for fp != 0 {
		if len(pcs) >= max {
			return nil, ErrTooDeep
		}
		for i := 0; i < n; i++ {
			if seen[i] == fp {
				return nil, fmt.Errorf("%w: frame-pointer cycle at %#x", ErrCorrupt, fp)
			}
		}
		if n < len(seen) {
			seen[n] = fp
			n++
		}
		savedFP, err := mem.Read(fp)
		if err != nil {
			return nil, err
		}
		retPC, err := mem.Read(fp + 1)
		if err != nil {
			return nil, err
		}
		pcs = append(pcs, retPC)
		fp = savedFP
	}
	return pcs, nil
}

// Mapping records a binary or library mapped into an address space.
type Mapping struct {
	Base uint64
	Size uint64
	Path string // binary providing the code, e.g. /lib/ld-2.15.so
}

// AddressSpace tracks the executable mappings of one process, used to rebase
// absolute PCs into (binary, offset) entrypoints.
type AddressSpace struct {
	mappings []Mapping
	next     uint64
	gen      uint64
}

// mapGen issues mapping generations. It is global and strictly monotonic so a
// generation observed on one AddressSpace can never reappear on another: an
// execve replaces a process's address space while the process (and any caches
// keyed on the generation) survives, so a per-space counter restarting at
// zero could alias a stale cache entry.
var mapGen atomic.Uint64

// Gen returns the space's mapping generation. It changes whenever the set of
// mappings changes, so callers may cache derived state keyed on it.
func (a *AddressSpace) Gen() uint64 { return a.gen }

// mapAlign spaces mappings so distinct binaries never overlap; the
// pseudo-random-looking bases stand in for ASLR. It is sized so real-world
// code offsets (the paper's largest is PHP's 0x27ad2c) fit in one mapping.
const mapAlign = 0x1000000

// NewAddressSpace returns an empty address space. Bases are assigned
// deterministically but differ across load order, so tests exercise the
// rebasing logic the way ASLR would.
func NewAddressSpace(seed uint64) *AddressSpace {
	return &AddressSpace{next: (seed%7 + 1) * mapAlign, gen: mapGen.Add(1)}
}

// Map loads path at a fresh base and returns the Mapping.
func (a *AddressSpace) Map(path string, size uint64) Mapping {
	if size == 0 || size > mapAlign/2 {
		size = mapAlign / 2
	}
	m := Mapping{Base: a.next, Size: size, Path: path}
	a.mappings = append(a.mappings, m)
	a.next += mapAlign
	a.gen = mapGen.Add(1)
	return m
}

// Find returns the mapping containing pc.
func (a *AddressSpace) Find(pc uint64) (Mapping, bool) {
	for _, m := range a.mappings {
		if pc >= m.Base && pc < m.Base+m.Size {
			return m, true
		}
	}
	return Mapping{}, false
}

// FindByPath returns the mapping of a binary by its path.
func (a *AddressSpace) FindByPath(path string) (Mapping, bool) {
	for _, m := range a.mappings {
		if m.Path == path {
			return m, true
		}
	}
	return Mapping{}, false
}

// Rebase converts an absolute PC into a (binary, offset) pair; ok is false
// for PCs outside any mapping (e.g. forged stack contents).
func (a *AddressSpace) Rebase(pc uint64) (path string, off uint64, ok bool) {
	m, found := a.Find(pc)
	if !found {
		return "", 0, false
	}
	return m.Path, pc - m.Base, true
}

// Mappings returns a copy of the mapping list.
func (a *AddressSpace) Mappings() []Mapping {
	out := make([]Mapping, len(a.mappings))
	copy(out, a.mappings)
	return out
}

// ForEach visits every mapping without copying; stop by returning false.
func (a *AddressSpace) ForEach(f func(Mapping) bool) {
	for _, m := range a.mappings {
		if !f(m) {
			return
		}
	}
}
