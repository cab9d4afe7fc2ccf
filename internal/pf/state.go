package pf

// ProcState is the per-process firewall state the paper adds to
// struct task_struct (Sections 5.1–5.2):
//
//   - the STATE module's key→value dictionary, which records facts across
//     system calls (e.g. the inode bound by dbus-daemon, or whether the
//     process is inside a signal handler);
//   - the rule-traversal stack, held per process rather than per table so
//     the engine runs with preemption enabled and is safely re-entrant;
//   - the context cache, keyed by stack/address-space generations, so
//     entrypoint unwinding happens at most once per program phase even
//     though several resource requests are mediated during pathname
//     resolution — and across system calls whose stacks did not change;
//   - a free list of evaluation contexts, so steady-state mediation
//     allocates nothing.
type ProcState struct {
	// Dict is the STATE match/target dictionary.
	Dict map[uint64]uint64

	// SyscallSeq is incremented by the kernel at each syscall entry;
	// exported for diagnostics and tests.
	SyscallSeq uint64

	// Entrypoint-unwind cache, valid while the owning process's
	// (StackGen, AddrSpace generation) pair equals the cached pair. The
	// cached slice is immutable once stored: a re-unwind always builds a
	// fresh slice, so consumers (including LOG records) may alias it freely.
	cachedEntries  []Entrypoint
	cachedEntryErr bool
	cacheStackGen  uint64
	cacheMapGen    uint64
	cacheValid     bool

	// Entrypoint route lists, one per entry slot (input, syscallbegin): the
	// entrypoint-key indexes the cached stack hits (EvalCtx.entryRoutes).
	routes [entrySlots]routeCache

	// mayMatchEpt memo: whether any executable mapping is named by an
	// indexed entrypoint rule, valid while both the address-space mapping
	// generation and the ruleset generation are unchanged. Both generations
	// are globally unique, so a memo taken against one address space (or one
	// engine's snapshot) can never be mistaken for another's — even across
	// execve, which swaps the address space under a surviving ProcState.
	eptMemoMayMatch bool
	eptMemoValid    bool
	eptMemoMapGen   uint64
	eptMemoRSGen    uint64

	// traversal is the reusable chain-traversal stack: one program cursor
	// per chain entered and not yet left.
	traversal []Cursor

	// ctxFree is a LIFO free list of evaluation contexts. Mediation is
	// single-flow per process (the kernel never runs two syscalls of one
	// process concurrently), so no locking is needed; re-entrant evaluation
	// (a context module that itself triggers mediation) simply pops a
	// second context. LIFO keeps the hot context cache-warm.
	ctxFree []*EvalCtx
}

// routeCache is one cached route list, valid while the entrypoint cache's
// (StackGen, AddrSpace generation) pair and the program generation all
// equal the triple it was built under. Program generations are globally
// unique, so a publish or a rollback always misses. Like cachedEntries, a
// stored list is never written again.
type routeCache struct {
	list                    []*chainIndex
	stackGen, mapGen, rsGen uint64
	valid                   bool
}

// NewProcState returns an empty per-process state.
func NewProcState() *ProcState {
	return &ProcState{Dict: make(map[uint64]uint64)}
}

// BeginSyscall marks a new system call: it advances the sequence number.
// The kernel calls this from its syscall-entry stub. It no longer
// invalidates the entrypoint cache — that cache is keyed on stack and
// address-space generations, which outlive individual system calls and
// change exactly when the stack does.
func (ps *ProcState) BeginSyscall() {
	ps.SyscallSeq++
}

// acquireCtx pops an evaluation context from the free list, allocating only
// when the list is empty (first use, or re-entrant evaluation one level
// deeper than ever before). The returned context is dirty; the caller must
// reset it before use.
func (ps *ProcState) acquireCtx() *EvalCtx {
	if n := len(ps.ctxFree); n > 0 {
		c := ps.ctxFree[n-1]
		ps.ctxFree[n-1] = nil
		ps.ctxFree = ps.ctxFree[:n-1]
		return c
	}
	return &EvalCtx{} //pflint:allow — pool miss: first request on this process; every later one reuses it
}

// releaseCtx clears the context's references and returns it to the free
// list. After release the caller must not touch the context: the next
// acquire may hand it to a different request.
func (ps *ProcState) releaseCtx(c *EvalCtx) {
	c.clear()
	ps.ctxFree = append(ps.ctxFree, c)
}

// Get reads a dictionary key; missing keys read as (0, false).
func (ps *ProcState) Get(key uint64) (uint64, bool) {
	v, ok := ps.Dict[key]
	return v, ok
}

// Set writes a dictionary key.
func (ps *ProcState) Set(key, val uint64) { ps.Dict[key] = val }

// Clone copies the state for fork(): the dictionary is duplicated, caches
// are not inherited (the child has its own syscalls).
func (ps *ProcState) Clone() *ProcState {
	n := NewProcState()
	for k, v := range ps.Dict {
		n.Dict[k] = v
	}
	return n
}
