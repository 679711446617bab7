package shmem

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Native is the concurrent runtime: processes are plain goroutines and
// registers are sync/atomic words. It provides real parallelism for
// wall-clock benchmarks; step counts are exact but interleavings are up to
// the Go scheduler. Adversarial schedules still come from internal/sim,
// but the execution layer (internal/exec) can inject crashes here through
// a RunGroup's step hook (see hook.go), and can record a native
// execution's operation order so it replays deterministically on the
// simulator.
//
// Step accounting is contention-free: every process counts its own steps
// in a cache-line-padded slot, and no shared state is touched per step.
// A recorded execution's global order comes from the recorder, not from a
// shared clock.
type Native struct {
	seed uint64
	pad  bool
}

var _ Runtime = (*Native)(nil)

// NativeOption configures a Native runtime.
type NativeOption func(*Native)

// WithRegisterPadding overrides the automatic register-padding choice (see
// NewNative). Padding wins on multicore machines and only wastes cache on
// single-core ones, so the default follows GOMAXPROCS; the knob exists for
// measurements of either configuration.
func WithRegisterPadding(on bool) NativeOption {
	return func(n *Native) { n.pad = on }
}

// NewNative returns a native runtime whose coin streams derive from seed.
// Registers are padded to a cache line each when the process can actually
// run in parallel (GOMAXPROCS > 1); with a single P there is no false
// sharing to kill, and padding would only inflate the working set.
func NewNative(seed uint64, opts ...NativeOption) *Native {
	n := &Native{seed: seed, pad: runtime.GOMAXPROCS(0) > 1}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Seed returns the seed the runtime's coin streams derive from (trace
// recorders store it so a recorded execution can be replayed on the
// simulator with the same streams).
func (n *Native) Seed() uint64 { return n.seed }

// NewReg allocates an atomic register.
func (n *Native) NewReg(init uint64) Reg {
	return n.newReg(init)
}

// NewCASReg allocates an atomic register with compare-and-swap.
func (n *Native) NewCASReg(init uint64) CASReg {
	return n.newReg(init)
}

func (n *Native) newReg(init uint64) CASReg {
	var r *nativeReg
	if n.pad {
		r = &new(paddedReg).nativeReg
	} else {
		r = new(nativeReg)
	}
	r.v.Store(init)
	return r
}

// Run executes body on k goroutines and blocks until all return, on a
// one-shot RunGroup; repeated executions should hold a group instead.
func (n *Native) Run(k int, body func(p Proc)) *Stats {
	return n.NewRunGroup(k).Run(body)
}

// NewProc returns a standalone process context bound to the runtime, for
// serving loops that run operations outside Run (one checkout at a time
// against a pooled object graph — see internal/serve). The coin stream
// derives from (seed, id), exactly as Run derives the stream of process id.
// A NativeProc must only be used by one goroutine at a time.
func (n *Native) NewProc(id int) *NativeProc {
	return &NativeProc{id: id, rt: n, rng: rng.Derived(n.seed, uint64(id))}
}

// RunGroup is a reusable execution context for repeated Run calls against
// the same runtime: the proc contexts and the Stats record are allocated
// once and recycled, so the steady state of a serving loop spends zero
// allocations per execution beyond the k goroutines themselves.
//
// Each Run re-derives every process's coin stream from (seed, id), so
// repeated executions are indistinguishable from fresh ones. Native.Run is
// a one-shot group. The returned Stats are valid until the next Run on the
// same group.
type RunGroup struct {
	n       *Native
	procs   []NativeProc
	stats   Stats
	hook    StepHook
	crashed []bool
}

// NewRunGroup returns a reusable context for k-process executions.
func (n *Native) NewRunGroup(k int) *RunGroup {
	return &RunGroup{
		n:     n,
		procs: make([]NativeProc, k),
		stats: Stats{PerProc: make([]OpCounts, k)},
	}
}

// SetHook arms (or, with nil, disarms) the group's step hook for
// subsequent Runs, scoping fault injection or recording to this group's
// executions; arming must not race an execution in flight. Standalone
// procs (NewProc) are never hooked.
func (g *RunGroup) SetHook(h StepHook) { g.hook = h }

// Run executes body once per process, reusing the group's proc contexts.
// With a hook armed, Stats.Crashed reports which processes the hook
// crashed; it is nil otherwise.
func (g *RunGroup) Run(body func(p Proc)) *Stats {
	h := g.hook
	var crashed []bool
	if h != nil {
		if g.crashed == nil || len(g.crashed) != len(g.procs) {
			g.crashed = make([]bool, len(g.procs))
		}
		for i := range g.crashed {
			g.crashed[i] = false
		}
		crashed = g.crashed
	}
	spawn := spawnFunc(h, body, crashed)
	var wg sync.WaitGroup
	wg.Add(len(g.procs))
	for i := range g.procs {
		p := &g.procs[i]
		p.id = i
		p.rng = rng.Derived(g.n.seed, uint64(i))
		p.rt = g.n
		p.counts = OpCounts{}
		go func() {
			defer wg.Done()
			spawn(p)
		}()
	}
	wg.Wait()
	for i := range g.procs {
		g.stats.PerProc[i] = g.procs[i].counts
	}
	g.stats.Crashed = crashed
	return &g.stats
}

// nativeReg is the native runtime's one register type: an atomic word.
// Padded registers embed it (paddedReg).
type nativeReg struct {
	v atomic.Uint64
}

func (r *nativeReg) Read(p Proc) uint64 {
	p.Step(OpRead)
	return LogWord(p, &r.v, OpRead, r.v.Load())
}

func (r *nativeReg) Write(p Proc, v uint64) {
	p.Step(OpWrite)
	storeWord(&r.v, v)
	LogWord(p, &r.v, OpWrite, v)
}

func (r *nativeReg) CompareAndSwap(p Proc, old, new uint64) bool {
	p.Step(OpCAS)
	LogWord(p, &r.v, OpCAS, new)
	return r.v.CompareAndSwap(old, new)
}

// Restore resets the register between executions (no step accounting).
// A register that already holds v is only read (storeWord).
func (r *nativeReg) Restore(v uint64) { storeWord(&r.v, v) }

// paddedReg pads a register word to a full cache line: renaming networks
// allocate registers in droves, and adjacent hot registers (the two sides
// of a test-and-set) would otherwise false-share under real parallelism.
// Padded registers are still nativeRegs: a padded arena's element, or an
// individually allocated padded register, hands out its embedded
// nativeReg.
type paddedReg struct {
	nativeReg
	_ [56]byte
}

// NewRegs bulk-allocates n zero-initialized registers in one contiguous
// arena (one allocation instead of n), with the runtime's register layout.
func (n *Native) NewRegs(count int) RegArena {
	if n.pad {
		return nativePaddedArena(make([]paddedReg, count))
	}
	return nativeArena(make([]nativeReg, count))
}

type nativeArena []nativeReg

func (a nativeArena) Len() int            { return len(a) }
func (a nativeArena) Reg(i int) Reg       { return &a[i] }
func (a nativeArena) CASReg(i int) CASReg { return &a[i] }

// Reset stores only the registers that read nonzero (storeWord): serving
// pools sweep their arenas on every Put while an operation dirties only a
// few registers.
func (a nativeArena) Reset() {
	for i := range a {
		storeWord(&a[i].v, 0)
	}
}

type nativePaddedArena []paddedReg

func (a nativePaddedArena) Len() int            { return len(a) }
func (a nativePaddedArena) Reg(i int) Reg       { return &a[i].nativeReg }
func (a nativePaddedArena) CASReg(i int) CASReg { return &a[i].nativeReg }

// Reset stores only the registers that read nonzero (see nativeArena).
func (a nativePaddedArena) Reset() {
	for i := range a {
		storeWord(&a[i].v, 0)
	}
}

// NativeProc is the native runtime's per-process execution context. It is
// exported so the devirtualized register path (see fast.go) can reach its
// methods through direct calls; user code holds it as a Proc. One goroutine
// at a time per NativeProc.
type NativeProc struct {
	id     int
	rt     *Native
	rng    rng.SplitMix64
	counts OpCounts
	_      [64]byte // keep adjacent procs' counters off each other's lines
}

// ID returns the process index.
func (p *NativeProc) ID() int { return p.id }

// Coin returns a uniform value in [0, n) from the proc's private stream.
func (p *NativeProc) Coin(n uint64) uint64 {
	p.counts.Coins++
	return p.rng.Uint64n(n)
}

// Step accounts for one shared-memory operation: one counter increment.
// Fault injection and trace recording do not touch this path: executions
// with a StepHook armed run their bodies behind a hookedProc wrapper (see
// hook.go). The compiler inlines Step into the FastReg methods and the
// max-register word walks, so a native register step is at most one call
// (see fast.go).
func (p *NativeProc) Step(op Op) { p.counts.Ops[op]++ }

// Note records a non-step accounting event.
func (p *NativeProc) Note(ev Event) {
	p.counts.Events[ev]++
}

// Now returns the process's own step count: monotone per process but not
// comparable across processes, the trade for a contention-free step path.
func (p *NativeProc) Now() uint64 { return p.counts.Steps() }

// StepsTaken returns the process's own running step count (used by the
// benchmark harness to attribute costs to individual operations).
func (p *NativeProc) StepsTaken() uint64 {
	return p.counts.Steps()
}

// Counts returns a copy of the proc's accounting record (serving loops
// aggregate these across checkouts; Run-based executions read Stats
// instead).
func (p *NativeProc) Counts() OpCounts {
	return p.counts
}

// Reset rewinds a standalone proc to its just-created state: the coin
// stream re-derives from (runtime seed, id) and the accounting zeroes.
// Serving pools recycle procs with it between checkouts, so a recycled
// proc is indistinguishable from NewProc(id) — the proc-side half of the
// pooled bit-identical-reuse contract. Between operations only.
func (p *NativeProc) Reset() {
	p.rng = rng.Derived(p.rt.seed, uint64(p.id))
	p.counts = OpCounts{}
}
