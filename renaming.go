package renaming

import (
	"repro/internal/core"
	"repro/internal/countnet"
	"repro/internal/maxreg"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/sortnet"
	"repro/internal/tas"
)

// Core shared-memory abstractions, re-exported for users of the facade.
type (
	// Proc is the per-process execution context handed to Run bodies.
	Proc = shmem.Proc
	// Reg is a multi-writer multi-reader atomic register.
	Reg = shmem.Reg
	// Mem allocates shared objects bound to one runtime.
	Mem = shmem.Mem
	// Runtime executes process bodies against shared objects.
	Runtime = shmem.Runtime
	// Stats is the per-execution step accounting.
	Stats = shmem.Stats
	// Adversary chooses the schedule in the simulated runtime.
	Adversary = sim.Adversary
	// SimRuntime is the deterministic adversarial simulator.
	SimRuntime = sim.Runtime
	// TraceEvent is one scheduling decision of a traced simulation.
	TraceEvent = sim.TraceEvent
)

// Renaming and counting objects.
type (
	// StrongAdaptive is the paper's headline algorithm (Section 6.2).
	StrongAdaptive = core.StrongAdaptive
	// BitBatching is the non-adaptive strong renaming of Section 4.
	BitBatching = core.BitBatching
	// RenamingNetwork is the fixed-namespace construction of Section 5.
	RenamingNetwork = core.RenamingNetwork
	// LinearProbe is the folklore linear-time baseline.
	LinearProbe = core.LinearProbe
	// Counter is the monotone-consistent counter of Section 8.1.
	Counter = core.MonotoneCounter
	// FetchInc is the m-valued fetch-and-increment of Section 8.2.
	FetchInc = core.FetchInc
	// LTAS is the linearizable ℓ-test-and-set of Algorithm 1.
	LTAS = core.LTestAndSet
	// LinearizableCounter is the deterministic counter of Aspnes, Attiya
	// and Censor [17] — the heavier baseline the paper's monotone counter
	// improves on by a log factor.
	LinearizableCounter = maxreg.AACCounter
	// MaxRegister is a linearizable max register [17].
	MaxRegister = maxreg.MaxReg
	// LongLived is the long-lived renaming extension (Section 9 future
	// work): acquired names can be released and are recycled.
	LongLived = core.LongLived
	// CountingNetwork is the bitonic counting network of [26], the related
	// object Section 3 contrasts with renaming networks.
	CountingNetwork = countnet.Network
)

// NewSim returns the deterministic simulator runtime: processes advance in
// lock-step under adv's schedule, coin flips derive from seed, and the
// returned Stats carry exact per-process step counts. Each Run consumes
// the runtime; rt.Reset(seed, adv) rewinds it for the next execution while
// keeping every register (and therefore every instantiated object graph)
// valid — the repeated-execution fast path.
func NewSim(seed uint64, adv Adversary) *SimRuntime {
	return sim.New(seed, adv)
}

// NewSimCapped is NewSim with a global step budget; the run aborts (with
// Stats.StepCapHit set) instead of running forever under a starvation-prone
// schedule.
func NewSimCapped(seed uint64, adv Adversary, cap uint64) *SimRuntime {
	return sim.New(seed, adv, sim.WithStepCap(cap))
}

// NewSimTraced is NewSim with an execution-transcript observer: fn runs
// synchronously on every scheduling decision.
func NewSimTraced(seed uint64, adv Adversary, fn func(TraceEvent)) *SimRuntime {
	return sim.New(seed, adv, sim.WithTrace(fn))
}

// NativeOption configures the native runtime.
type NativeOption = shmem.NativeOption

// Native is the concrete native runtime. Serving loops that need the
// beyond-Runtime surface (standalone procs via NewProc, reusable
// execution groups via NewRunGroup) downcast the NewNative result to it.
type Native = shmem.Native

// NativeProc is the native runtime's per-process context. Register
// operations on native registers devirtualize against it: the step
// accounting behind every Read/Write/TAS compiles to direct calls.
type NativeProc = shmem.NativeProc

// NewNative returns the concurrent runtime: real goroutines over
// sync/atomic registers. Interleavings are up to the Go scheduler; step
// counts remain exact and are accounted per process without any shared
// state, so the step hot path is contention-free.
func NewNative(seed uint64, opts ...NativeOption) Runtime {
	return shmem.NewNative(seed, opts...)
}

// WithTimestamps makes the native runtime maintain a shared atomic clock
// behind Proc.Now, so operation intervals can be compared across processes
// (the linearizability and monotone-consistency checkers need this). It
// serializes every step on one cache line — leave it off for benchmarks
// and production use, where Now reports the process-local step count.
func WithTimestamps() NativeOption {
	return shmem.WithTimestamps()
}

// WithRegisterPadding overrides the native runtime's automatic choice of
// register layout. By default registers are padded to a cache line each
// when GOMAXPROCS > 1 (false sharing only exists under real parallelism;
// on a single P padding just inflates the working set); the knob pins the
// layout for measurements of either configuration.
func WithRegisterPadding(on bool) NativeOption {
	return shmem.WithRegisterPadding(on)
}

// Schedules for the simulated runtime.

// RoundRobin returns the fair cyclic schedule.
func RoundRobin() Adversary { return sim.NewRoundRobin() }

// RoundRobinBurst returns the fair cyclic schedule granting each process
// burst consecutive steps per turn as one scheduler grant. The schedule is
// identical to re-choosing the process burst times; the steps inside a
// burst run without re-entering the scheduler (see BENCHMARKS.md).
func RoundRobinBurst(burst int) Adversary { return sim.NewRoundRobinBurst(burst) }

// RandomSchedule returns a seeded uniformly random schedule.
func RandomSchedule(seed uint64) Adversary { return sim.NewRandom(seed) }

// Sequential returns the fully serializing schedule (one process at a
// time, in id order).
func Sequential() Adversary { return sim.NewSequential() }

// AntiCoin returns a strong-adversary heuristic that starves processes
// whose latest coin flip favors them.
func AntiCoin(seed uint64) Adversary { return sim.NewAntiCoin(seed) }

// Laggard returns a schedule that starves one victim process until all
// others finish.
func Laggard(victim int) Adversary { return sim.NewLaggard(victim) }

// CrashAt wraps an adversary so that each process listed in at crashes
// when it is about to take the step after the given number of its own
// completed steps (0 crashes it before its first step). It is the
// simulator-only form; CrashAtStep builds the same plan as a FaultPlan,
// which also arms on the native runtime (see NewExecution).
func CrashAt(inner Adversary, at map[int]uint64) Adversary {
	return sim.NewCrashPlan(inner, at)
}

// Scripted returns a schedule that follows an explicit list of process
// indices (falling back to the lowest ready process when the scripted one
// is not ready, and to round robin after the script ends). Enumerating
// scripts gives exhaustive bounded model checking; fuzzing them gives
// property-based schedule coverage.
func Scripted(script []int) Adversary { return sim.NewReplay(script) }

// Oscillator returns a bursty schedule: each ready process runs burst
// consecutive steps before the next takes over.
func Oscillator(burst int) Adversary { return sim.NewOscillator(burst) }

// Option configures object constructors. Options are runtime-independent:
// they are part of an object's compiled blueprint, not of its instantiation.
type Option func(*options)

type options struct {
	hardware bool
	base     sortnet.Base
}

// compileOptions folds the option list into the blueprint-side settings.
func compileOptions(opts []Option) options {
	o := options{base: sortnet.BaseOEM}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// maker resolves the internal two-process TAS maker for one instantiation
// on mem — the runtime-dependent half of the options.
func (o options) maker(mem Mem) tas.SidedMaker {
	if o.hardware {
		return tas.MakeUnit
	}
	// Register-based TAS objects are allocated in droves; the pool maker
	// takes them from register chunks on either runtime.
	return tas.MakeTwoProcPool(mem)
}

// WithHardwareTAS makes internal two-process test-and-set objects a single
// compare-and-swap each. The paper notes this yields a deterministic
// algorithm with no loss in step complexity on machines with hardware TAS
// (Section 1, Discussion); it is also the fast choice under the native
// runtime.
func WithHardwareTAS() Option {
	return func(o *options) { o.hardware = true }
}

// WithRegisterTAS makes internal two-process test-and-set objects the
// randomized register-based protocol with the Tromp–Vitányi cost profile
// (the default; matches the paper's pure shared-memory model).
func WithRegisterTAS() Option {
	return func(o *options) { o.hardware = false }
}

// WithBalancedBase builds adaptive sorting networks from the balanced
// network of Dowd–Perl–Rudolph–Saks instead of Batcher's odd-even
// mergesort. Same depth exponent (c = 2), different constants — the
// ablation knob of BENCHMARKS.md.
func WithBalancedBase() Option {
	return func(o *options) { o.base = sortnet.BaseBalanced }
}

// Two-phase construction. Every object is split into a compiled
// *blueprint* — the runtime-independent shape: topology, geometry,
// layouts, compiled once per parameter point and cached process-wide — and
// an *instantiation* that stamps shared state onto one runtime. The NewX
// constructors below compile-and-instantiate in one call; the CompileX
// functions expose the blueprint so serving loops can instantiate the same
// shape on many runtimes, and instantiated objects support Reset so one
// instantiation serves many executions without reallocation:
//
//	bp := renaming.CompileRenaming()        // once per process
//	rt := renaming.NewSim(seed0, adv0)
//	ren := bp.Instantiate(rt)               // once per object graph
//	rt.Run(k, body)
//	for seed, adv := range executions {
//	    ren.Reset()                         // zero the shared state in place
//	    rt.Reset(seed, adv)                 // rewind the runtime
//	    rt.Run(k, body)                     // allocation-free after warmup
//	}
//
// For a fixed (seed, adversary) the reset path is bit-identical to fresh
// construction (the reuse equivalence tests pin this down).

// Resettable is implemented by every instantiated object in this package:
// Reset restores the shared state to its just-instantiated value without
// reallocating the object graph. Reset must only run between executions.
type Resettable = shmem.Resettable

// RenamingBlueprint is the compiled shape of the Section 6.2 strong
// adaptive renamer.
type RenamingBlueprint struct {
	o  options
	bp *core.StrongAdaptiveBlueprint
}

// CompileRenaming returns the process-wide cached blueprint for the strong
// adaptive renaming object with the given options.
func CompileRenaming(opts ...Option) *RenamingBlueprint {
	o := compileOptions(opts)
	return &RenamingBlueprint{o: o, bp: core.CompileStrongAdaptive(o.base)}
}

// Instantiate stamps the blueprint's shared state onto mem.
func (b *RenamingBlueprint) Instantiate(mem Mem) *StrongAdaptive {
	return b.bp.Instantiate(mem, b.o.maker(mem))
}

// NewRenaming builds the strong adaptive renaming object of Section 6.2 on
// mem: names come out 1..k for any contention k, Rename costs O(log k)
// expected test-and-set entries. Each invocation needs a globally unique
// nonzero uid (process id + 1 for one-shot use).
func NewRenaming(mem Mem, opts ...Option) *StrongAdaptive {
	return CompileRenaming(opts...).Instantiate(mem)
}

// BitBatchingBlueprint is the compiled shape of the Section 4 algorithm.
type BitBatchingBlueprint struct {
	o  options
	bp *core.BitBatchingBlueprint
}

// CompileBitBatching returns the process-wide cached blueprint for
// renaming into exactly n names.
func CompileBitBatching(n int, opts ...Option) *BitBatchingBlueprint {
	return &BitBatchingBlueprint{o: compileOptions(opts), bp: core.CompileBitBatching(n)}
}

// Instantiate stamps the blueprint's shared state onto mem.
func (b *BitBatchingBlueprint) Instantiate(mem Mem) *BitBatching {
	return b.bp.Instantiate(mem, b.o.maker(mem))
}

// NewBitBatchingRenaming builds the Section 4 algorithm: renaming into
// exactly n names for up to n participants, O(log² n) test-and-set probes
// per process w.h.p.
func NewBitBatchingRenaming(mem Mem, n int, opts ...Option) *BitBatching {
	return CompileBitBatching(n, opts...).Instantiate(mem)
}

// NetworkRenamingBlueprint is the compiled shape of the Section 5
// construction: the materialized sorting network (shared process-wide) and
// its comparator lookup tables.
type NetworkRenamingBlueprint struct {
	o  options
	bp *core.RenamingNetworkBlueprint
}

// CompileNetworkRenaming returns the process-wide cached blueprint of the
// Section 5 construction over Batcher's odd-even mergesort network of
// width m.
func CompileNetworkRenaming(m int, opts ...Option) *NetworkRenamingBlueprint {
	return &NetworkRenamingBlueprint{
		o:  compileOptions(opts),
		bp: core.CompileRenamingNetwork(sortnet.SharedOEMNet(m)),
	}
}

// Instantiate stamps the blueprint's shared state onto mem.
func (b *NetworkRenamingBlueprint) Instantiate(mem Mem) *RenamingNetwork {
	return b.bp.Instantiate(mem, b.o.maker(mem))
}

// NewNetworkRenaming builds the Section 5 construction over Batcher's
// odd-even mergesort network of width m: initial names must lie in [1, m];
// the k participants rename into 1..k in depth O(log² m) comparators.
func NewNetworkRenaming(mem Mem, m int, opts ...Option) *RenamingNetwork {
	return CompileNetworkRenaming(m, opts...).Instantiate(mem)
}

// NewLinearProbeRenaming builds the linear-time baseline renamer.
func NewLinearProbeRenaming(mem Mem, opts ...Option) *LinearProbe {
	return core.NewLinearProbe(mem, compileOptions(opts).maker(mem))
}

// CounterBlueprint is the compiled shape of the Section 8.1 counter (its
// renamer's blueprint; the max register has no precomputable shape).
type CounterBlueprint struct {
	o  options
	bp *core.StrongAdaptiveBlueprint
}

// CompileCounter returns the process-wide cached blueprint for the
// monotone-consistent counter.
func CompileCounter(opts ...Option) *CounterBlueprint {
	o := compileOptions(opts)
	return &CounterBlueprint{o: o, bp: core.CompileStrongAdaptive(o.base)}
}

// Instantiate stamps the blueprint's shared state onto mem.
func (b *CounterBlueprint) Instantiate(mem Mem) *Counter {
	return core.NewMonotoneCounterWith(b.bp.Instantiate(mem, b.o.maker(mem)), maxreg.NewUnbounded(mem))
}

// NewCounter builds the monotone-consistent counter of Section 8.1:
// increments cost O(log v) expected steps after v increments; reads return
// a value between the completed and started increment counts and are
// mutually ordered. Not linearizable — see the package tests for the
// paper's counterexample.
func NewCounter(mem Mem, opts ...Option) *Counter {
	return CompileCounter(opts...).Instantiate(mem)
}

// NewLinearizableCounter builds the Aspnes–Attiya–Censor counter [17] for
// up to n incrementing processes: linearizable, deterministic, with
// O(log n · log v) increments — the baseline of Lemma 4's comparison.
func NewLinearizableCounter(mem Mem, n int) *LinearizableCounter {
	return maxreg.NewAACCounter(mem, n)
}

// NewLTAS builds the linearizable ℓ-test-and-set of Algorithm 1: exactly
// min(ℓ, callers) invocations return true.
func NewLTAS(mem Mem, ell uint64, opts ...Option) *LTAS {
	return core.NewLTestAndSet(mem, ell, compileOptions(opts).maker(mem))
}

// NewFetchInc builds the linearizable m-valued fetch-and-increment of
// Algorithm 2: the i-th increment returns i (from 0), saturating at m−1,
// in O(log k · log m) expected steps.
func NewFetchInc(mem Mem, m uint64, opts ...Option) *FetchInc {
	return core.NewFetchInc(mem, m, compileOptions(opts).maker(mem))
}

// CountingNetworkBlueprint is the compiled wiring of Bitonic[w] (cached
// process-wide per width).
type CountingNetworkBlueprint = countnet.Blueprint

// CompileCountingNetwork returns the process-wide cached blueprint of the
// bitonic counting network Bitonic[w] (w a power of two).
func CompileCountingNetwork(w int) *CountingNetworkBlueprint {
	return countnet.CompileBitonic(w)
}

// NewCountingNetwork builds the bitonic counting network Bitonic[w] of
// Aspnes, Herlihy and Shavit [26] (w a power of two): tokens traversing it
// balance across outputs with the step property, and Next turns that into
// a shared counter. With one token per input wire it assigns tight ranks —
// the Section 3 equivalence with renaming networks [27].
func NewCountingNetwork(mem Mem, w int) *CountingNetwork {
	return countnet.NewBitonic(mem, w)
}

// NewLongLived builds the long-lived renaming extension: Acquire hands out
// a name unique among current holders (recycling released names before
// growing the namespace) and Release returns it. This is the engineering
// answer to the paper's Section 9 "long-lived renaming" direction — a
// lock-free free-list over the one-shot optimal renamer, not a solution to
// the open theoretical problem.
//
// LongLived supports Reset: the free list, the renamer, and every name —
// including names held by processes that crashed mid-execution — are
// reclaimed wholesale, so crashed holders cannot leak names across reuses.
func NewLongLived(mem Mem, opts ...Option) *LongLived {
	return core.NewLongLived(mem, CompileRenaming(opts...).Instantiate(mem))
}
