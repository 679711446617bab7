// Package sim is a deterministic simulator for asynchronous shared memory
// under a strong adaptive adversary, the execution model of Section 2 of the
// paper.
//
// Each simulated process runs in its own coroutine (iter.Pull), and the
// coroutines advance in lock-step: before every shared-memory operation a
// process yields to the scheduler, and a pluggable Adversary chooses which
// process performs the next step. This gives
//
//   - exactly the sequentially-consistent interleavings of the asynchronous
//     shared-memory model (one atomic register operation at a time),
//   - exact per-process step counts (Go's scheduler never obscures them),
//   - a strong adversary: the Adversary observes every process's pending
//     operation and latest coin flips before choosing, and may crash
//     processes at any step boundary,
//   - deterministic replay: a (seed, adversary) pair fully determines the
//     execution.
//
// # Scheduler fast paths
//
// The hot path is engineered to keep one simulated step close to the cost of
// one coroutine switch (see BENCHMARKS.md):
//
//   - Steps transfer control with direct coroutine switches (iter.Pull)
//     instead of channel park/unpark pairs, which keeps the Go scheduler out
//     of the loop entirely; exactly one goroutine is runnable at any time, so
//     the simulation is single-threaded and race-free by construction.
//   - An adversary may grant a process a burst of consecutive steps
//     (Decision.Burst); steps inside a burst are consumed inline by the
//     process with no scheduler entry at all.
//   - When a single live process remains and the adversary is declared
//     NonCrashing, its decisions are forced; the scheduler grants the
//     remainder of the run (up to the step cap) as one burst.
//
// All fast paths preserve the execution bit for bit: for a fixed
// (seed, adversary) the trace and the per-process step counts are identical
// to the plain one-decision-per-step schedule.
package sim

import (
	"fmt"
	"iter"
	"math/bits"

	"repro/internal/rng"
	"repro/internal/shmem"
)

// View is what the strong adversary sees when choosing the next step: which
// processes are ready, what operation each is about to perform, and the most
// recent coin flip of each (the defining power of a strong adversary).
type View struct {
	// Ready[i] reports whether process i is stopped at a step boundary and
	// can be scheduled. At least one entry is true when Choose is called.
	Ready []bool
	// NumReady is the number of true entries in Ready.
	NumReady int
	// Pending[i] is the operation process i will perform when scheduled.
	// During a burst the process does not stop to re-publish intermediate
	// operations; the entry is refreshed at its next step boundary.
	Pending []shmem.Op
	// LastCoin[i] is the most recent value returned by process i's Coin.
	LastCoin []uint64
	// Steps[i] is the number of shared-memory steps process i has taken.
	Steps []uint64
	// Clock is the global step index.
	Clock uint64

	// bits mirrors Ready as a bitmap, one bit per process, maintained by
	// the scheduler. It lets schedules select among ready processes with
	// popcount arithmetic instead of scanning Ready.
	bits []uint64
}

// nthReady returns the index of the idx-th ready process in increasing
// process order (idx < NumReady), using the ready bitmap.
func (v *View) nthReady(idx int) int {
	for w, word := range v.bits {
		if n := bits.OnesCount64(word); idx >= n {
			idx -= n
			continue
		}
		for ; ; idx-- {
			b := bits.TrailingZeros64(word)
			if idx == 0 {
				return w<<6 + b
			}
			word &^= 1 << b
		}
	}
	panic("sim: ready bitmap out of sync with NumReady")
}

// firstReady returns the index of the lowest-numbered ready process, or -1.
func (v *View) firstReady() int {
	for w, word := range v.bits {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

func (v *View) setReady(i int)   { v.bits[i>>6] |= 1 << (i & 63) }
func (v *View) clearReady(i int) { v.bits[i>>6] &^= 1 << (i & 63) }

// MaxBurst is an effectively unbounded burst length: the scheduler clamps
// every grant to the remaining step budget, and re-consulting the adversary
// after 2^31−1 consecutive steps of the same process is free for any
// schedule whose choice is stable (the adversary is simply asked again).
const MaxBurst = 1<<31 - 1

// Decision is the adversary's scheduling choice.
type Decision struct {
	// Proc is the process to schedule; View.Ready[Proc] must be true.
	Proc int
	// Crash, if set, crashes the process instead of letting it take the
	// step. A crashed process never takes another step. Crash takes
	// precedence over Burst.
	Crash bool
	// Burst grants the process up to Burst consecutive steps without
	// re-entering the scheduler (values ≤ 1 grant a single step). Opting
	// into bursts trades adversary power for speed: the intermediate step
	// boundaries are not observed, and the process cannot be crashed or
	// preempted until the burst ends. The scheduler clamps the grant to the
	// remaining step budget, and the burst ends early if the process
	// finishes. Use MaxBurst to run a process until it finishes.
	Burst int
}

// Adversary chooses the schedule (and failures) of an execution.
// Implementations must be deterministic to make runs replayable.
type Adversary interface {
	Choose(v *View) Decision
}

// NonCrashing is an optional marker for adversaries that never set
// Decision.Crash. When the adversary implements it, the scheduler takes the
// single-ready fast path: once one live process remains every decision is
// forced, so the rest of the run is granted as one burst without consulting
// the adversary again. Crash-injecting adversaries must not implement it.
type NonCrashing interface {
	NeverCrashes()
}

// TraceEvent describes one scheduling decision, delivered to a WithTrace
// observer before the chosen process takes its step.
type TraceEvent struct {
	// Clock is the global step index at decision time.
	Clock uint64
	// Proc is the scheduled process.
	Proc int
	// Op is the operation the process is about to perform.
	Op shmem.Op
	// Crash reports that the decision crashed the process instead.
	Crash bool
}

// Runtime is a single-use simulator instance implementing shmem.Runtime.
type Runtime struct {
	seed    uint64
	adv     Adversary
	stepCap uint64
	trace   func(TraceEvent)

	clock    uint64
	view     View
	procs    []proc
	crashed  []bool
	regChunk []reg // amortizes simulated-register allocation
	noCrash  bool
	aborting bool
	// draining is true during the startup drain, when the ready set is not
	// yet complete and yielding processes must not run the decision logic.
	draining bool
	// pending holds a decision made by a yielding process for another
	// process (see proc.Step): the scheduler executes it instead of
	// deciding again.
	pending    Decision
	hasPending bool
	// panicVal records the first body panic. Exactly one coroutine runs at
	// a time (the scheduler blocks inside next while a process runs), so
	// recording it needs no lock — unlike the former goroutine runtime,
	// where processes panicking before their first step raced on it.
	panicVal any
	used     bool

	// reuse (WithReuse) keeps the whole run state — process coroutines,
	// scheduler buffers, the Stats — alive across Reset, making the
	// steady-state Reset+Run cycle allocation-free.
	reuse bool
	// spawned reports that r.procs holds live parked coroutines (reuse mode
	// only); they are reaped by Close or when k changes.
	spawned bool
	// body is the current Run's body, read by the persistent coroutines.
	body func(p shmem.Proc)
	// crashProc delivers a crash decision to the process about to be
	// resumed: the process checks it after its yield returns and unwinds
	// via the crash sentinel, leaving its coroutine parked and reusable
	// (stop() would terminate it for good). −1 means no crash pending.
	crashProc int
	// stats is the runtime-owned Stats returned by Run in reuse mode.
	stats shmem.Stats
}

var _ shmem.Runtime = (*Runtime)(nil)

// Option configures a Runtime.
type Option func(*Runtime)

// WithStepCap aborts the run (marking Stats.StepCapHit) once the global step
// count exceeds cap. It guards benchmarks against probability-zero livelocks
// and against adversaries that starve termination.
func WithStepCap(cap uint64) Option {
	return func(r *Runtime) { r.stepCap = cap }
}

// WithReuse keeps the run state alive across Reset: the process coroutines
// park at their end-of-body yield instead of returning, and Run rearms them —
// together with the scheduler's view buffers, the crash vector, and a
// runtime-owned Stats — in place when the next run has the same process
// count. The steady-state Reset+Run cycle then allocates nothing, which is
// what lets a sweep arena amortize run-state construction (coroutine spawns
// dominate the per-execution floor) across thousands of executions.
//
// Executions are bit-identical to a non-reusing runtime: coin streams are
// re-derived from the seed, all per-process state is cleared, and crashes are
// delivered as an in-band signal the unwinding process consumes (so a
// crashed process's coroutine survives for the next run).
//
// Two contract changes in reuse mode: the returned Stats is owned by the
// runtime and valid only until the next Run, and a runtime whose work is done
// must be Closed to stop the parked coroutines.
func WithReuse() Option {
	return func(r *Runtime) { r.reuse = true }
}

// WithTrace registers an observer invoked synchronously on every scheduling
// decision — the execution transcript (cmd/renametrace prints it). Steps
// taken inside a burst are reported one event each, identical to the events
// a one-step-at-a-time schedule would produce.
func WithTrace(fn func(TraceEvent)) Option {
	return func(r *Runtime) { r.trace = fn }
}

// Seed returns the seed the runtime's coin streams derive from.
func (r *Runtime) Seed() uint64 { return r.seed }

// Adversary returns the runtime's current adversary (the execution layer
// wraps it to inject faults without rebuilding the runtime).
func (r *Runtime) Adversary() Adversary { return r.adv }

// SetAdversary replaces the adversary for the next Run. Like Reset, it must
// not be called while a run is in flight; the replacement must be fresh
// (schedules carry state).
func (r *Runtime) SetAdversary(adv Adversary) { r.adv = adv }

// SetTrace installs (or, with nil, removes) the execution-transcript
// observer for subsequent runs — the post-construction form of WithTrace.
// It survives Reset, exactly as a WithTrace observer does.
func (r *Runtime) SetTrace(fn func(TraceEvent)) { r.trace = fn }

// New returns a simulator with the given coin seed and adversary.
func New(seed uint64, adv Adversary, opts ...Option) *Runtime {
	r := &Runtime{
		seed:    seed,
		adv:     adv,
		stepCap: 1 << 40,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// newReg hands out registers from a chunk: protocol objects allocate
// registers in droves (three per two-process TAS), and runs that lazily
// build their object graph would otherwise pay one tiny allocation each.
// Chunks are abandoned to the taken pointers once used up, so registers
// live exactly as long as their objects.
func (r *Runtime) newReg(init uint64) *reg {
	if len(r.regChunk) == 0 {
		r.regChunk = make([]reg, 64)
	}
	rg := &r.regChunk[0]
	r.regChunk = r.regChunk[1:]
	rg.v = init
	return rg
}

// NewReg allocates a simulated register.
func (r *Runtime) NewReg(init uint64) shmem.Reg { return r.newReg(init) }

// NewCASReg allocates a simulated register with unit-cost CAS.
func (r *Runtime) NewCASReg(init uint64) shmem.CASReg { return r.newReg(init) }

// NewRegs bulk-allocates n zero-initialized registers in one contiguous
// arena — the instantiation hook of the two-phase object model.
func (r *Runtime) NewRegs(n int) shmem.RegArena {
	return simArena(make([]reg, n))
}

type simArena []reg

func (a simArena) Len() int                  { return len(a) }
func (a simArena) Reg(i int) shmem.Reg       { return &a[i] }
func (a simArena) CASReg(i int) shmem.CASReg { return &a[i] }

func (a simArena) Reset() {
	for i := range a {
		a[i].v = 0
	}
}

// Reset rewinds the runtime for another execution: a fresh seed and
// adversary, the clock back at zero, no crashes, no processes. Registers
// and arenas already allocated from this runtime stay valid — that is the
// point: one instantiated object graph (reset via its own Reset methods)
// serves many executions without reallocation. For a fixed (seed,
// adversary) a run after Reset is bit-identical to a run on a fresh
// runtime with a freshly instantiated graph.
//
// The step cap and trace observer are retained. The adversary must be
// fresh (schedules carry state); passing a used adversary replays its
// remaining state, not the schedule from the top.
func (r *Runtime) Reset(seed uint64, adv Adversary) {
	r.seed = seed
	r.adv = adv
	r.clock = 0
	if !r.reuse {
		r.view = View{}
		r.procs = nil
		r.crashed = nil
	}
	r.aborting = false
	r.draining = false
	r.hasPending = false
	r.panicVal = nil
	r.used = false
}

// Close stops the parked process coroutines a reusing runtime keeps between
// runs. It must be called between runs (never while one is in flight); the
// runtime remains usable afterwards — the next Run simply rebuilds the run
// state. On a runtime without WithReuse it is a no-op.
func (r *Runtime) Close() { r.reap() }

// reap terminates all process coroutines and drops the proc table. stop on a
// parked coroutine resumes it with a false yield result, which exits its
// run loop; stop on an already-finished coroutine is a no-op.
func (r *Runtime) reap() {
	for i := range r.procs {
		if r.procs[i].stop != nil {
			r.procs[i].stop()
		}
	}
	r.spawned = false
	r.procs = nil
}

type crashSentinel struct{}

// Run executes body on k simulated processes. Each Run consumes the
// runtime; call Reset (new seed, fresh adversary) before running again.
// It panics with the original value if a process panics.
func (r *Runtime) Run(k int, body func(p shmem.Proc)) *shmem.Stats {
	if r.used {
		panic("sim: Runtime.Run called twice; Reset the Runtime (or allocate a fresh one) between runs")
	}
	r.used = true
	r.body = body
	r.crashProc = -1
	if r.spawned && len(r.procs) == k {
		// Reuse path: the coroutines are parked at their end-of-body yield;
		// clear the run state in place and rearm each process.
		for i := range r.crashed {
			r.crashed[i] = false
		}
		v := &r.view
		for i := 0; i < k; i++ {
			v.Ready[i] = false
			v.Pending[i] = 0
			v.LastCoin[i] = 0
			v.Steps[i] = 0
		}
		for i := range v.bits {
			v.bits[i] = 0
		}
		v.NumReady = 0
		v.Clock = 0
	} else {
		if r.spawned {
			r.reap() // process count changed: spawn a fresh coroutine set
		}
		r.procs = make([]proc, k)
		r.crashed = make([]bool, k)
		nw := (k + 63) / 64
		u := make([]uint64, 2*k+nw) // one backing array for the uint64 columns
		r.view = View{
			Ready:    make([]bool, k),
			Pending:  make([]shmem.Op, k),
			LastCoin: u[:k:k],
			Steps:    u[k : 2*k : 2*k],
			bits:     u[2*k:],
		}
		for i := range r.procs {
			p := &r.procs[i]
			p.id = i
			p.rt = r
			p.next, p.stop = iter.Pull(p.seq)
		}
		r.spawned = r.reuse
	}
	_, r.noCrash = r.adv.(NonCrashing)

	for i := range r.procs {
		p := &r.procs[i]
		p.rng = rng.Derived(r.seed, uint64(i))
		p.counts = shmem.OpCounts{}
		p.burst = 0
	}

	// Startup drain: advance every process to its first step boundary (or
	// to completion) once. The scheduler loop below never re-drains; each
	// decision resumes exactly one coroutine and waits for its next yield.
	r.draining = true
	for i := range r.procs {
		r.procs[i].next()
	}
	r.draining = false

	for r.view.NumReady > 0 {
		var d Decision
		if r.hasPending {
			// A yielding process already ran the decision logic and chose
			// another process; execute that decision instead of deciding
			// again (decisions for the yielder itself never reach here).
			d, r.hasPending = r.pending, false
		} else {
			d = r.decide()
		}
		p := &r.procs[d.Proc]
		r.view.Ready[d.Proc] = false
		r.view.clearReady(d.Proc)
		r.view.NumReady--
		if d.Crash {
			if r.trace != nil {
				r.trace(TraceEvent{
					Clock: r.clock,
					Proc:  d.Proc,
					Op:    r.view.Pending[d.Proc],
					Crash: true,
				})
			}
			// Deliver the crash in band: the process consumes crashProc when
			// its yield returns and unwinds via the sentinel, so its
			// coroutine survives for reuse (stop would terminate it).
			r.crashProc = d.Proc
			p.next()
			continue
		}
		p.burst = r.grantBurst(d) - 1
		p.next()
	}

	var st *shmem.Stats
	if r.reuse {
		st = &r.stats
		if cap(st.PerProc) < k {
			st.PerProc = make([]shmem.OpCounts, k)
		}
		st.PerProc = st.PerProc[:k]
	} else {
		st = &shmem.Stats{PerProc: make([]shmem.OpCounts, k)}
	}
	st.Crashed = r.crashed
	st.StepCapHit = r.aborting
	for i := range r.procs {
		st.PerProc[i] = r.procs[i].counts
	}
	if r.panicVal != nil {
		panic(r.panicVal)
	}
	return st
}

// decide produces the next scheduling decision. It may run on the scheduler
// or on the currently active (yielding) process coroutine — the two are
// never active at once, and the View they see at a step boundary is
// identical.
func (r *Runtime) decide() Decision {
	if r.clock >= r.stepCap {
		r.aborting = true
	}
	switch {
	case r.aborting:
		return Decision{Proc: r.view.firstReady(), Crash: true}
	case r.view.NumReady == 1 && r.noCrash:
		// Single-ready fast path: every live process is parked at a step
		// boundary whenever a decision is made, so one ready process means
		// one live process — every remaining decision is forced. Grant the
		// rest of the run as a single burst.
		return Decision{Proc: r.view.firstReady(), Burst: MaxBurst}
	}
	r.view.Clock = r.clock
	d := r.adv.Choose(&r.view)
	if d.Proc < 0 || d.Proc >= len(r.procs) || !r.view.Ready[d.Proc] {
		panic(fmt.Sprintf("sim: adversary chose non-ready process %d", d.Proc))
	}
	return d
}

// grantBurst clamps a non-crash decision's burst to the remaining step
// budget and returns the number of steps granted (≥ 1).
func (r *Runtime) grantBurst(d Decision) uint64 {
	burst := uint64(1)
	if d.Burst > 1 {
		burst = uint64(d.Burst)
	}
	if rem := r.stepCap - r.clock; burst > rem {
		burst = rem // clock < stepCap when granting, so rem ≥ 1
	}
	return burst
}

// proc implements shmem.Proc for the simulator. Each proc is a pull
// coroutine: next resumes it until its next step boundary, stop crashes it.
type proc struct {
	id     int
	rt     *Runtime
	burst  uint64 // pre-authorized steps beyond the granted one
	rng    rng.SplitMix64
	yield  func(struct{}) bool
	next   func() (struct{}, bool)
	stop   func()
	counts shmem.OpCounts
}

// seq is the coroutine body. Without reuse it runs the current Run's body
// once and returns. With reuse it parks at the trailing yield after each
// body, so the next Run resumes the same coroutine with a fresh body —
// run-state construction (the dominant per-execution cost, see BENCHMARKS.md)
// is paid once per runtime instead of once per run. The park yield returns
// false when the coroutine set is reaped (Close, or a changed process
// count), which exits the loop.
func (p *proc) seq(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.runBody()
		if !p.rt.reuse {
			return
		}
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody runs one execution's body with the exit classifier deferred, so a
// crash sentinel or body panic unwinds to here and the coroutine survives.
func (p *proc) runBody() {
	defer p.finish()
	p.rt.body(p)
}

// finish runs as the coroutine body's deferred epilogue: it classifies the
// exit (return, crash, panic) and records it. The scheduler is blocked in
// next or stop while it runs, so no lock is needed.
func (p *proc) finish() {
	if v := recover(); v != nil {
		p.rt.crashed[p.id] = true
		if _, ok := v.(crashSentinel); !ok && p.rt.panicVal == nil {
			p.rt.panicVal = v
		}
	}
}

func (p *proc) ID() int { return p.id }

func (p *proc) Coin(n uint64) uint64 {
	p.counts.Coins++
	c := p.rng.Uint64n(n)
	// Published to the adversary at the next yield (strong adversary sees
	// coins before scheduling the step that uses them).
	p.rt.view.LastCoin[p.id] = c
	return c
}

func (p *proc) Step(op shmem.Op) {
	if p.burst > 0 {
		// Pre-authorized by the current burst grant: take the step inline
		// without entering the scheduler.
		p.burst--
		p.account(op)
		return
	}
	r := p.rt
	r.view.Pending[p.id] = op
	r.view.Ready[p.id] = true
	r.view.setReady(p.id)
	r.view.NumReady++
	// Self-decision fast path: outside the startup drain this coroutine is
	// the only active one, so it can run the decision logic itself. When
	// the schedule picks this very process again (always in the solo phase,
	// with probability 1/ready under uniform schedules, every time under
	// Sequential), the step proceeds inline with no coroutine switch at
	// all. A decision for another process is handed to the scheduler, which
	// executes it without deciding twice.
	if !r.draining {
		d := r.decide()
		if d.Proc == p.id {
			r.view.Ready[p.id] = false
			r.view.clearReady(p.id)
			r.view.NumReady--
			if d.Crash {
				if r.trace != nil {
					r.trace(TraceEvent{Clock: r.clock, Proc: p.id, Op: op, Crash: true})
				}
				panic(crashSentinel{})
			}
			p.burst = r.grantBurst(d) - 1
			p.account(op)
			return
		}
		r.pending, r.hasPending = d, true
	}
	if !p.yield(struct{}{}) {
		panic(crashSentinel{}) // reaped mid-run (Close): unwind as a crash
	}
	if r.crashProc == p.id {
		// The scheduler's crash decision, delivered in band. The vetoed
		// step never happens: unwind before any accounting.
		r.crashProc = -1
		panic(crashSentinel{})
	}
	p.account(op)
}

// account records one granted step. It runs while this process is the only
// active coroutine, so it may touch runtime state freely; the trace event it
// emits is identical to the one a per-step schedule would produce.
func (p *proc) account(op shmem.Op) {
	r := p.rt
	if r.trace != nil {
		r.trace(TraceEvent{Clock: r.clock, Proc: p.id, Op: op})
	}
	p.counts.Ops[op]++
	r.view.Steps[p.id]++
	r.clock++
}

func (p *proc) Note(ev shmem.Event) {
	p.counts.Events[ev]++
}

func (p *proc) Now() uint64 { return p.rt.clock }

// StepsTaken returns the process's own running step count (used by the
// benchmark harness to attribute costs to individual operations).
func (p *proc) StepsTaken() uint64 { return p.counts.Steps() }

// reg is a simulated atomic register. The scheduler serializes all accesses
// (the owning process performs the memory access inside its granted slot),
// so a plain field suffices.
type reg struct {
	v uint64
}

// Restore resets the register between executions (no step accounting).
func (r *reg) Restore(v uint64) { r.v = v }

// step devirtualizes the Proc on the register hot path: registers from this
// runtime are driven by its own procs in every valid program, and the direct
// call is measurably cheaper than the interface dispatch.
func step(p shmem.Proc, op shmem.Op) {
	if sp, ok := p.(*proc); ok {
		sp.Step(op)
		return
	}
	p.Step(op)
}

func (r *reg) Read(p shmem.Proc) uint64 {
	step(p, shmem.OpRead)
	return r.v
}

func (r *reg) Write(p shmem.Proc, v uint64) {
	step(p, shmem.OpWrite)
	r.v = v
}

func (r *reg) CompareAndSwap(p shmem.Proc, old, new uint64) bool {
	step(p, shmem.OpCAS)
	if r.v == old {
		r.v = new
		return true
	}
	return false
}
