// Package serve is the sharded serving engine: it owns per-shard pools of
// pre-instantiated, resettable object graphs (renaming networks, strong
// adaptive renamers, counters — anything the two-phase object model can
// instantiate and Reset) and serves operations against them from
// arbitrarily many goroutines.
//
// The design splits the request path from construction completely:
//
//   - Checkout is lock-free. Each shard keeps its idle instances on a
//     Treiber-style freelist whose head packs a version tag with an index
//     into the shard's instance table, so pops and pushes are single CAS
//     operations with no ABA window. Shard headers are cache-line padded:
//     two shards' heads never share a line, so uncontended checkouts on
//     different shards never false-share.
//   - Shard selection hashes a cheap per-goroutine value (the address of a
//     stack slot — distinct per goroutine, free to obtain), so concurrent
//     callers spread across shards without any shared state. Callers with
//     a natural identity can pass it explicitly (GetKeyed).
//   - Overflow falls back to construction: when a shard runs dry the pool
//     instantiates a fresh instance from the cached blueprint (the
//     compile-once half of the two-phase model makes this cheap) and the
//     new instance joins the shard's freelist on Put, so the pool grows to
//     match peak demand.
//   - Recycling reuses the PR 2 reset machinery: Put restores the object
//     graph to its just-instantiated state in place, so every checkout
//     observes a fresh object with zero allocation. A caller that panics
//     mid-operation (Do/Execute recycle through a deferred Put) cannot
//     leak state into the next checkout — the same wholesale-reclaim
//     argument as the LongLived crash-recycle contract.
//
// Each instance is bound to its own runtime (its own register arenas and
// coin streams), so operations on different instances share no memory at
// all — the engine scales by sharding, not by synchronizing.
package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/exec"
	"repro/internal/rng"
	"repro/internal/shmem"
)

// Options configures a Pool.
type Options struct {
	// Shards is the number of independent freelists (rounded up to a power
	// of two). 0 means 2×GOMAXPROCS: enough spread that, with uniform
	// shard selection, concurrent callers rarely collide on one head.
	Shards int
	// PerShard is the number of instances pre-instantiated per shard.
	// 0 means 2.
	PerShard int
	// Seed derives each instance's runtime seed (instance i uses Seed+i),
	// so distinct instances draw distinct coin streams.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 2 * runtime.GOMAXPROCS(0)
	}
	o.Shards = ceilPow2(o.Shards)
	if o.PerShard <= 0 {
		o.PerShard = 2
	}
	return o
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Freelist head layout: [tag | idx+1]. The tag increments on every
// successful push or pop, which closes the classic Treiber ABA window (a
// stale CAS can never succeed: any intervening operation changed the tag).
// 21 index bits bound a shard at ~2M instances; 43 tag bits outlast any
// realistic run (one increment per checkout or return).
const (
	idxBits = 21
	idxMask = 1<<idxBits - 1
)

// Instance is one pooled object graph, exclusively held between Get and
// Put. Obj is the instantiated object; Runtime is the runtime it is bound
// to; Proc is a dedicated standalone process context for per-operation
// serving (native runtimes only).
type Instance[T shmem.Resettable] struct {
	// Obj is the instantiated object graph.
	Obj T

	rt   shmem.Runtime
	proc *shmem.NativeProc // dedicated serving proc, native only
	ex   *exec.Execution   // reusable Execute context (per k)
	home *shard[T]

	idx    uint32        // position in the home shard's instance table
	next   atomic.Uint32 // freelist link: idx+1 of the next idle instance
	leased atomic.Bool   // double-Put / double-checkout guard
}

// Runtime returns the runtime the instance's object graph is bound to.
func (in *Instance[T]) Runtime() shmem.Runtime { return in.rt }

// Proc returns the instance's dedicated serving proc. Only the holder may
// use it, and only until Put. Panics when the instance's runtime has no
// standalone proc support (only the native runtime does).
func (in *Instance[T]) Proc() shmem.Proc {
	if in.proc == nil {
		panic("serve: per-operation serving needs a native runtime (Instance.Proc is nil)")
	}
	return in.proc
}

// Put returns the instance to its home shard, restoring the object graph
// to its just-instantiated state first (unless the pool keeps state).
// Putting an instance that is not checked out panics — the double-Put
// guard. The guard is best-effort, like any use-after-free check: it
// catches a second Put while the instance is idle, but a stale Put that
// races a later checkout of the same instance is indistinguishable from
// that holder's legitimate Put and corrupts the pool, exactly as a
// double free corrupts an allocator.
func (in *Instance[T]) Put() {
	// Guard first: a double Put must fail before touching the graph, which
	// may already be another caller's.
	if !in.leased.CompareAndSwap(true, false) {
		panic("serve: Put of an instance that is not checked out (double Put?)")
	}
	// Between the guard and the push the instance is unreachable (not on
	// the freelist), so the reset still runs with exclusive access. The
	// dedicated proc recycles with the graph: its coin stream re-derives,
	// so the next checkout's operations are bit-identical to a fresh
	// instance's (also for randomized blueprints).
	in.Obj.Reset()
	if in.proc != nil {
		in.proc.Reset()
	}
	// A FaultPlan or recorder armed on the execution context belongs to the
	// holder's session, never to the graph: disarm it, so chaos testing one
	// checkout cannot crash the next holder's executions.
	if in.ex != nil {
		in.ex.Faults(nil)
		in.ex.StopRecording()
	}
	in.home.leased.Add(-1)
	in.home.push(in)
}

// Execute runs one k-process execution against the instance's object graph
// and returns its accounting. Executions go through the unified execution
// layer (internal/exec): on the native runtime the proc contexts are pooled
// per instance, so repeated Executes allocate nothing beyond the k
// goroutines. The Stats are valid until the next Execute on this instance.
func (in *Instance[T]) Execute(k int, body func(p shmem.Proc, obj T)) *shmem.Stats {
	return in.Exec(k).Run(func(p shmem.Proc) { body(p, in.Obj) })
}

// Exec returns the instance's execution context for k-process executions,
// building (or rebuilding, when k changes) it on demand. The holder may arm
// a FaultPlan or trace recording on it before calling Run — chaos-testing a
// checked-out instance uses the same layer as a standalone execution.
func (in *Instance[T]) Exec(k int) *exec.Execution {
	if in.ex == nil || in.ex.K() != k {
		in.ex = exec.New(in.rt, k)
	}
	return in.ex
}

// shard is one independent freelist. The hot fields (head, hit/overflow
// counters) live in the first cache line; the padding keeps the next
// shard's header two lines away so adjacent-line prefetching cannot
// false-share either.
type shard[T shmem.Resettable] struct {
	head      atomic.Uint64 // [tag | idx+1]; 0 = empty
	hits      atomic.Uint64 // checkouts served from the freelist
	overflows atomic.Uint64 // checkouts that had to instantiate
	leased    atomic.Int64  // instances currently checked out of this shard
	retries   atomic.Uint64 // failed head CASes (pop or push) — the contention gauge

	mu    sync.Mutex                     // guards instance-table growth only
	insts atomic.Pointer[[]*Instance[T]] // copy-on-write; indices are stable

	// Pad the struct to 128 bytes (two cache lines): the hot fields above
	// total 56, so consecutive shards' heads land ≥128 bytes apart and
	// adjacent-line prefetching cannot re-couple them.
	_ [72]byte
}

// pop takes an idle instance off the freelist, or returns nil. Each failed
// head CAS counts one retry: the uncontended path is unchanged, and the
// counter lives on the shard header line the CAS already owns.
func (s *shard[T]) pop() *Instance[T] {
	for {
		h := s.head.Load()
		if h&idxMask == 0 {
			return nil
		}
		in := (*s.insts.Load())[h&idxMask-1]
		next := uint64(in.next.Load())
		if s.head.CompareAndSwap(h, (h>>idxBits+1)<<idxBits|next) {
			return in
		}
		s.retries.Add(1)
	}
}

// push returns an instance to the freelist (failed CASes count retries,
// as in pop).
func (s *shard[T]) push(in *Instance[T]) {
	for {
		h := s.head.Load()
		in.next.Store(uint32(h & idxMask))
		if s.head.CompareAndSwap(h, (h>>idxBits+1)<<idxBits|uint64(in.idx+1)) {
			return
		}
		s.retries.Add(1)
	}
}

// register adds a new instance to the shard's table (slow path: only on
// pool construction and overflow instantiation).
func (s *shard[T]) register(in *Instance[T]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cur []*Instance[T]
	if p := s.insts.Load(); p != nil {
		cur = *p
	}
	if len(cur) >= idxMask {
		panic(fmt.Sprintf("serve: shard exceeds %d instances", idxMask))
	}
	next := make([]*Instance[T], len(cur)+1)
	copy(next, cur)
	in.idx = uint32(len(cur))
	in.home = s
	next[len(cur)] = in
	s.insts.Store(&next)
}

// Pool is the sharded serving engine over one instantiation recipe.
type Pool[T shmem.Resettable] struct {
	shards []shard[T]
	mask   uint64

	newRuntime  func(id uint64) shmem.Runtime
	instantiate func(mem shmem.Mem) T
	instSeq     atomic.Uint64 // instance id source (seeds, proc ids)
}

// New builds a pool whose instances live on private native runtimes —
// the production serving configuration. instantiate stamps one object
// graph onto a runtime's Mem; with the two-phase model this is
// bp.Instantiate under the hood, so the expensive compile happens once
// process-wide no matter how many instances the pool grows.
func New[T shmem.Resettable](opts Options, instantiate func(mem shmem.Mem) T) *Pool[T] {
	seed := opts.Seed
	return NewWithRuntime(opts, func(id uint64) shmem.Runtime {
		return shmem.NewNative(seed + id)
	}, instantiate)
}

// NewWithRuntime is New with an explicit per-instance runtime factory
// (tests pool simulator-backed instances to replay executions
// deterministically).
func NewWithRuntime[T shmem.Resettable](opts Options, newRuntime func(id uint64) shmem.Runtime, instantiate func(mem shmem.Mem) T) *Pool[T] {
	opts = opts.withDefaults()
	p := &Pool[T]{
		shards:      make([]shard[T], opts.Shards),
		mask:        uint64(opts.Shards - 1),
		newRuntime:  newRuntime,
		instantiate: instantiate,
	}
	for i := range p.shards {
		s := &p.shards[i]
		for j := 0; j < opts.PerShard; j++ {
			in := p.newInstance()
			s.register(in)
			s.push(in)
		}
	}
	return p
}

// newInstance instantiates one object graph on a fresh runtime.
func (p *Pool[T]) newInstance() *Instance[T] {
	id := p.instSeq.Add(1) - 1
	rt := p.newRuntime(id)
	in := &Instance[T]{
		Obj: p.instantiate(rt),
		rt:  rt,
	}
	if n, ok := rt.(*shmem.Native); ok {
		// One standalone proc per instance for per-operation serving.
		// Always id 0: instances are disjoint graphs on private runtimes
		// (distinct seeds already give distinct coin streams), and dense
		// per-proc bookkeeping like core.UIDSource sizes itself to the
		// largest proc id it sees.
		in.proc = n.NewProc(0)
	}
	return in
}

// goroutineKey returns a cheap value that distinguishes concurrent
// goroutines: the address of a stack slot. It costs no shared-memory
// traffic (the alternative — an atomic ticket counter — would put every
// checkout back on one contended cache line). Stacks can move, so the
// value is not stable forever; it only steers shard selection, never
// correctness.
func goroutineKey() uint64 {
	var b byte
	return uint64(uintptr(unsafe.Pointer(&b)))
}

// Get checks out an instance, selecting the shard by a cheap
// per-goroutine hash. The caller owns the instance until Put.
func (p *Pool[T]) Get() *Instance[T] {
	return p.GetKeyed(goroutineKey())
}

// ShardFor returns the shard index GetKeyed(key) selects — the
// attribution hook the tracing layer stamps into op spans, so a slow op's
// span names the same shard the op actually contended on.
func (p *Pool[T]) ShardFor(key uint64) int {
	return int(rng.Mix64(key) & p.mask)
}

// GetKeyed is Get with an explicit shard-selection key (a process id, a
// connection id — anything roughly uniform).
func (p *Pool[T]) GetKeyed(key uint64) *Instance[T] {
	s := &p.shards[rng.Mix64(key)&p.mask]
	in := s.pop()
	if in == nil {
		// Shard ran dry: instantiate from the cached blueprint. The new
		// instance joins this shard's freelist on Put.
		in = p.newInstance()
		s.register(in)
		s.overflows.Add(1)
	} else {
		s.hits.Add(1)
	}
	if !in.leased.CompareAndSwap(false, true) {
		panic("serve: checked-out instance found on the freelist (Put after use-after-Put?)")
	}
	s.leased.Add(1)
	return in
}

// Do checks an instance out, runs one operation against it on the
// instance's dedicated proc, and recycles it — also when fn panics, so a
// caller crashing mid-operation cannot leak a dirty graph to the next
// checkout.
func (p *Pool[T]) Do(fn func(px shmem.Proc, obj T)) {
	in := p.Get()
	defer in.Put()
	fn(in.Proc(), in.Obj)
}

// Execute checks an instance out, runs one k-process execution against it,
// recycles it (also on panic), and returns the execution's accounting.
// The returned Stats are a private copy: the instance's reusable record
// goes back to the pool with the instance, where the next checkout would
// overwrite it under the caller.
func (p *Pool[T]) Execute(k int, body func(px shmem.Proc, obj T)) *shmem.Stats {
	in := p.Get()
	defer in.Put()
	st := in.Execute(k, body)
	cp := &shmem.Stats{
		PerProc:    append([]shmem.OpCounts(nil), st.PerProc...),
		StepCapHit: st.StepCapHit,
	}
	if st.Crashed != nil {
		cp.Crashed = append([]bool(nil), st.Crashed...)
	}
	return cp
}

// Stats is a point-in-time summary of pool activity.
type Stats struct {
	Shards    int
	Instances int    // instances ever created (pre-instantiated + overflow)
	Hits      uint64 // checkouts served from a freelist
	Overflows uint64 // checkouts that instantiated a fresh graph
	InFlight  int    // instances checked out right now (the live gauge)
	Retries   uint64 // failed freelist CASes — checkout-path contention
}

// Stats sums the per-shard counters.
func (p *Pool[T]) Stats() Stats {
	st := Stats{Shards: len(p.shards), Instances: int(p.instSeq.Load())}
	for i := range p.shards {
		st.Hits += p.shards[i].hits.Load()
		st.Overflows += p.shards[i].overflows.Load()
		st.InFlight += int(p.shards[i].leased.Load())
		st.Retries += p.shards[i].retries.Load()
	}
	return st
}

// InFlight returns the number of instances checked out right now — the
// pool's live operation gauge. Each shard maintains its own counter on its
// already-hot header line, so the gauge adds no cross-shard traffic to the
// checkout path; a sum over shards is a consistent-enough sample for load
// monitoring (the workload harness samples it as live contention k(t)),
// not a linearizable snapshot.
func (p *Pool[T]) InFlight() int {
	var n int
	for i := range p.shards {
		n += int(p.shards[i].leased.Load())
	}
	return n
}
