package phase

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/shmem"
)

// Policy selects how a Pool drives the counter's mode.
type Policy int

const (
	// Auto switches hysteretically on live contention signals (the
	// default).
	Auto Policy = iota
	// PinJoined locks the counter in joined mode (the A/B baseline leg).
	PinJoined
	// PinSplit locks the counter in split mode.
	PinSplit
)

// Options configures a Pool.
type Options struct {
	// Lanes is the number of serving lanes (rounded up to a power of two;
	// default 2×GOMAXPROCS, the rule serve.Pool sizes its shards by). Each
	// lane is a dedicated native proc plus its own contention counters,
	// held for one operation; lane count is also the counter's cell count
	// and the spine's process count, and every joined increment walks an
	// AAC tree over twice that many leaves. At most GOMAXPROCS goroutines
	// run operations at once, so two lanes per P leave one spare per P for
	// a holder descheduled mid-operation, and a lease that finds every lane
	// held yields.
	Lanes int
	// Epoch is the cooperative merge period per cell (rounded up to a
	// power of two; default 1024): in split mode a lane merges its cell
	// whenever the cell's cumulative count crosses a multiple of Epoch.
	Epoch int
	// Seed derives the pool runtime's coin streams.
	Seed uint64
	// Policy selects mode control (default Auto).
	Policy Policy
}

// The auto controller's tuning.
const (
	// tickOps is the controller's evaluation period in per-lane
	// operations (a power of two).
	tickOps = 4096
	// enterSplit is the contention score — failed lane leases per
	// operation over the last tick — at or above which a joined counter
	// votes to split.
	enterSplit = 0.05
	// exitSplit is the score at or below which a split counter votes to
	// rejoin; it sits below enterSplit — the hysteresis band.
	exitSplit = 0.01
	// settle is how many consecutive ticks must vote the same way before
	// the mode actually switches — the debounce half of the hysteresis.
	settle = 2
)

func (o Options) withDefaults() Options {
	if o.Lanes <= 0 {
		o.Lanes = 2 * runtime.GOMAXPROCS(0)
	}
	o.Lanes = ceilPow2(o.Lanes)
	if o.Epoch <= 0 {
		o.Epoch = 1024
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

// lane is one serving slot: a dedicated proc, exclusively held for the
// duration of one operation, plus the lane's contention accounting. The
// 64-bit atomics lead the struct (32-bit platforms need them 8-aligned)
// and the padding keeps consecutive lanes two cache lines apart.
type lane struct {
	ops     atomic.Uint64 // operations completed through this lane
	retries atomic.Uint64 // failed lease CASes by contenders probing this lane
	leased  atomic.Uint32 // 1 while a goroutine holds the lane
	_       [4]byte
	proc    *shmem.NativeProc
	_       [96]byte
}

// Pool serves one shared phased counter to arbitrarily many goroutines on
// one native runtime. Unlike serve.Pool — disjoint object graphs checked
// out whole — every operation here targets the *same* counter; the lanes
// only multiplex proc contexts and collect the contention signal the auto
// controller consumes: lease retries. A failed lane-lease CAS means two
// goroutines raced one lane — the checkout-path analogue of serve's
// freelist retry gauge. InFlight (lanes held right now, shaped like
// serve.Pool.InFlight) is reported but does not drive the controller.
//
// The controller folds retries into a per-op score and switches the
// counter's mode with hysteresis (enter/exit thresholds a band apart, and
// settle consecutive ticks to act), so a burst must persist before the
// pool splits and fade before it rejoins — no flapping at the boundary.
type Pool struct {
	c     *Counter
	lanes []lane
	mask  uint64
	opts  Options

	// Controller state: guarded by the evaluating flag (one evaluator at a
	// time; losers skip — a missed tick is re-taken tickOps ops later).
	evaluating  atomic.Uint32
	lastOps     uint64
	lastRetries uint64
	streak      int
}

// NewPool builds the serving pool and its counter.
func NewPool(opts Options) *Pool {
	opts = opts.withDefaults()
	rt := shmem.NewNative(opts.Seed)
	c := NewAAC(rt, opts.Lanes, opts.Epoch)
	p := &Pool{
		c:     c,
		lanes: make([]lane, opts.Lanes),
		mask:  uint64(opts.Lanes - 1),
		opts:  opts,
	}
	for i := range p.lanes {
		p.lanes[i].proc = rt.NewProc(i)
	}
	switch opts.Policy {
	case PinJoined:
		c.SetMode(Joined)
	case PinSplit:
		c.SetMode(Split)
	}
	return p
}

// Counter returns the shared phased counter (tests and embedders; the
// serving surface is Inc/Read/ReadStrict).
func (p *Pool) Counter() *Counter { return p.c }

// goroutineKey distinguishes concurrent goroutines cheaply: the address of
// a stack slot (as in serve's shard selection). It steers lane choice
// only; a collision costs one probe, never correctness.
func goroutineKey() uint64 {
	var b byte
	return uint64(uintptr(unsafe.Pointer(&b)))
}

// lease acquires a lane by hashed goroutine identity with linear probing.
// Every failed lease CAS bumps the probed lane's retry counter — that IS
// the contention signal, measured exactly where it occurs. A full sweep
// without a free lane yields the processor (every lane busy means more
// runnable goroutines than lanes).
func (p *Pool) lease() *lane {
	h := rng.Mix64(goroutineKey())
	for i := uint64(0); ; i++ {
		ln := &p.lanes[(h+i)&p.mask]
		if ln.leased.CompareAndSwap(0, 1) {
			return ln
		}
		ln.retries.Add(1)
		if i&p.mask == p.mask {
			runtime.Gosched()
		}
	}
}

func (p *Pool) release(ln *lane) { ln.leased.Store(0) }

// Inc increments the shared counter through a leased lane: Add(1).
func (p *Pool) Inc() { p.Add(1) }

// Add adds n ≥ 1 to the shared counter through one lease and one counter
// operation (Counter.Add), and counts n operations on the lane: a batch
// of increments that are concurrent anyway, served at the cost of one.
func (p *Pool) Add(n uint64) {
	ln := p.lease()
	p.c.Add(ln.proc, n)
	p.finish(ln, n)
}

// Read returns the fast monotone-consistent value.
func (p *Pool) Read() uint64 {
	ln := p.lease()
	v := p.c.Read(ln.proc)
	p.finish(ln, 1)
	return v
}

// ReadStrict forces a full reconciliation and returns the authoritative
// value.
func (p *Pool) ReadStrict() uint64 {
	ln := p.lease()
	v := p.c.ReadStrict(ln.proc)
	p.finish(ln, 1)
	return v
}

// finish completes a lane operation that counts as ops operations: per-lane
// op accounting, a controller tick when this lane's count crosses a
// multiple of the evaluation period, then the lease release.
func (p *Pool) finish(ln *lane, ops uint64) {
	n := ln.ops.Add(ops)
	if p.opts.Policy == Auto && (n-ops)/tickOps != n/tickOps {
		p.tick(ln.proc)
	}
	p.release(ln)
}

// tick runs one controller evaluation (single evaluator; losers skip).
// The score is contention per operation since the last tick: lease
// retries over completed ops. Hysteresis is a threshold band
// (enterSplit > exitSplit) plus a settle-tick debounce in both directions.
func (p *Pool) tick(proc *shmem.NativeProc) {
	if !p.evaluating.CompareAndSwap(0, 1) {
		return
	}
	defer p.evaluating.Store(0)

	var ops, retries uint64
	for i := range p.lanes {
		ops += p.lanes[i].ops.Load()
		retries += p.lanes[i].retries.Load()
	}
	dOps := ops - p.lastOps
	dRetries := retries - p.lastRetries
	if dOps == 0 {
		return
	}
	p.lastOps, p.lastRetries = ops, retries
	score := float64(dRetries) / float64(dOps)

	switch p.c.Mode() {
	case Joined:
		if score >= enterSplit {
			p.streak++
		} else {
			p.streak = 0
		}
		if p.streak >= settle {
			p.streak = 0
			p.c.SetMode(Split)
		}
	case Split:
		if score <= exitSplit {
			p.streak++
		} else {
			p.streak = 0
		}
		if p.streak >= settle {
			p.streak = 0
			p.c.SetMode(Joined)
			// Drain the cells so the spine is fresh for the joined phase
			// (correctness never needed it — reads sweep the cells — but a
			// rejoined counter should not carry split-era staleness).
			p.c.Reconcile(proc)
		}
	}
}

// InFlight returns the number of lanes held right now — the live-operation
// gauge, shaped like serve.Pool.InFlight.
func (p *Pool) InFlight() int {
	var n int
	for i := range p.lanes {
		n += int(p.lanes[i].leased.Load())
	}
	return n
}

// Stats is a point-in-time summary of the pool and its counter.
type Stats struct {
	Mode         Mode   // current phase
	Switches     uint64 // mode transitions so far
	Merges       uint64 // cell merges into the spine
	Ops          uint64 // operations served
	LeaseRetries uint64 // failed lane-lease CASes
	InFlight     int    // lanes held right now
	Lag          uint64 // unmerged counts: fast value − spine value
}

// Stats samples the pool (the Lag sample leases a lane).
func (p *Pool) Stats() Stats {
	st := Stats{Mode: p.c.Mode(), Switches: p.c.Switches(), Merges: p.c.Merges()}
	for i := range p.lanes {
		st.Ops += p.lanes[i].ops.Load()
		st.LeaseRetries += p.lanes[i].retries.Load()
		st.InFlight += int(p.lanes[i].leased.Load())
	}
	ln := p.lease()
	st.Lag = p.c.Lag(ln.proc)
	p.release(ln)
	return st
}
