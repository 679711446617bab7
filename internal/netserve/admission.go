package netserve

import (
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Admission control on the server's checkout path: a service under burst
// load must degrade by an explicit, bounded amount, not by unbounded
// queueing. The pools themselves never block (a dry shard instantiates),
// so overload shows up as CPU oversubscription — every admitted op gets
// slower together, and the tail grows without bound. The admission layer
// converts that failure mode into a controlled one:
//
//   - Each op acquires a slot on one of a fixed set of gates before it
//     touches a pool, selected by the same key hash the pools shard by, so
//     a hot key saturates its own gate instead of the whole server.
//   - A gate holds a bounded number of slots (Config.PerShard). When they
//     are all taken, the op waits in a bounded queue (Config.Queue deep);
//     a full queue sheds immediately.
//   - A queued op waits at most its frame's remaining deadline budget (the
//     PR 8 budget the client already threads through each batch), falling
//     back to Config.MaxWait when the batch carries none. An op that
//     cannot be admitted in time is shed: the batch fails with wire.EShed,
//     which clients surface as a typed retryable error — the op was never
//     started, so resubmitting is always safe.
//
// The uncontended fast path is one non-blocking channel receive and one
// send on a pre-filled token channel — no allocation, no time syscall —
// so enabling admission control does not disturb the serveFrame 0 alloc/op
// pin (TestServeFrameAllocationFreeAdmitted). Timers are created only on
// the queued path, which is by definition the path that is already waiting.

// AdmissionConfig bounds the server's concurrently-executing operations.
// The zero value disables admission control entirely (every op admitted
// immediately — the pre-admission behavior).
type AdmissionConfig struct {
	// PerShard is the number of ops one gate shard executes concurrently.
	// 0 disables admission control.
	PerShard int
	// Shards is the gate count (rounded up to a power of two; default 16).
	// More gates = finer isolation between key ranges, fewer = stricter
	// global bound.
	Shards int
	// Queue is the number of ops that may wait per gate once its slots are
	// taken; an op arriving at a full queue is shed immediately. Default
	// 2×PerShard.
	Queue int
	// MaxWait bounds how long a queued op waits for a slot when its frame
	// carries no deadline budget (frames with a budget wait at most the
	// budget's remainder). Default 1ms.
	MaxWait time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.PerShard <= 0 {
		return c
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	c.Shards = ceilPow2(c.Shards)
	if c.Queue <= 0 {
		c.Queue = 2 * c.PerShard
	}
	if c.MaxWait <= 0 {
		c.MaxWait = time.Millisecond
	}
	return c
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// gate is one admission shard: a pre-filled token channel (slots) plus a
// bounded waiter count. Padded so two gates' hot words never share a
// cache line.
type gate struct {
	slots  chan struct{}
	queued atomic.Int64
	_      [40]byte
}

// admission is the server's gate set.
type admission struct {
	gates []gate
	mask  uint64
	cfg   AdmissionConfig

	shed     atomic.Uint64 // ops refused (queue full or wait expired)
	waits    atomic.Uint64 // ops that had to queue before admission
	admitted atomic.Uint64
}

func newAdmission(cfg AdmissionConfig) *admission {
	cfg = cfg.withDefaults()
	if cfg.PerShard <= 0 {
		return nil
	}
	a := &admission{
		gates: make([]gate, cfg.Shards),
		mask:  uint64(cfg.Shards - 1),
		cfg:   cfg,
	}
	for i := range a.gates {
		g := &a.gates[i]
		g.slots = make(chan struct{}, cfg.PerShard)
		for j := 0; j < cfg.PerShard; j++ {
			g.slots <- struct{}{}
		}
	}
	return a
}

// acquire admits one op routed by key, waiting up to wait for a slot when
// the gate is saturated (wait ≤ 0 means no queueing at all: shed unless a
// slot is free right now). Returns the gate to release — nil when the op
// was shed — and how long the op actually waited queued (0 on the fast
// path and on an immediate full-queue shed; measured only on the queued
// path, so the fast path stays free of time syscalls). The wait feeds the
// reply's stage echo and, on sampled batches, a KindAdmit span.
func (a *admission) acquire(key uint64, wait time.Duration) (*gate, time.Duration) {
	// The gate index mixes key with rng.Mix64, as the pools' shard choice
	// does, so with equal gate and shard counts one key's gate and pool
	// shard coincide.
	g := &a.gates[rng.Mix64(key)&a.mask]
	select {
	case <-g.slots:
		a.admitted.Add(1)
		return g, 0
	default:
	}
	// Saturated: join the bounded queue, or shed.
	if wait <= 0 || g.queued.Add(1) > int64(a.cfg.Queue) {
		if wait > 0 {
			g.queued.Add(-1)
		}
		a.shed.Add(1)
		return nil, 0
	}
	a.waits.Add(1)
	t0 := time.Now()
	t := time.NewTimer(wait)
	select {
	case <-g.slots:
		t.Stop()
		g.queued.Add(-1)
		a.admitted.Add(1)
		return g, time.Since(t0)
	case <-t.C:
		g.queued.Add(-1)
		a.shed.Add(1)
		return nil, time.Since(t0)
	}
}

// release returns an admitted op's slot.
func (g *gate) release() { g.slots <- struct{}{} }

// queueDepth sums the gates' current waiter counts — the queue-depth
// gauge on /metrics (a monitoring sample, not a linearizable snapshot,
// like every other gauge here).
func (a *admission) queueDepth() int64 {
	var n int64
	for i := range a.gates {
		n += a.gates[i].queued.Load()
	}
	return n
}
