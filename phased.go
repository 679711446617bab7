package renaming

import "repro/internal/phase"

// This file is the phased-counting facade over internal/phase: the
// contention-adaptive counter that serves increments through shard-local
// cells at high contention and delegates straight to the authoritative
// spine when traffic is calm. See doc.go ("Phased counting") for the model
// and BENCHMARKS.md ("Adaptive phase reconciliation") for measurements.

type (
	// PhasedCounter is the split/joined phased counter over one
	// authoritative spine, an AAC counter tree. Joined mode delegates
	// every Inc to the spine; split mode absorbs Incs into padded per-shard
	// cells reconciled on epoch boundaries. Reads stay monotone-consistent
	// in both modes and across transitions.
	PhasedCounter = phase.Counter
	// PhasedPool serves one shared PhasedCounter to arbitrarily many
	// goroutines through serving lanes, and switches the counter's mode
	// automatically and hysteretically on live contention signals.
	PhasedPool = phase.Pool
	// PhasePolicy selects how a PhasedPool drives the mode: PhaseAuto
	// (hysteretic controller), PhasePinJoined, or PhasePinSplit.
	PhasePolicy = phase.Policy
)

// Phase modes and pool policies, re-exported.
const (
	PhaseJoined = phase.Joined
	PhaseSplit  = phase.Split

	PhaseAuto      = phase.Auto
	PhasePinJoined = phase.PinJoined
	PhasePinSplit  = phase.PinSplit
)

// PhasedOption configures NewPhasedCounterPool.
type PhasedOption func(*phase.Options)

// WithLanes sets the number of serving lanes (rounded up to a power of
// two; default 2×GOMAXPROCS, as for a Pool's shards). Lane count is also
// the counter's shard-cell count and sizes the spine every joined
// increment walks, so the default follows the goroutines that can run an
// operation at once: one lane each, plus one spare per P for a holder
// descheduled mid-operation.
func WithLanes(n int) PhasedOption {
	return func(o *phase.Options) { o.Lanes = n }
}

// WithEpoch sets the cooperative merge period per cell (rounded up to a
// power of two; default 1024): in split mode a lane merges its cell into
// the spine whenever the cell's cumulative count crosses a multiple of the
// epoch. Smaller epochs tighten ReadSpine's staleness; larger ones amortize
// the spine walk further.
func WithEpoch(n int) PhasedOption {
	return func(o *phase.Options) { o.Epoch = n }
}

// WithPhasedSeed seeds the pool's native runtime (coin streams).
func WithPhasedSeed(seed uint64) PhasedOption {
	return func(o *phase.Options) { o.Seed = seed }
}

// WithPhasePolicy pins or automates mode control (default PhaseAuto).
func WithPhasePolicy(p PhasePolicy) PhasedOption {
	return func(o *phase.Options) { o.Policy = p }
}

// NewPhasedCounterPool builds the serving pool and its shared phased
// counter on a fresh native runtime:
//
//	pool := renaming.NewPhasedCounterPool()
//	// any number of goroutines:
//	pool.Inc()
//	v := pool.Read()        // fast, monotone-consistent, ≤ one epoch stale
//	exact := pool.ReadStrict() // forces reconciliation
//	st := pool.Stats()      // mode, switches, retries, lag
func NewPhasedCounterPool(opts ...PhasedOption) *PhasedPool {
	var o phase.Options
	for _, f := range opts {
		f(&o)
	}
	return phase.NewPool(o)
}

// NewPhasedCounter builds a bare phased counter (no serving pool, no
// controller) over an AAC merge-layout spine on mem: lanes shard cells
// (and process slots), epoch the cooperative merge period. The caller
// drives the mode with SetMode; process ids must stay below the rounded
// lane count. For the served, auto-switching configuration use
// NewPhasedCounterPool.
func NewPhasedCounter(mem Mem, lanes, epoch int) *PhasedCounter {
	return phase.NewAAC(mem, lanes, epoch)
}
