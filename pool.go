package renaming

import (
	"repro/internal/serve"
)

// This file is the serving facade over internal/serve: sharded pools of
// pre-instantiated, resettable object graphs, served lock-free to
// arbitrarily many goroutines. See doc.go ("Serving: sharded instance
// pools") for the model and BENCHMARKS.md ("Throughput") for measurements.

// PoolStats summarizes pool activity (freelist hits vs overflow
// instantiations, instances created).
type PoolStats = serve.Stats

// PoolOption configures a Pool.
type PoolOption func(*serve.Options)

// WithShards sets the number of independent lock-free freelists (rounded
// up to a power of two). The default is 2×GOMAXPROCS.
func WithShards(n int) PoolOption {
	return func(o *serve.Options) { o.Shards = n }
}

// WithPerShard sets how many instances are pre-instantiated per shard
// (default 2). More pre-instantiation trades memory for fewer overflow
// constructions at peak.
func WithPerShard(n int) PoolOption {
	return func(o *serve.Options) { o.PerShard = n }
}

// WithPoolSeed sets the seed from which each pooled instance's runtime
// (and therefore its coin streams) derives.
func WithPoolSeed(seed uint64) PoolOption {
	return func(o *serve.Options) { o.Seed = seed }
}

// Pool is a sharded serving engine over one object blueprint: per-shard
// pools of pre-instantiated graphs, lock-free checkout, overflow
// instantiation from the cached blueprint, recycle on return.
//
//	pool := renaming.NewRenamingPool()
//	// any number of goroutines:
//	st := pool.Execute(k, func(p renaming.Proc, sa *renaming.StrongAdaptive) {
//	    name := sa.Rename(p, uint64(p.ID())+1)
//	    ...
//	})
type Pool[T Resettable] struct {
	*serve.Pool[T]
}

// InstanceBlueprint is the compiled-blueprint shape NewPool pools over:
// anything whose Instantiate stamps a resettable object graph onto a Mem.
// All CompileX blueprints in this package satisfy it.
type InstanceBlueprint[T Resettable] interface {
	Instantiate(mem Mem) T
}

// NewPool builds a sharded serving pool over a compiled blueprint. Each
// instance lives on its own native runtime; the expensive compile happened
// once, process-wide, inside CompileX.
//
// The type parameter names the instantiated object:
//
//	pool := renaming.NewPool[*renaming.StrongAdaptive](renaming.CompileRenaming())
//
// (NewRenamingPool bundles the common choice. A counter is not pooled: a
// pool resets each instance on Put, so every checkout of a pooled counter
// would start from zero. NewPhasedCounterPool serves one shared counter.)
func NewPool[T Resettable](bp InstanceBlueprint[T], opts ...PoolOption) *Pool[T] {
	return NewPoolFunc(bp.Instantiate, opts...)
}

// NewPoolFunc is NewPool over an explicit instantiation function, for
// object graphs without a single blueprint (e.g. a request pipeline
// combining several objects — see examples/ticketing).
func NewPoolFunc[T Resettable](instantiate func(mem Mem) T, opts ...PoolOption) *Pool[T] {
	var o serve.Options
	for _, f := range opts {
		f(&o)
	}
	return &Pool[T]{serve.New(o, instantiate)}
}

// NewRenamingPool builds the canonical renaming service: a pool of strong
// adaptive renamers with hardware test-and-set (the fast native
// configuration; the algorithm is then deterministic per the paper's
// hardware remark).
func NewRenamingPool(opts ...PoolOption) *Pool[*StrongAdaptive] {
	return NewPool[*StrongAdaptive](CompileRenaming(WithHardwareTAS()), opts...)
}
