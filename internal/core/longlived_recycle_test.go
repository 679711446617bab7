package core

import (
	"reflect"
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
)

// TestLongLivedRecycleAfterCrashes pins the reuse contract of the
// long-lived allocator under failures: execution one runs under a CrashAt
// adversary, so some processes die while holding names; after Reset, the
// next execution must see a completely fresh, tight namespace — names held
// by crashed holders must not leak onto the reused instance (no phantom
// holders, no namespace growth).
func TestLongLivedRecycleAfterCrashes(t *testing.T) {
	const k = 8
	for seed := uint64(0); seed < 10; seed++ {
		// Execution one: every process acquires and holds; two crash at
		// scheduled own-step counts (possibly mid-acquire, possibly holding).
		at := map[int]uint64{
			int(seed % k):       2 + seed/2,
			int((seed * 5) % k): 6 + seed/2,
		}
		rt := sim.New(seed, sim.NewCrashPlan(sim.NewRandom(seed), at))
		ll := NewLongLived(rt, newStrongAdaptive(rt))
		held := make([]uint64, k)
		st := rt.Run(k, func(p shmem.Proc) {
			held[p.ID()] = ll.Acquire(p)
		})
		requireCrashed(t, seed, at, st)

		// Reset and rerun acquisition for all k processes. If a crashed
		// holder's name leaked, the namespace could not come out tight.
		ll.Reset()
		rt.Reset(seed+500, sim.NewRandom(seed+500))
		names := make([]uint64, k)
		rt.Run(k, func(p shmem.Proc) {
			names[p.ID()] = ll.Acquire(p)
		})
		if err := CheckUniqueTight(names); err != nil {
			t.Errorf("seed=%d: post-crash reuse leaked names: %v (names %v)", seed, err, names)
		}
	}
}

// TestLongLivedResetBitIdentical checks the stronger property: after a
// crashy execution and a Reset, the instance replays a (seed, adversary)
// point bit-identically to a freshly built allocator.
func TestLongLivedResetBitIdentical(t *testing.T) {
	const k = 6
	body := func(ll *LongLived) func(p shmem.Proc) {
		return func(p shmem.Proc) {
			a := ll.Acquire(p)
			ll.Acquire(p)
			ll.Release(p, a)
			ll.Acquire(p)
		}
	}
	for seed := uint64(0); seed < 6; seed++ {
		fresh := sim.New(seed, sim.NewRandom(seed))
		fll := NewLongLived(fresh, newStrongAdaptive(fresh))
		want := fresh.Run(k, body(fll))

		at := map[int]uint64{0: 5, 2: 30}
		rt := sim.New(seed+77, sim.NewCrashPlan(sim.NewRandom(seed+77), at))
		ll := NewLongLived(rt, newStrongAdaptive(rt))
		requireCrashed(t, seed+77, at, rt.Run(k, body(ll))) // crashy warmup leaves held names behind

		ll.Reset()
		rt.Reset(seed, sim.NewRandom(seed))
		got := rt.Run(k, body(ll))

		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: reset allocator diverged from fresh\nfresh: %+v\nreset: %+v", seed, want, got)
		}
	}
}
