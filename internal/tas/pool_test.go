package tas

import (
	"reflect"
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
)

// ratRaceBody runs k contenders through one RatRace and asserts a unique
// winner (the simulator serializes the wins counter).
func ratRaceBody(rr *RatRace, wins *int) func(p shmem.Proc) {
	return func(p shmem.Proc) {
		if rr.TestAndSet(p, uint64(p.ID())+1) {
			*wins++
		}
	}
}

// TestPoolReuseBitIdentical pins the pooled-reuse contract: an object
// graph whose two-process TAS objects came from a Pool, reset between
// executions instead of reallocated, yields bit-identical step counts per
// (seed, adversary) versus a fresh pool and a fresh graph.
func TestPoolReuseBitIdentical(t *testing.T) {
	const k = 12
	for seed := uint64(0); seed < 6; seed++ {
		// Fresh path: new runtime, new pool, new RatRace.
		fresh := sim.New(seed, sim.NewRandom(seed))
		fpool := NewPool(fresh)
		fwins := 0
		frr := NewRatRace(fresh, fpool.Make)
		want := fresh.Run(k, ratRaceBody(frr, &fwins))

		// Reused path: one runtime + pool + RatRace, dirtied by a warmup
		// execution under an unrelated seed, then reset.
		rt := sim.New(seed+1000, sim.NewRandom(seed+1000))
		pool := NewPool(rt)
		rwins := 0
		rr := NewRatRace(rt, pool.Make)
		rt.Run(k, ratRaceBody(rr, &rwins))

		pool.Reset()
		rr.Reset() // tree + tournament nodes (pool objects reset twice: harmless)
		rt.Reset(seed, sim.NewRandom(seed))
		rwins = 0
		got := rt.Run(k, ratRaceBody(rr, &rwins))

		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: pooled reuse diverged from fresh construction\nfresh: %+v\nreuse: %+v", seed, want, got)
		}
		if fwins != 1 || rwins != 1 {
			t.Errorf("seed %d: want exactly one winner, got fresh=%d reuse=%d", seed, fwins, rwins)
		}
	}
}

// TestPoolResetRestoresObjects checks Pool.Reset alone restores every
// handed-out object on both runtimes.
func TestPoolResetRestoresObjects(t *testing.T) {
	for _, name := range []string{"sim", "native"} {
		var mem shmem.Mem
		var run func(body func(p shmem.Proc))
		if name == "sim" {
			rt := sim.New(7, sim.NewSequential())
			mem = rt
			run = func(body func(p shmem.Proc)) {
				rt.Run(2, body)
				rt.Reset(7, sim.NewSequential())
			}
		} else {
			rt := shmem.NewNative(7)
			mem = rt
			run = func(body func(p shmem.Proc)) { rt.Run(2, body) }
		}
		pool := NewPool(mem)
		// Hand out more objects than one chunk to cover the chunk boundary.
		objs := make([]Sided, 0, 3*poolChunk/2)
		for i := 0; i < cap(objs); i++ {
			objs = append(objs, pool.Make(mem))
		}
		// Decide every object: side 0 then side 1 each enter once.
		run(func(p shmem.Proc) {
			for _, o := range objs {
				o.TestAndSetSide(p, p.ID())
			}
		})
		pool.Reset()
		// After reset each object must again have a winner per pair — in
		// particular a solo side-0 caller must win (unentered state).
		run(func(p shmem.Proc) {
			if p.ID() != 0 {
				return
			}
			for i, o := range objs {
				if !o.TestAndSetSide(p, 0) {
					t.Errorf("%s: object %d not reset: solo contender lost", name, i)
					return
				}
			}
		})
	}
}

// TestPoolConcurrentMake draws objects from one pool on many native
// processes at once, across chunk boundaries. Every object must be
// distinct and own its registers: a solo side-0 caller wins each one, and
// wins each again after Reset, for several rounds.
func TestPoolConcurrentMake(t *testing.T) {
	const (
		k       = 8
		perProc = poolChunk // k*perProc objects: several chunks
	)
	rt := shmem.NewNative(3)
	pool := NewPool(rt)
	objs := make([][]Sided, k)
	rt.Run(k, func(p shmem.Proc) {
		mine := make([]Sided, perProc)
		for i := range mine {
			mine[i] = pool.Make(rt)
		}
		objs[p.ID()] = mine
	})
	seen := map[*TwoProc]bool{}
	for _, mine := range objs {
		for _, o := range mine {
			tp := o.(*TwoProc)
			if seen[tp] {
				t.Fatalf("object %p handed out twice", tp)
			}
			seen[tp] = true
		}
	}
	for round := 0; round < 3; round++ {
		rt.Run(k, func(p shmem.Proc) {
			for i, o := range objs[p.ID()] {
				if !o.TestAndSetSide(p, 0) {
					t.Errorf("round %d: proc %d object %d: solo contender lost", round, p.ID(), i)
					return
				}
			}
		})
		pool.Reset()
	}
}
