package serve

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/splitter"
	"repro/internal/tas"
)

// newRenamerPool builds the canonical native pool under test: strong
// adaptive renamers with hardware TAS.
func newRenamerPool(opts Options) *Pool[*core.StrongAdaptive] {
	bp := core.CompileStrongAdaptive(0)
	return New(opts, func(mem shmem.Mem) *core.StrongAdaptive {
		return bp.InstantiateWithTempNamer(mem, splitter.NewTree(mem), tas.MakeUnit)
	})
}

// TestPoolServesFreshInstances: every checkout observes a just-instantiated
// graph (reset-on-Put), so a solo Rename always returns name 1.
func TestPoolServesFreshInstances(t *testing.T) {
	pool := newRenamerPool(Options{Shards: 2, PerShard: 1})
	for i := 0; i < 50; i++ {
		pool.Do(func(p shmem.Proc, sa *core.StrongAdaptive) {
			if name := sa.Rename(p, uint64(i)+1); name != 1 {
				t.Fatalf("checkout %d: solo rename on a recycled instance returned %d, want 1", i, name)
			}
		})
	}
	if st := pool.Stats(); st.Hits == 0 {
		t.Errorf("no freelist hits across 50 sequential checkouts: %+v", st)
	}
}

// TestPoolInFlightGauge pins the live checkout gauge: it tracks
// Get/Put pairs exactly (including the overflow path), and Do leaves it at
// zero.
func TestPoolInFlightGauge(t *testing.T) {
	pool := newRenamerPool(Options{Shards: 1, PerShard: 1})
	if g := pool.InFlight(); g != 0 {
		t.Fatalf("fresh pool gauge %d, want 0", g)
	}
	a := pool.Get()
	if g := pool.InFlight(); g != 1 {
		t.Fatalf("gauge after one Get: %d, want 1", g)
	}
	b := pool.Get() // shard is dry: overflow instantiation, still leased
	if g := pool.InFlight(); g != 2 {
		t.Fatalf("gauge after overflow Get: %d, want 2", g)
	}
	if st := pool.Stats(); st.InFlight != 2 {
		t.Fatalf("Stats.InFlight %d, want 2", st.InFlight)
	}
	a.Put()
	b.Put()
	if g := pool.InFlight(); g != 0 {
		t.Fatalf("gauge after both Puts: %d, want 0", g)
	}
	pool.Do(func(p shmem.Proc, sa *core.StrongAdaptive) {
		if g := pool.InFlight(); g != 1 {
			t.Fatalf("gauge inside Do: %d, want 1", g)
		}
		sa.Rename(p, 1)
	})
	if g := pool.InFlight(); g != 0 {
		t.Fatalf("gauge after Do: %d, want 0", g)
	}
}

// TestPoolStress hammers one pool from N goroutines (checkout → run → put),
// exercising the lock-free freelists, shard spreading, and overflow
// instantiation under -race.
func TestPoolStress(t *testing.T) {
	const (
		goroutines = 32
		opsEach    = 300
	)
	pool := newRenamerPool(Options{Shards: 4, PerShard: 1})
	var wg sync.WaitGroup
	var bad atomic.Int64
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				pool.Do(func(p shmem.Proc, sa *core.StrongAdaptive) {
					if sa.Rename(p, 1) != 1 {
						bad.Add(1)
					}
				})
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d checkouts saw a non-fresh instance", n)
	}
	st := pool.Stats()
	if got := st.Hits + st.Overflows; got != goroutines*opsEach {
		t.Errorf("checkout accounting: hits %d + overflows %d = %d, want %d",
			st.Hits, st.Overflows, got, goroutines*opsEach)
	}
	if st.Instances > goroutines+4*1 {
		t.Errorf("pool grew past peak demand: %d instances for %d goroutines", st.Instances, goroutines)
	}
}

// TestPoolExecuteStress runs full multi-process executions through the pool
// from many goroutines: each request is a k-process renaming execution
// against a private fresh graph, and must come out tight (names 1..k).
func TestPoolExecuteStress(t *testing.T) {
	const (
		goroutines = 8
		opsEach    = 40
		k          = 6
	)
	pool := newRenamerPool(Options{Shards: 2, PerShard: 2})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			names := make([]uint64, k)
			for i := 0; i < opsEach; i++ {
				pool.Execute(k, func(p shmem.Proc, sa *core.StrongAdaptive) {
					names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
				})
				if err := core.CheckUniqueTight(names); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("pooled execution not tight: %v", err)
	}
}

// TestPoolDoublePutPanics pins the double-Put guard.
func TestPoolDoublePutPanics(t *testing.T) {
	pool := newRenamerPool(Options{Shards: 1, PerShard: 1})
	in := pool.Get()
	in.Put()
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same checkout did not panic")
		}
	}()
	in.Put()
}

// TestPoolCrashMidOperationRecycles reuses the PR 2 LongLived recycle
// machinery: a caller that panics mid-operation while holding acquired
// names must not leak them — the deferred Put recycles the graph
// wholesale, so the next checkout sees a fresh tight namespace (the same
// contract the LongLived crash-recycle test pins for simulated crashes).
func TestPoolCrashMidOperationRecycles(t *testing.T) {
	bp := core.CompileStrongAdaptive(0)
	pool := New(Options{Shards: 1, PerShard: 1}, func(mem shmem.Mem) *core.LongLived {
		return core.NewLongLived(mem, bp.InstantiateWithTempNamer(mem, splitter.NewTree(mem), tas.MakeUnit))
	})

	for round := 0; round < 10; round++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("crash body did not panic")
				}
			}()
			pool.Do(func(p shmem.Proc, ll *core.LongLived) {
				ll.Acquire(p)
				ll.Acquire(p) // die holding two names, one released never
				panic("crash mid-operation")
			})
		}()

		// The crashed holder's names must be gone: a fresh solo holder gets
		// name 1 from a tight namespace.
		pool.Do(func(p shmem.Proc, ll *core.LongLived) {
			if name := ll.Acquire(p); name != 1 {
				t.Fatalf("round %d: name %d leaked through a crashed checkout (want 1)", round, name)
			}
		})
	}
}

// TestPoolDoRecyclesProcState pins the proc-side half of the recycle
// contract on a randomized blueprint (register TAS — coin flips on the
// operation path): successive Do checkouts of the same instance must be
// bit-identical, which requires Put to rewind the dedicated proc's coin
// stream and accounting along with the object graph.
func TestPoolDoRecyclesProcState(t *testing.T) {
	bp := core.CompileStrongAdaptive(0)
	pool := New(Options{Shards: 1, PerShard: 1}, func(mem shmem.Mem) *core.StrongAdaptive {
		return bp.InstantiateWithTempNamer(mem, splitter.NewTree(mem), tas.MakeTwoProc)
	})
	var counts []shmem.OpCounts
	for i := 0; i < 3; i++ {
		pool.Do(func(p shmem.Proc, sa *core.StrongAdaptive) {
			sa.Rename(p, 1)
			counts = append(counts, p.(*shmem.NativeProc).Counts())
		})
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("checkout %d not bit-identical to checkout 0:\nfirst: %+v\nlater: %+v", i, counts[0], counts[i])
		}
	}
}

// TestPoolExecuteStatsDetached: the Stats Pool.Execute returns must be a
// private copy — the instance (and its reusable accounting record) went
// back to the freelist before the caller saw the pointer.
func TestPoolExecuteStatsDetached(t *testing.T) {
	pool := newRenamerPool(Options{Shards: 1, PerShard: 1})
	st := pool.Execute(4, func(p shmem.Proc, sa *core.StrongAdaptive) {
		sa.Rename(p, uint64(p.ID())+1)
	})
	want := st.TotalSteps()
	// Drive the same instance through more executions; st must not move.
	for i := 0; i < 5; i++ {
		pool.Execute(2, func(p shmem.Proc, sa *core.StrongAdaptive) {
			sa.Rename(p, uint64(p.ID())+1)
		})
	}
	if got := st.TotalSteps(); got != want {
		t.Fatalf("returned Stats aliased pool-internal storage: TotalSteps %d -> %d", want, got)
	}
}

// TestPoolOverflowInstantiates: more concurrent holders than instances
// forces the overflow path, and overflow instances join the freelists.
func TestPoolOverflowInstantiates(t *testing.T) {
	pool := newRenamerPool(Options{Shards: 1, PerShard: 1})
	a := pool.Get()
	b := pool.Get() // shard dry: must instantiate, not block
	if a == b {
		t.Fatal("two concurrent checkouts returned the same instance")
	}
	a.Put()
	b.Put()
	st := pool.Stats()
	if st.Overflows == 0 {
		t.Errorf("expected an overflow instantiation: %+v", st)
	}
	if st.Instances != 2 {
		t.Errorf("expected 2 instances, got %d", st.Instances)
	}
	// Both instances are back on the freelist: two more checkouts hit.
	c, d := pool.Get(), pool.Get()
	st = pool.Stats()
	if st.Overflows != 1 || st.Instances != 2 {
		t.Errorf("overflow instance did not rejoin the freelist: %+v", st)
	}
	c.Put()
	d.Put()
}

// TestPoolSimBackedCheckout pins the pooled checkout on the deterministic
// runtime: a pooled, previously used instance replays a (seed, adversary)
// point bit-identically to a fresh construction (the serving-engine face
// of the PR 2 reuse-equivalence contract; the facade-level matrix lives in
// reuse_equiv_test.go).
func TestPoolSimBackedCheckout(t *testing.T) {
	const k = 5
	bp := core.CompileStrongAdaptive(0)
	inst := func(mem shmem.Mem) *core.StrongAdaptive {
		return bp.InstantiateWithTempNamer(mem, splitter.NewTree(mem), tas.MakeTwoProcPool(mem))
	}
	pool := NewWithRuntime(Options{Shards: 1, PerShard: 1},
		func(id uint64) shmem.Runtime { return sim.New(999, sim.NewRandom(999)) },
		inst)

	// Dirty the pooled instance through a checkout.
	in := pool.Get()
	in.Runtime().Run(k, func(p shmem.Proc) { in.Obj.Rename(p, uint64(p.ID())+1) })
	in.Put()

	for seed := uint64(0); seed < 4; seed++ {
		fresh := sim.New(seed, sim.NewRandom(seed))
		fsa := inst(fresh)
		want := fresh.Run(k, func(p shmem.Proc) { fsa.Rename(p, uint64(p.ID())+1) })

		in := pool.Get()
		in.Runtime().(*sim.Runtime).Reset(seed, sim.NewRandom(seed))
		got := in.Runtime().Run(k, func(p shmem.Proc) { in.Obj.Rename(p, uint64(p.ID())+1) })
		in.Put()

		if !statsEqual(want, got) {
			t.Errorf("seed %d: pooled checkout diverged from fresh construction\nfresh: %+v\npool:  %+v", seed, want, got)
		}
	}
}

func statsEqual(a, b *shmem.Stats) bool {
	if len(a.PerProc) != len(b.PerProc) || a.StepCapHit != b.StepCapHit {
		return false
	}
	for i := range a.PerProc {
		if a.PerProc[i] != b.PerProc[i] {
			return false
		}
	}
	return true
}

// TestShardFreelistTagged exercises the tagged freelist directly: pops and
// pushes from many goroutines must neither lose nor duplicate instances.
func TestShardFreelistTagged(t *testing.T) {
	pool := newRenamerPool(Options{Shards: 1, PerShard: 8})
	const goroutines = 16
	var wg sync.WaitGroup
	var held atomic.Int64
	var maxHeld atomic.Int64
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				in := pool.Get()
				h := held.Add(1)
				for {
					m := maxHeld.Load()
					if h <= m || maxHeld.CompareAndSwap(m, h) {
						break
					}
				}
				held.Add(-1)
				in.Put()
			}
		}()
	}
	wg.Wait()
	st := pool.Stats()
	if int64(st.Instances) < maxHeld.Load() {
		t.Errorf("freelist duplicated instances: %d created but %d held at once", st.Instances, maxHeld.Load())
	}
}
