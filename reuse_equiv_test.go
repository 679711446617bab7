// Reuse equivalence: the compile-once / instantiate-once / reset-many path
// must produce bit-identical Stats per (seed, adversary) versus fresh
// construction — the acceptance contract of the two-phase object model.
// Each case instantiates one object graph, dirties it with a warmup
// execution under an unrelated seed and schedule (including crashes), then
// replays a matrix of (seed, adversary) executions through Reset and
// compares every Stats field against a freshly built object on a fresh
// runtime.
package renaming_test

import (
	"fmt"
	"reflect"
	"testing"

	renaming "repro"
	"repro/internal/serve"
	"repro/internal/shmem"
	"repro/internal/sim"
)

// advPoint names one adversary construction so both paths build identical,
// fresh schedule state; crashes is the number of processes its crash plan
// kills in every execution of the matrix.
type advPoint struct {
	name    string
	make    func(seed uint64) renaming.Adversary
	crashes int
}

func advMatrix() []advPoint {
	return []advPoint{
		{"random", func(seed uint64) renaming.Adversary { return renaming.RandomSchedule(seed) }, 0},
		{"anticoin", func(seed uint64) renaming.Adversary { return renaming.AntiCoin(seed ^ 0xA5A5) }, 0},
		{"crash", func(seed uint64) renaming.Adversary {
			return renaming.CrashAt(renaming.RandomSchedule(seed), map[int]uint64{1: 2, 3: 3})
		}, 2},
	}
}

// checkCrashes fails unless st reports exactly the crashes ap plans: a
// plan that does not fire would leave the crash point vacuous.
func checkCrashes(t *testing.T, ap advPoint, st *renaming.Stats) {
	t.Helper()
	n := 0
	for _, c := range st.Crashed {
		if c {
			n++
		}
	}
	if n != ap.crashes {
		t.Errorf("%s: %d processes crashed, want %d", ap.name, n, ap.crashes)
	}
}

// equivCase is one object under test: build instantiates it on a runtime,
// body runs one execution's workload, and reset restores it in place.
type equivCase struct {
	name  string
	k     int
	build func(mem renaming.Mem) (body func(p renaming.Proc), reset func())
}

func equivCases() []equivCase {
	return []equivCase{
		{"strong-adaptive", 6, func(mem renaming.Mem) (func(p renaming.Proc), func()) {
			sa := renaming.CompileRenaming().Instantiate(mem)
			return func(p renaming.Proc) { sa.Rename(p, uint64(p.ID())+1) }, sa.Reset
		}},
		{"strong-adaptive-hardware", 6, func(mem renaming.Mem) (func(p renaming.Proc), func()) {
			sa := renaming.CompileRenaming(renaming.WithHardwareTAS()).Instantiate(mem)
			return func(p renaming.Proc) { sa.Rename(p, uint64(p.ID())+1) }, sa.Reset
		}},
		{"strong-adaptive-balanced", 6, func(mem renaming.Mem) (func(p renaming.Proc), func()) {
			sa := renaming.CompileRenaming(renaming.WithBalancedBase()).Instantiate(mem)
			return func(p renaming.Proc) { sa.Rename(p, uint64(p.ID())+1) }, sa.Reset
		}},
		{"bitbatching", 8, func(mem renaming.Mem) (func(p renaming.Proc), func()) {
			bb := renaming.CompileBitBatching(8).Instantiate(mem)
			return func(p renaming.Proc) { bb.Rename(p, uint64(p.ID())+1) }, bb.Reset
		}},
		{"network", 8, func(mem renaming.Mem) (func(p renaming.Proc), func()) {
			rn := renaming.CompileNetworkRenaming(16).Instantiate(mem)
			return func(p renaming.Proc) { rn.Rename(p, uint64(p.ID()*2)+1) }, rn.Reset
		}},
		{"counter", 4, func(mem renaming.Mem) (func(p renaming.Proc), func()) {
			c := renaming.CompileCounter().Instantiate(mem)
			return func(p renaming.Proc) {
				for i := 0; i < 3; i++ {
					c.Inc(p)
					c.Read(p)
				}
			}, c.Reset
		}},
		{"phased-counter", 4, func(mem renaming.Mem) (func(p renaming.Proc), func()) {
			c := renaming.NewPhasedCounter(mem, 4, 2)
			return func(p renaming.Proc) {
				if p.ID() == 0 {
					c.SetMode(renaming.PhaseSplit)
				}
				for i := 0; i < 4; i++ {
					c.Inc(p)
					c.Read(p)
				}
				if p.ID() == 1 {
					c.ReadStrict(p)
				}
				if p.ID() == 0 {
					c.SetMode(renaming.PhaseJoined)
				}
				c.Inc(p)
			}, c.Reset
		}},
		{"fetchinc", 5, func(mem renaming.Mem) (func(p renaming.Proc), func()) {
			f := renaming.NewFetchInc(mem, 16)
			return func(p renaming.Proc) { f.Inc(p) }, f.Reset
		}},
		{"ltas", 6, func(mem renaming.Mem) (func(p renaming.Proc), func()) {
			o := renaming.NewLTAS(mem, 3)
			return func(p renaming.Proc) { o.Try(p) }, o.Reset
		}},
		{"counting-network", 5, func(mem renaming.Mem) (func(p renaming.Proc), func()) {
			n := renaming.CompileCountingNetwork(8).Instantiate(mem)
			return func(p renaming.Proc) {
				for i := 0; i < 2; i++ {
					n.Next(p)
				}
			}, n.Reset
		}},
		{"long-lived", 5, func(mem renaming.Mem) (func(p renaming.Proc), func()) {
			l := renaming.NewLongLived(mem)
			return func(p renaming.Proc) {
				a := l.Acquire(p)
				b := l.Acquire(p)
				l.Release(p, a)
				l.Acquire(p)
				l.Release(p, b)
			}, l.Reset
		}},
	}
}

// TestResetPathBitIdenticalToFresh is the acceptance test: for every
// object and every (seed, adversary) point, the reused instance produces
// exactly the Stats a fresh construction produces.
func TestResetPathBitIdenticalToFresh(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			// One long-lived runtime + instance, dirtied by a warmup run.
			rt := renaming.NewSim(999, renaming.RandomSchedule(999))
			body, reset := tc.build(rt)
			rt.Run(tc.k, body)

			for _, ap := range advMatrix() {
				for seed := uint64(0); seed < 4; seed++ {
					t.Run(fmt.Sprintf("%s/seed=%d", ap.name, seed), func(t *testing.T) {
						fresh := renaming.NewSim(seed, ap.make(seed))
						fBody, _ := tc.build(fresh)
						want := fresh.Run(tc.k, fBody)
						checkCrashes(t, ap, want)

						reset()
						rt.Reset(seed, ap.make(seed))
						got := rt.Run(tc.k, body)

						if !reflect.DeepEqual(want, got) {
							t.Errorf("reset path diverged from fresh construction\nfresh: %+v\nreset: %+v", want, got)
						}
					})
				}
			}
		})
	}
}

// pooledGraph adapts an equivCase's (body, reset) pair to the Resettable
// object the serving pool manages.
type pooledGraph struct {
	body  func(p renaming.Proc)
	reset func()
}

func (g *pooledGraph) Reset() { g.reset() }

// TestPooledCheckoutBitIdenticalToFresh extends the reuse contract to the
// serving engine: an instance checked out of a serve.Pool — previously
// dirtied through an earlier checkout and recycled by Put — must replay
// every (seed, adversary) point bit-identically to a fresh construction.
// This is the same matrix as TestResetPathBitIdenticalToFresh, routed
// through the pool's checkout/recycle path instead of calling Reset by
// hand.
func TestPooledCheckoutBitIdenticalToFresh(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			pool := serve.NewWithRuntime(serve.Options{Shards: 1, PerShard: 1},
				func(uint64) shmem.Runtime { return sim.New(999, sim.NewRandom(999)) },
				func(mem shmem.Mem) *pooledGraph {
					body, reset := tc.build(mem)
					return &pooledGraph{body: body, reset: reset}
				})

			// Dirty the pooled instance through a checkout; Put recycles it.
			warm := pool.Get()
			warm.Runtime().Run(tc.k, warm.Obj.body)
			warm.Put()

			for _, ap := range advMatrix() {
				for seed := uint64(0); seed < 4; seed++ {
					t.Run(fmt.Sprintf("%s/seed=%d", ap.name, seed), func(t *testing.T) {
						fresh := renaming.NewSim(seed, ap.make(seed))
						fBody, _ := tc.build(fresh)
						want := fresh.Run(tc.k, fBody)
						checkCrashes(t, ap, want)

						in := pool.Get()
						in.Runtime().(*sim.Runtime).Reset(seed, ap.make(seed))
						got := in.Runtime().Run(tc.k, in.Obj.body)
						in.Put()

						if !reflect.DeepEqual(want, got) {
							t.Errorf("pooled checkout diverged from fresh construction\nfresh: %+v\npool:  %+v", want, got)
						}
					})
				}
			}
		})
	}
}

// TestResetPathNamesMatchFresh checks the visible outputs (the names), not
// just the accounting: same seed, same adversary, same names.
func TestResetPathNamesMatchFresh(t *testing.T) {
	const k = 8
	collect := func(rt *renaming.SimRuntime, sa *renaming.StrongAdaptive) []uint64 {
		names := make([]uint64, k)
		rt.Run(k, func(p renaming.Proc) {
			names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
		})
		return names
	}

	rt := renaming.NewSim(42, renaming.RandomSchedule(42))
	sa := renaming.CompileRenaming().Instantiate(rt)
	collect(rt, sa) // warmup execution to dirty the graph

	for seed := uint64(0); seed < 6; seed++ {
		fresh := renaming.NewSim(seed, renaming.RandomSchedule(seed))
		want := collect(fresh, renaming.CompileRenaming().Instantiate(fresh))

		sa.Reset()
		rt.Reset(seed, renaming.RandomSchedule(seed))
		got := collect(rt, sa)

		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: names diverged: fresh %v, reset %v", seed, want, got)
		}
	}
}
