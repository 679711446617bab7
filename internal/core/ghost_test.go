package core

import (
	"sync"
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/tas"
)

// recordingSided wraps a two-process TAS and records which sides entered
// and which side won — the raw material of Theorem 1's simulation argument.
type recordingSided struct {
	inner tas.Sided
	mu    sync.Mutex
	enter [2]bool
	won   [2]bool
}

func (r *recordingSided) TestAndSetSide(p shmem.Proc, side int) bool {
	r.mu.Lock()
	r.enter[side] = true
	r.mu.Unlock()
	won := r.inner.TestAndSetSide(p, side)
	if won {
		r.mu.Lock()
		r.won[side] = true
		r.mu.Unlock()
	}
	return won
}

// recorder is a SidedMaker capturing every comparator object it builds.
type recorder struct {
	mu   sync.Mutex
	all  []*recordingSided
	base tas.SidedMaker
}

func (rec *recorder) make(mem shmem.Mem) tas.Sided {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s := &recordingSided{inner: rec.base(mem)}
	rec.all = append(rec.all, s)
	return s
}

// TestTheoremOneComparatorInvariants checks, on real executions, the two
// comparator-level facts the Theorem 1 simulation argument rests on:
//
//  1. a comparator entered on exactly one side is won by that side — a
//     participant (value 0) never loses to a ghost (value 1);
//  2. a comparator entered on both sides has exactly one winner.
//
// Together these make every recorded execution extendable to a valid
// 0-1 execution of the underlying sorting network, which is what forces
// tight names.
func TestTheoremOneComparatorInvariants(t *testing.T) {
	for name := range adversaries(0) {
		for seed := uint64(0); seed < 10; seed++ {
			adv := adversaries(seed)[name]
			rt := sim.New(seed, adv)
			rec := &recorder{base: tas.MakeTwoProc}
			sa := NewStrongAdaptive(rt, &fixedTemp{
				names: []uint64{1, 5, 64, 1000, 4097, 70000},
			}, rec.make)
			const k = 6
			names := make([]uint64, k)
			rt.Run(k, func(p shmem.Proc) {
				names[p.ID()] = sa.Rename(p, uint64(p.ID())+1)
			})
			if err := CheckUniqueTight(names); err != nil {
				t.Fatalf("adv=%s seed=%d: %v", name, seed, err)
			}
			for i, c := range rec.all {
				entered := 0
				winners := 0
				for s := 0; s < 2; s++ {
					if c.enter[s] {
						entered++
					}
					if c.won[s] {
						winners++
					}
				}
				switch entered {
				case 0:
					t.Fatalf("adv=%s seed=%d: comparator %d allocated but never entered", name, seed, i)
				case 1:
					if winners != 1 {
						t.Fatalf("adv=%s seed=%d: solo entrant of comparator %d lost to a ghost", name, seed, i)
					}
				case 2:
					if winners != 1 {
						t.Fatalf("adv=%s seed=%d: comparator %d has %d winners for 2 entrants", name, seed, i, winners)
					}
				}
			}
		}
	}
}

// TestTheoremOneInvariantsWithCrashes relaxes invariant 1 for crashed
// entrants (a crashed participant may win nothing) but never allows two
// winners, and survivors must still get names in 1..k.
func TestTheoremOneInvariantsWithCrashes(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		at := map[int]uint64{int(seed % 4): 1 + seed/3}
		rt := sim.New(seed, sim.NewCrashPlan(sim.NewRandom(seed), at))
		rec := &recorder{base: tas.MakeTwoProc}
		sa := NewStrongAdaptive(rt, &fixedTemp{
			names: []uint64{2, 9, 33, 130},
		}, rec.make)
		const k = 4
		st := rt.Run(k, func(p shmem.Proc) {
			sa.Rename(p, uint64(p.ID())+1)
		})
		requireCrashed(t, seed, at, st)
		for i, c := range rec.all {
			if c.won[0] && c.won[1] {
				t.Fatalf("seed=%d: comparator %d has two winners", seed, i)
			}
		}
	}
}

// countingSided counts per-side entries of one comparator.
type countingSided struct {
	inner  tas.Sided
	mu     sync.Mutex
	counts [2]int
}

func (c *countingSided) TestAndSetSide(p shmem.Proc, side int) bool {
	c.mu.Lock()
	c.counts[side]++
	c.mu.Unlock()
	return c.inner.TestAndSetSide(p, side)
}

// TestAdaptiveWalkSideUniqueness verifies the static wire-occupancy
// argument: each comparator side is used by at most one process across the
// whole execution (the precondition of the two-process TAS objects).
func TestAdaptiveWalkSideUniqueness(t *testing.T) {
	var mu sync.Mutex
	var all []*countingSided
	wrap := func(mem shmem.Mem) tas.Sided {
		c := &countingSided{inner: tas.NewTwoProc(mem)}
		mu.Lock()
		all = append(all, c)
		mu.Unlock()
		return c
	}
	for seed := uint64(0); seed < 10; seed++ {
		all = all[:0]
		rt := sim.New(seed, sim.NewRandom(seed))
		sa := NewStrongAdaptive(rt, &fixedTemp{
			names: []uint64{1, 2, 3, 4, 100, 101, 5000},
		}, wrap)
		const k = 7
		rt.Run(k, func(p shmem.Proc) {
			sa.Rename(p, uint64(p.ID())+1)
		})
		for i, c := range all {
			if c.counts[0] > 1 || c.counts[1] > 1 {
				t.Fatalf("seed=%d comparator %d: side entry counts %v (must be ≤1 each)", seed, i, c.counts)
			}
		}
	}
}
