package splitter

import (
	"testing"

	"repro/internal/shmem"
	"repro/internal/sim"
)

func adversaries(seed uint64) map[string]sim.Adversary {
	return map[string]sim.Adversary{
		"roundrobin": sim.NewRoundRobin(),
		"random":     sim.NewRandom(seed),
		"sequential": sim.NewSequential(),
		"anticoin":   sim.NewAntiCoin(seed),
	}
}

func TestSplitterSoloStops(t *testing.T) {
	rt := sim.New(1, sim.NewRoundRobin())
	s := NewSplitter(rt)
	var out Outcome
	rt.Run(1, func(p shmem.Proc) {
		out = s.Visit(p, 1)
	})
	if out != Stop {
		t.Fatal("solo visitor must stop")
	}
}

func TestSplitterAtMostOneStop(t *testing.T) {
	for name := range adversaries(0) {
		for seed := uint64(0); seed < 30; seed++ {
			adv := adversaries(seed)[name]
			rt := sim.New(seed, adv)
			s := NewSplitter(rt)
			outs := make([]Outcome, 6)
			rt.Run(6, func(p shmem.Proc) {
				outs[p.ID()] = s.Visit(p, uint64(p.ID())+1)
			})
			stops := 0
			for _, o := range outs {
				if o == Stop {
					stops++
				}
			}
			if stops > 1 {
				t.Fatalf("adv=%s seed=%d: %d processes stopped", name, seed, stops)
			}
		}
	}
}

func TestSplitterRejectsZeroID(t *testing.T) {
	rt := sim.New(1, sim.NewRoundRobin())
	s := NewSplitter(rt)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.Run(1, func(p shmem.Proc) { s.Visit(p, 0) })
}

// TestSplitterExhaustiveSchedules is a bounded model check: all 2^10
// two-process schedule prefixes × seeds. In every execution at most one
// contender stops, and the splitter never breaks its registers' semantics.
func TestSplitterExhaustiveSchedules(t *testing.T) {
	const prefix = 10
	for mask := 0; mask < 1<<prefix; mask++ {
		bits := make([]int, prefix)
		for i := range bits {
			bits[i] = mask >> i & 1
		}
		for seed := uint64(0); seed < 4; seed++ {
			rt := sim.New(seed, sim.NewReplay(bits), sim.WithStepCap(1000))
			s := NewSplitter(rt)
			var outs [2]Outcome
			st := rt.Run(2, func(p shmem.Proc) {
				outs[p.ID()] = s.Visit(p, uint64(p.ID())+1)
			})
			if st.StepCapHit {
				t.Fatalf("mask=%x: splitter did not terminate", mask)
			}
			if outs[0] == Stop && outs[1] == Stop {
				t.Fatalf("mask=%x seed=%d: both contenders stopped", mask, seed)
			}
		}
	}
}

// TestSplitterSequentialFirstStops: with contenders arriving strictly one
// after another, the first stops and all later ones descend.
func TestSplitterSequentialFirstStops(t *testing.T) {
	rt := sim.New(1, sim.NewSequential())
	s := NewSplitter(rt)
	outs := make([]Outcome, 4)
	rt.Run(4, func(p shmem.Proc) {
		outs[p.ID()] = s.Visit(p, uint64(p.ID())+1)
	})
	if outs[0] != Stop {
		t.Fatal("first sequential contender must stop")
	}
	for i := 1; i < 4; i++ {
		if outs[i] == Stop {
			t.Fatalf("late contender %d stopped", i)
		}
	}
}

// TestTreeAcquireUnique is the TempName safety property: all acquired
// indices are distinct, under every adversary and many seeds.
func TestTreeAcquireUnique(t *testing.T) {
	const k = 16
	for name := range adversaries(0) {
		for seed := uint64(0); seed < 25; seed++ {
			adv := adversaries(seed)[name]
			rt := sim.New(seed, adv)
			tree := NewTree(rt)
			names := make([]uint64, k)
			rt.Run(k, func(p shmem.Proc) {
				names[p.ID()] = tree.Acquire(p, uint64(p.ID())+1)
			})
			seen := make(map[uint64]int, k)
			for id, n := range names {
				if n == 0 {
					t.Fatalf("adv=%s seed=%d: process %d got no name", name, seed, id)
				}
				if prev, dup := seen[n]; dup {
					t.Fatalf("adv=%s seed=%d: processes %d and %d share node %d", name, seed, prev, id, n)
				}
				seen[n] = id
			}
		}
	}
}

// TestTreeNamesPolynomial is the TempName size property: with k contenders,
// names stay well below a small polynomial in k (here k^3) across seeds.
// The paper's bound is k^c w.h.p.; a violation at these scales would
// indicate a broken splitter, not an unlucky run.
func TestTreeNamesPolynomial(t *testing.T) {
	const k = 32
	limit := uint64(k * k * k)
	for seed := uint64(0); seed < 50; seed++ {
		rt := sim.New(seed, sim.NewRandom(seed))
		tree := NewTree(rt)
		var max uint64
		rt.Run(k, func(p shmem.Proc) {
			n := tree.Acquire(p, uint64(p.ID())+1)
			if n > max {
				max = n // serialized by the simulator
			}
		})
		if max > limit {
			t.Fatalf("seed=%d: max temp name %d exceeds k^3=%d", seed, max, limit)
		}
	}
}

// TestTreeDepthLogarithmic checks the step property: acquiring a node takes
// O(log k) splitter visits w.h.p. (4 register steps per visit).
func TestTreeDepthLogarithmic(t *testing.T) {
	for _, k := range []int{4, 16, 64} {
		worst := uint64(0)
		for seed := uint64(0); seed < 20; seed++ {
			rt := sim.New(seed, sim.NewRandom(seed))
			tree := NewTree(rt)
			st := rt.Run(k, func(p shmem.Proc) {
				tree.Acquire(p, uint64(p.ID())+1)
			})
			if v := st.MaxEvent(shmem.EvSplitter); v > worst {
				worst = v
			}
		}
		// Depth bound ~ c·log2(k) with c around 3; allow slack to 6·lg k + 8.
		lg := 0
		for v := k; v > 1; v >>= 1 {
			lg++
		}
		if worst > uint64(6*lg+8) {
			t.Errorf("k=%d: worst-case %d splitter visits, want O(log k) ~ %d", k, worst, 6*lg+8)
		}
	}
}

func TestTreeSoloAcquiresRoot(t *testing.T) {
	rt := sim.New(1, sim.NewRoundRobin())
	tree := NewTree(rt)
	var name uint64
	rt.Run(1, func(p shmem.Proc) {
		name = tree.Acquire(p, 1)
	})
	if name != 1 {
		t.Fatalf("solo process acquired node %d, want root (1)", name)
	}
	if tree.Size() != 1 {
		t.Fatalf("tree allocated %d nodes for a solo run", tree.Size())
	}
}

// TestTreeReentrant checks the counter use case: one process acquiring many
// names with distinct invocation ids gets distinct nodes.
func TestTreeReentrant(t *testing.T) {
	rt := sim.New(9, sim.NewRoundRobin())
	tree := NewTree(rt)
	const n = 20
	names := make(map[uint64]bool, n)
	rt.Run(1, func(p shmem.Proc) {
		for i := uint64(0); i < n; i++ {
			names[tree.Acquire(p, i+1)] = true
		}
	})
	if len(names) != n {
		t.Fatalf("%d distinct nodes for %d invocations", len(names), n)
	}
}

// TestTreeConcurrentNative descends one tree from 64 native goroutines at
// once, which allocates nodes concurrently across chunk boundaries. Names
// must be unique, and after Reset a solo contender must stop at the root
// again, for several rounds.
func TestTreeConcurrentNative(t *testing.T) {
	const k = 64
	rt := shmem.NewNative(5)
	tree := NewTree(rt)
	for round := 0; round < 4; round++ {
		names := make([]uint64, k)
		rt.Run(k, func(p shmem.Proc) {
			names[p.ID()] = tree.Acquire(p, uint64(p.ID())+1)
		})
		seen := make(map[uint64]int, k)
		for id, n := range names {
			if prev, dup := seen[n]; dup {
				t.Fatalf("round %d: processes %d and %d share node %d", round, prev, id, n)
			}
			seen[n] = id
		}
		if len(tree.arenas) < 2 {
			t.Fatalf("round %d: %d nodes fit in %d chunk(s); the test must cross a chunk boundary",
				round, tree.Size(), len(tree.arenas))
		}
		tree.Reset()
		var solo uint64
		rt.Run(1, func(p shmem.Proc) { solo = tree.Acquire(p, 1) })
		if solo != 1 {
			t.Fatalf("round %d: solo contender after Reset acquired node %d, want root (1)", round, solo)
		}
		tree.Reset()
	}
}
