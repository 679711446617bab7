package maxreg

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/allocs"
	"repro/internal/rng"
	"repro/internal/shmem"
	"repro/internal/sim"
)

// refBounded is the pointer-node AAC tree: one heap node per switch, both
// children allocated on first touch. It is the layout Bounded had before
// its flat leaves, kept as the reference the flat layout must match step
// for step.
type refBounded struct {
	mem         shmem.Mem
	m           uint64
	high        shmem.Reg
	left, right *refBounded
}

func newRefBounded(mem shmem.Mem, m uint64) *refBounded {
	b := &refBounded{mem: mem, m: m}
	if m > 1 {
		b.high = mem.NewReg(0)
	}
	return b
}

func (b *refBounded) half() uint64 { return (b.m + 1) / 2 }

func (b *refBounded) children() (*refBounded, *refBounded) {
	if b.left == nil {
		b.left = newRefBounded(b.mem, b.half())
		b.right = newRefBounded(b.mem, b.m-b.half())
	}
	return b.left, b.right
}

func (b *refBounded) WriteMax(p shmem.Proc, v uint64) {
	if v >= b.m {
		panic("maxreg: value out of range")
	}
	if b.m == 1 {
		return
	}
	left, right := b.children()
	if v < b.half() {
		if b.high.Read(p) == 0 {
			left.WriteMax(p, v)
		}
		return
	}
	right.WriteMax(p, v-b.half())
	b.high.Write(p, 1)
}

func (b *refBounded) ReadMax(p shmem.Proc) uint64 {
	if b.m == 1 {
		return 0
	}
	left, right := b.children()
	if b.high.Read(p) == 1 {
		return b.half() + right.ReadMax(p)
	}
	return left.ReadMax(p)
}

// layoutOp is one scripted operation: WriteMax(v) when write, else ReadMax.
type layoutOp struct {
	write bool
	v     uint64
}

// layoutScript draws each process's operations from a stream seeded by
// (seed, width). Written values are log-uniform over [0, m), so every depth
// of the tree sees writes, not just the top of the range.
func layoutScript(m, seed uint64, k, each int) [][]layoutOp {
	r := rng.Derive(seed, m)
	script := make([][]layoutOp, k)
	for i := range script {
		for range each {
			op := layoutOp{write: r.Uint64n(3) != 0}
			op.v = r.Uint64n(m) >> r.Uint64n(uint64(bits.Len64(m)))
			script[i] = append(script[i], op)
		}
	}
	return script
}

// runLayoutScript runs script on rt against r and returns each process's
// reads and the run's per-process operation counts.
func runLayoutScript(rt *sim.Runtime, r MaxReg, script [][]layoutOp) ([][]uint64, []shmem.OpCounts) {
	reads := make([][]uint64, len(script))
	st := rt.Run(len(script), func(p shmem.Proc) {
		for _, op := range script[p.ID()] {
			if op.write {
				r.WriteMax(p, op.v)
			} else {
				reads[p.ID()] = append(reads[p.ID()], r.ReadMax(p))
			}
		}
	})
	return reads, st.PerProc
}

// TestFlatLayoutMatchesPointerTree pins the flat switch arenas to the
// pointer-node tree: on the same seed and adversary, both layouts must
// return the same reads and take the same steps, and so must the flat
// register again after Reset. The widths cover flat-only trees, pointer
// nodes over flat leaves, and odd splits.
func TestFlatLayoutMatchesPointerTree(t *testing.T) {
	widths := []uint64{1, 2, 3, 63, 64, 65, 100, 128, 1<<16 + 3, 1 << 20}
	advs := map[string]func(seed uint64) sim.Adversary{
		"random":     func(s uint64) sim.Adversary { return sim.NewRandom(s) },
		"roundrobin": func(uint64) sim.Adversary { return sim.NewRoundRobin() },
	}
	const k, each, seeds = 4, 24, 6
	for _, m := range widths {
		for name, mk := range advs {
			for seed := uint64(1); seed <= seeds; seed++ {
				script := layoutScript(m, seed, k, each)
				refRT := sim.New(seed, mk(seed))
				wantReads, wantCounts := runLayoutScript(refRT, newRefBounded(refRT, m), script)
				flatRT := sim.New(seed, mk(seed))
				flat := NewBounded(flatRT, m)
				for _, reset := range []bool{false, true} {
					if reset {
						flat.Reset()
						flatRT.Reset(seed, mk(seed))
					}
					gotReads, gotCounts := runLayoutScript(flatRT, flat, script)
					for i := range script {
						if !slices.Equal(gotReads[i], wantReads[i]) {
							t.Fatalf("m=%d adv=%s seed=%d reset=%v proc %d: reads %v, pointer tree read %v",
								m, name, seed, reset, i, gotReads[i], wantReads[i])
						}
						if gotCounts[i] != wantCounts[i] {
							t.Fatalf("m=%d adv=%s seed=%d reset=%v proc %d: counts %+v, pointer tree took %+v",
								m, name, seed, reset, i, gotCounts[i], wantCounts[i])
						}
					}
				}
			}
		}
	}
}

// TestAACIncAllocationFree pins what the flat layout buys the phased
// spine: an increment allocates only when a new value grows a flat tree.
// Over the counts 100,000 to 200,000 that came to 37,512 allocations and
// 27.2 MB with registers padded for a 2-vCPU box (less unpadded). The
// bounds sit 1.25× above.
func TestAACIncAllocationFree(t *testing.T) {
	const incs, maxMallocs, maxBytes = 100_000, 46_900, 34_000_000
	rt := shmem.NewNative(1)
	c := NewAACCounterWithMerge(rt, 8, 8)
	p := rt.NewProc(0)
	inc := func() { c.Inc(p) }
	for range incs {
		inc()
	}
	n, b := allocs.Count(incs, inc)
	t.Logf("%d warmed Incs: %d allocations, %d B", incs, n, b)
	if n > maxMallocs || b > maxBytes {
		t.Fatalf("%d warmed AAC Incs made %d allocations and %d B, want at most %d and %d B",
			incs, n, b, maxMallocs, maxBytes)
	}
}

// TestAACLiveHeap pins what dropping dead subtrees buys the served
// counter: after 2^20 merge-layout increments on a direct native proc,
// unpadded and padded, the counter keeps under 1 MB live, and so it does
// after 2^17 increments through the FastReg walk (a proc behind a
// pass-through step hook). A counter that kept every subtree it built held
// about 45 B per increment unpadded and 272 B padded. Under the race
// detector each leg runs a sixteenth of its increments.
func TestAACLiveHeap(t *testing.T) {
	const maxLive = 1 << 20
	shift := 0
	if allocs.Race {
		shift = 4
	}
	for _, leg := range []struct {
		name        string
		pad, hooked bool
		incs        int
	}{
		{"pad=false", false, false, 1 << 20},
		{"pad=true", true, false, 1 << 20},
		{"hooked", false, true, 1 << 17},
	} {
		leg.incs >>= shift
		t.Run(leg.name, func(t *testing.T) {
			base := allocs.LiveHeap()
			rt := shmem.NewNative(1, shmem.WithRegisterPadding(leg.pad))
			c := NewAACCounterWithMerge(rt, 8, 8)
			g := rt.NewRunGroup(1)
			if leg.hooked {
				g.SetHook(passHook{})
			}
			var direct bool
			g.Run(func(p shmem.Proc) {
				direct = shmem.DirectProc(p) != nil
				for range leg.incs {
					c.Inc(p)
				}
			})
			live := int64(allocs.LiveHeap()) - int64(base)
			t.Logf("%d Incs keep %d B live", leg.incs, live)
			if direct == leg.hooked {
				t.Fatalf("DirectProc non-nil = %v on a hooked=%v proc", direct, leg.hooked)
			}
			if got := c.Read(rt.NewProc(0)); got != uint64(leg.incs) {
				t.Fatalf("Read = %d after %d Incs", got, leg.incs)
			}
			if live > maxLive {
				t.Fatalf("%d Incs keep %d B live, want at most %d", leg.incs, live, maxLive)
			}
		})
	}
}

// TestStaleWalkersInDroppedSubtree scripts, on the simulator, the
// schedules that dropping a left subtree must survive, on a register of
// width 256 (a root switch over two nodes of width 128, each a switch over
// two flat trees of width 64):
//   - a writer of 5 (proc 0) and a reader (proc 1) read the root switch as
//     0, and a writer of 130 (proc 4) reads the right node's switch as 0;
//   - a writer of 255 (proc 2) then fills the right subtree, sets the
//     right node's switch, which drops that node's left child, and sets
//     the root switch, which drops the root's left child;
//   - between those two switch writes a reader (proc 3) finishes a first
//     read and starts a second, reading the root switch as 0;
//   - every stale walker then finishes inside the subtree dropped under
//     it, and a late reader (proc 5) and a late writer of 7 (proc 6) run.
//
// Reads and per-process counts must equal the pointer tree's on the same
// schedule, before and after a Reset, and both left children must have
// been dropped. A drop made before its switch write hands the second read
// of proc 3 a dropped child; a drop of the right child hides 255 from the
// late reader.
func TestStaleWalkersInDroppedSubtree(t *testing.T) {
	const m, seed = 256, 1
	script := [][]layoutOp{
		{{write: true, v: 5}},
		{{}},
		{{write: true, v: 255}},
		{{}, {}},
		{{write: true, v: 130}},
		{{}},
		{{write: true, v: 7}},
	}
	var schedule []int
	for _, turn := range []struct{ proc, steps int }{
		{4, 1}, {0, 1}, {1, 1}, {3, 7}, {2, 7}, {3, 2}, {2, 1},
		{4, 7}, {0, 7}, {1, 7}, {3, 7}, {5, 8}, {6, 1},
	} {
		for range turn.steps {
			schedule = append(schedule, turn.proc)
		}
	}
	wantReads := [][]uint64{nil, {5}, nil, {0, 5}, nil, {255}, nil}
	run := func(rt *sim.Runtime, r MaxReg) (reads [][]uint64, counts []shmem.OpCounts) {
		defer func() {
			if v := recover(); v != nil {
				t.Fatalf("a walk panicked: %v", v)
			}
		}()
		return runLayoutScript(rt, r, script)
	}
	refRT := sim.New(seed, sim.NewReplay(schedule))
	refReads, refCounts := run(refRT, newRefBounded(refRT, m))
	rt := sim.New(seed, sim.NewReplay(schedule))
	b := NewBounded(rt, m)
	for _, reset := range []bool{false, true} {
		if reset {
			b.Reset()
			rt.Reset(seed, sim.NewReplay(schedule))
		}
		reads, counts := run(rt, b)
		for i := range script {
			if !slices.Equal(reads[i], refReads[i]) || !slices.Equal(reads[i], wantReads[i]) {
				t.Fatalf("reset=%v proc %d: reads %v, pointer tree read %v, want %v", reset, i, reads[i], refReads[i], wantReads[i])
			}
			if counts[i] != refCounts[i] {
				t.Fatalf("reset=%v proc %d: counts %+v, pointer tree took %+v", reset, i, counts[i], refCounts[i])
			}
		}
		if b.left.Load() != nil || b.right.Load().left.Load() != nil {
			t.Fatalf("reset=%v: a set switch left its left child published", reset)
		}
	}
}
