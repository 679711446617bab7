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
