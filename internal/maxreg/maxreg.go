// Package maxreg implements max registers after Aspnes, Attiya and Censor,
// "Max registers, counters, and monotone circuits" (PODC 2009) — reference
// [17] of the paper. A max register supports WriteMax(v) and ReadMax, where
// ReadMax returns the largest value written so far.
//
// The bounded register is the recursive tree construction with O(log m)
// step complexity; the unbounded register chains bounded trees of doubling
// width along a spine, giving O(log v) cost where v is the largest value
// involved. The paper's monotone-consistent counter (Section 8.1) writes
// renaming-network names into an unbounded max register.
//
// Layout: the bottom levels of every bounded tree are flat. A subtree of
// width at most 64 keeps all its switch registers in one arena, in order,
// and the wider nodes above it are allocated lazily, so a sparse value
// touches only its own path. A dense run of new values, such as a
// counter's sums, costs about one register per value: 8 B on one P, 64 B
// when the native runtime pads its registers. The layout moves no step:
// every operation reads and writes the same switches, in the same order,
// as a tree of one heap node per switch would.
package maxreg

import (
	"sync"
	"sync/atomic"

	"repro/internal/shmem"
)

// MaxReg is a linearizable max register.
type MaxReg interface {
	// WriteMax raises the register to at least v.
	WriteMax(p shmem.Proc, v uint64)
	// ReadMax returns the largest value written by any completed WriteMax
	// (and possibly one from a concurrent write).
	ReadMax(p shmem.Proc) uint64
}

// flatWidth is the widest Bounded whose switch registers all live in one
// arena (see Bounded).
const flatWidth = 64

// Bounded is the AAC tree max register over values [0, m).
//
// Structure: a switch bit splits the range in half; the left subtree holds
// the low half, the right subtree the high half. A high write fills the
// right subtree before flipping the switch, so any reader directed right
// finds a complete value.
//
// Layout: a tree of width m ≤ flatWidth keeps all m−1 of its switches in
// one register arena, in order: the node that splits [lo, hi) at
// mid = lo + (hi−lo+1)/2 owns register mid−1, which fits the halving rule
// at any width. A wider tree keeps only its root switch and allocates its
// two children lazily, down to flat subtrees, so sparse values touch only
// their own paths. A dense run of new values thus costs about one register
// each (8 B on one P, 64 B when the runtime pads its registers) plus a
// share of the flat tree and the nodes above it. Allocation is bookkeeping
// outside the step-counted model.
type Bounded struct {
	mem shmem.Mem
	m   uint64

	// sw is a flat tree's switch arena (nil when m = 1).
	sw shmem.RegArena

	// high is a wide tree's root switch. Its children are published
	// through an atomic pointer so the hot read/write paths take no lock;
	// the mutex only serializes the one-time allocation.
	high shmem.FastReg
	mu   sync.Mutex
	kids atomic.Pointer[boundedKids]
}

type boundedKids struct {
	left, right *Bounded
}

var _ MaxReg = (*Bounded)(nil)

// NewBounded returns a max register over [0, m), m ≥ 1.
func NewBounded(mem shmem.Mem, m uint64) *Bounded {
	if m < 1 {
		panic("maxreg: capacity must be at least 1")
	}
	b := &Bounded{mem: mem, m: m}
	switch {
	case m > flatWidth:
		b.high = shmem.Fast(mem.NewReg(0))
	case m > 1:
		b.sw = shmem.NewRegs(mem, int(m-1))
	}
	return b
}

// half returns the split point: left covers [0, half), right [half, m).
func (b *Bounded) half() uint64 { return (b.m + 1) / 2 }

// Reset restores the register to its initial (all-zero) state, keeping the
// lazily allocated tree so the next execution runs allocation-free.
// Between executions only.
func (b *Bounded) Reset() {
	if b.m <= flatWidth {
		if b.sw != nil {
			b.sw.Reset()
		}
		return
	}
	b.high.Restore(0)
	if k := b.kids.Load(); k != nil {
		k.left.Reset()
		k.right.Reset()
	}
}

func (b *Bounded) children() (*Bounded, *Bounded) {
	if k := b.kids.Load(); k != nil {
		return k.left, k.right
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if k := b.kids.Load(); k != nil {
		return k.left, k.right
	}
	k := &boundedKids{
		left:  NewBounded(b.mem, b.half()),
		right: NewBounded(b.mem, b.m-b.half()),
	}
	b.kids.Store(k)
	return k.left, k.right
}

// WriteMax raises the register to at least v. Cost: O(log m) steps.
func (b *Bounded) WriteMax(p shmem.Proc, v uint64) {
	if v >= b.m {
		panic("maxreg: value out of range")
	}
	if b.m <= flatWidth {
		b.writeFlat(p, 0, b.m, v)
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

// writeFlat is WriteMax on the flat subtree over [lo, hi), lo ≤ v < hi.
// A step right recurses because its switch may be set only once the right
// subtree holds v.
func (b *Bounded) writeFlat(p shmem.Proc, lo, hi, v uint64) {
	for hi-lo > 1 {
		mid := lo + (hi-lo+1)/2
		sw := shmem.FastAt(b.sw, int(mid-1))
		if v >= mid {
			b.writeFlat(p, mid, hi, v)
			sw.Write(p, 1)
			return
		}
		if sw.Read(p) != 0 {
			return
		}
		hi = mid
	}
}

// ReadMax returns the current maximum. Cost: O(log m) steps.
func (b *Bounded) ReadMax(p shmem.Proc) uint64 {
	if b.m <= flatWidth {
		lo, hi := uint64(0), b.m
		for hi-lo > 1 {
			mid := lo + (hi-lo+1)/2
			if shmem.FastAt(b.sw, int(mid-1)).Read(p) == 1 {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}
	left, right := b.children()
	if b.high.Read(p) == 1 {
		return b.half() + right.ReadMax(p)
	}
	return left.ReadMax(p)
}

// Unbounded chains bounded trees of doubling width along a spine. Spine
// node j holds values in [2^j − 1, 2^(j+1) − 1) in a Bounded of width 2^j,
// plus a bit routing readers deeper. A writer fills its tree first and then
// sets the spine bits from deepest to shallowest, so a reader that follows
// set bits always lands on a tree holding a complete value.
//
// Cost: O(log v) steps for both operations, v the largest value involved —
// the bound Lemma 4 of the paper charges to the counter's max register.
type Unbounded struct {
	mem shmem.Mem

	// The spine only grows; it is published copy-on-write through an atomic
	// pointer so the per-operation node lookups (every ReadMax starts at
	// spine node 0) take no lock.
	mu    sync.Mutex
	spine atomic.Pointer[[]*spineNode]
}

type spineNode struct {
	deeper shmem.FastReg
	tree   *Bounded
}

var _ MaxReg = (*Unbounded)(nil)

// NewUnbounded returns an empty unbounded max register.
func NewUnbounded(mem shmem.Mem) *Unbounded {
	return &Unbounded{mem: mem}
}

// node returns spine node j, allocating the prefix lazily.
func (u *Unbounded) node(j int) *spineNode {
	if arr := u.spine.Load(); arr != nil && j < len(*arr) {
		return (*arr)[j]
	}
	return u.grow(j)
}

func (u *Unbounded) grow(j int) *spineNode {
	u.mu.Lock()
	defer u.mu.Unlock()
	var cur []*spineNode
	if arr := u.spine.Load(); arr != nil {
		cur = *arr
	}
	if j < len(cur) {
		return cur[j]
	}
	next := make([]*spineNode, len(cur), j+1)
	copy(next, cur)
	for len(next) <= j {
		w := uint64(1) << uint(len(next))
		next = append(next, &spineNode{
			deeper: shmem.Fast(u.mem.NewReg(0)),
			tree:   NewBounded(u.mem, w),
		})
	}
	u.spine.Store(&next)
	return next[j]
}

// Reset restores the register to its initial (empty) state, keeping the
// allocated spine. Between executions only.
func (u *Unbounded) Reset() {
	arr := u.spine.Load()
	if arr == nil {
		return
	}
	for _, n := range *arr {
		n.deeper.Restore(0)
		n.tree.Reset()
	}
}

// base returns the smallest value stored at spine node j: 2^j − 1.
func base(j int) uint64 { return uint64(1)<<uint(j) - 1 }

// level returns the spine node whose range contains v.
func level(v uint64) int {
	j := 0
	for v >= base(j+1) {
		j++
	}
	return j
}

// WriteMax raises the register to at least v.
func (u *Unbounded) WriteMax(p shmem.Proc, v uint64) {
	if v > uint64(1)<<62 {
		panic("maxreg: value too large")
	}
	j := level(v)
	u.node(j).tree.WriteMax(p, v-base(j))
	// Deep-first bit setting: a reader that sees deeper=1 at node i < j
	// will find every bit up to j−1 already set and reach the full value.
	for i := j - 1; i >= 0; i-- {
		u.node(i).deeper.Write(p, 1)
	}
}

// ReadMax returns the current maximum.
func (u *Unbounded) ReadMax(p shmem.Proc) uint64 {
	j := 0
	for u.node(j).deeper.Read(p) == 1 {
		j++
	}
	return base(j) + u.node(j).tree.ReadMax(p)
}
