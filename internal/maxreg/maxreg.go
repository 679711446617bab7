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
// counter's sums, allocates about one register per value: 8 B on one P,
// 64 B when the native runtime pads its registers. Only the path to the
// largest value stays live: the write that sets a wide node's switch
// drops the node's left subtree, which no later walk enters (see
// Bounded), so a counter's live memory follows its value's path, not its
// history. The layout moves no step: every operation reads and writes the
// same switches, in the same order, as a tree of one heap node per switch
// would.
//
// Walks: each operation tests its proc once. An unhooked native proc
// (shmem.DirectProc) takes a word walk, which counts every step on the
// proc and performs it on the register's atomic word, with no call per
// step. Every other proc (the simulator's, or a native one behind a step
// hook) takes the FastReg walk. Both walks read and write the same
// registers in the same order.
package maxreg

import (
	"math/bits"
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
// their own paths. A dense run of new values thus allocates about one
// register each (8 B on one P, 64 B when the runtime pads its registers)
// plus a share of the flat tree and the nodes above it. Allocation is
// bookkeeping outside the step-counted model.
//
// Live memory: once a wide node's switch reads 1 no walk enters its left
// subtree again (writers read the switch before turning left, readers turn
// right), so the write that sets the switch unpublishes the left child. A
// walk loads the left child before it reads the switch: one that then reads
// 0 finishes in the subtree it holds, and the garbage collector frees the
// subtree once the last such walk is done. A dropped subtree is never
// reset or reused, since a stale walk may still be inside it. What stays
// live is the path to the largest value written, not every subtree the
// register ever built.
type Bounded struct {
	mem shmem.Mem
	m   uint64

	// sw is a flat tree's switch arena (nil when m = 1).
	sw shmem.RegArena

	// high is a wide tree's root switch. Its children are published
	// through atomic pointers so the walks take no lock; the mutex only
	// serializes their one-time allocation, which stores left before
	// right. right then stays; left returns to nil when the write that
	// sets high drops it. A walk that turns left, and every read, loads
	// right (allocating on nil), then left, then reads high: a nil left
	// means the drop, which follows the switch write, so high reads 1.
	high        shmem.FastReg
	mu          sync.Mutex
	left, right atomic.Pointer[Bounded]
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
		b.sw = mem.NewRegs(int(m - 1))
	}
	return b
}

// half returns the split point: left covers [0, half), right [half, m).
func (b *Bounded) half() uint64 { return (b.m + 1) / 2 }

// Reset restores the register to its initial (all-zero) state: it resets
// the subtrees still published in place and allocates a fresh left child
// wherever a set switch dropped one. Between executions only.
func (b *Bounded) Reset() {
	if b.m <= flatWidth {
		if b.sw != nil {
			b.sw.Reset()
		}
		return
	}
	b.high.Restore(0)
	right := b.right.Load()
	if right == nil {
		return
	}
	right.Reset()
	if left := b.left.Load(); left != nil {
		left.Reset()
	} else {
		b.left.Store(NewBounded(b.mem, b.half()))
	}
}

// rightChild returns a wide tree's right subtree, allocating both children
// on first touch. It inlines into the walks.
func (b *Bounded) rightChild() *Bounded {
	if right := b.right.Load(); right != nil {
		return right
	}
	return b.allocChildren()
}

// allocChildren allocates a wide tree's children unless another walk has,
// and returns the right one.
func (b *Bounded) allocChildren() *Bounded {
	b.mu.Lock()
	defer b.mu.Unlock()
	if right := b.right.Load(); right != nil {
		return right
	}
	right := NewBounded(b.mem, b.m-b.half())
	b.left.Store(NewBounded(b.mem, b.half()))
	b.right.Store(right)
	return right
}

// WriteMax raises the register to at least v. Cost: O(log m) steps.
func (b *Bounded) WriteMax(p shmem.Proc, v uint64) {
	if v >= b.m {
		panic("maxreg: value out of range")
	}
	if np := shmem.DirectProc(p); np != nil {
		b.writeWords(np, v)
		return
	}
	b.writeMax(p, v)
}

// writeMax is WriteMax's walk for any proc: each step goes through a
// FastReg. It recurses into itself rather than through WriteMax, so its
// frame, which the simulator's process stacks hold once per level, does
// not carry the proc test.
func (b *Bounded) writeMax(p shmem.Proc, v uint64) {
	if b.m <= flatWidth {
		b.writeFlat(p, 0, b.m, v)
		return
	}
	if v < b.half() {
		// Hold left before reading the switch (see Bounded.high). Every
		// walk repeats these lines: as a helper they exceed the inlining
		// budget, and the walks would pay a call per wide node.
		if b.right.Load() == nil {
			b.allocChildren()
		}
		left := b.left.Load()
		if b.high.Read(p) == 0 {
			left.writeMax(p, v)
		}
		return
	}
	b.rightChild().writeMax(p, v-b.half())
	b.high.Write(p, 1)
	if b.left.Load() != nil {
		b.left.Store(nil) // the drop
	}
}

// writeFlat is writeMax on the flat subtree over [lo, hi), lo ≤ v < hi.
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

// writeWords is writeMax for a direct native proc (shmem.DirectProc): it
// reads and writes the same switches in the same order, each step a count
// on the proc and an operation on the register's word. Left turns loop;
// right turns recurse, as writeMax's do.
func (b *Bounded) writeWords(np *shmem.NativeProc, v uint64) {
	for b.m > flatWidth {
		if v >= b.half() {
			b.rightChild().writeWords(np, v-b.half())
			writeWord(np, b.high.Word(), 1)
			if b.left.Load() != nil {
				b.left.Store(nil)
			}
			return
		}
		if b.right.Load() == nil {
			b.allocChildren()
		}
		left := b.left.Load()
		if readWord(np, b.high.Word()) != 0 {
			return
		}
		b = left
	}
	writeFlatWords(np, arenaWords(b.sw), 0, b.m, v)
}

// writeFlatWords is writeFlat for a direct native proc on the flat
// subtree's words.
func writeFlatWords(np *shmem.NativeProc, sw words, lo, hi, v uint64) {
	for hi-lo > 1 {
		mid := lo + (hi-lo+1)/2
		w := sw.at(mid - 1)
		if v >= mid {
			writeFlatWords(np, sw, mid, hi, v)
			writeWord(np, w, 1)
			return
		}
		if readWord(np, w) != 0 {
			return
		}
		hi = mid
	}
}

// ReadMax returns the current maximum. Cost: O(log m) steps.
func (b *Bounded) ReadMax(p shmem.Proc) uint64 {
	if np := shmem.DirectProc(p); np != nil {
		return b.readWords(np)
	}
	return b.readMax(p)
}

// readMax is ReadMax's walk for any proc.
func (b *Bounded) readMax(p shmem.Proc) uint64 {
	var base uint64
	for b.m > flatWidth {
		if b.right.Load() == nil {
			b.allocChildren()
		}
		left := b.left.Load()
		if b.high.Read(p) == 1 {
			base += b.half()
			b = b.right.Load()
		} else {
			b = left
		}
	}
	lo, hi := uint64(0), b.m
	for hi-lo > 1 {
		mid := lo + (hi-lo+1)/2
		if shmem.FastAt(b.sw, int(mid-1)).Read(p) == 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return base + lo
}

// readWords is readMax for a direct native proc.
func (b *Bounded) readWords(np *shmem.NativeProc) uint64 {
	var base uint64
	for b.m > flatWidth {
		if b.right.Load() == nil {
			b.allocChildren()
		}
		left := b.left.Load()
		if readWord(np, b.high.Word()) == 1 {
			base += b.half()
			b = b.right.Load()
		} else {
			b = left
		}
	}
	sw := arenaWords(b.sw)
	lo, hi := uint64(0), b.m
	for hi-lo > 1 {
		mid := lo + (hi-lo+1)/2
		if readWord(np, sw.at(mid-1)) == 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return base + lo
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
	// pointer, so an operation loads it once and walks it without a lock.
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

// load returns the published spine. It is inlined into the walks; a walk
// that needs node j past its end calls grow.
func (u *Unbounded) load() []*spineNode {
	if arr := u.spine.Load(); arr != nil {
		return *arr
	}
	return nil
}

// grow allocates the spine lazily up to node j and returns it.
func (u *Unbounded) grow(j int) []*spineNode {
	u.mu.Lock()
	defer u.mu.Unlock()
	var cur []*spineNode
	if arr := u.spine.Load(); arr != nil {
		cur = *arr
	}
	if j < len(cur) {
		return cur
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
	return next
}

// Reset restores the register to its initial (empty) state, keeping the
// allocated spine. Between executions only.
func (u *Unbounded) Reset() {
	for _, n := range u.load() {
		n.deeper.Restore(0)
		n.tree.Reset()
	}
}

// base returns the smallest value stored at spine node j: 2^j − 1.
func base(j int) uint64 { return uint64(1)<<uint(j) - 1 }

// level returns the spine node whose range contains v: the j with
// 2^j ≤ v+1 < 2^(j+1).
func level(v uint64) int { return bits.Len64(v+1) - 1 }

// WriteMax raises the register to at least v.
func (u *Unbounded) WriteMax(p shmem.Proc, v uint64) {
	if np := shmem.DirectProc(p); np != nil {
		u.writeWords(np, v)
		return
	}
	u.writeMax(p, v)
}

// writeMax is WriteMax's walk for any proc.
func (u *Unbounded) writeMax(p shmem.Proc, v uint64) {
	if v > uint64(1)<<62 {
		panic("maxreg: value too large")
	}
	j := level(v)
	spine := u.load()
	if j >= len(spine) {
		spine = u.grow(j)
	}
	spine[j].tree.writeMax(p, v-base(j))
	// Deep-first bit setting: a reader that sees deeper=1 at node i < j
	// will find every bit up to j−1 already set and reach the full value.
	for i := j - 1; i >= 0; i-- {
		spine[i].deeper.Write(p, 1)
	}
}

// writeWords is writeMax for a direct native proc (shmem.DirectProc).
func (u *Unbounded) writeWords(np *shmem.NativeProc, v uint64) {
	if v > uint64(1)<<62 {
		panic("maxreg: value too large")
	}
	j := level(v)
	spine := u.load()
	if j >= len(spine) {
		spine = u.grow(j)
	}
	spine[j].tree.writeWords(np, v-base(j))
	for i := j - 1; i >= 0; i-- {
		writeWord(np, spine[i].deeper.Word(), 1)
	}
}

// ReadMax returns the current maximum. The spine is loaded once; grow runs
// only when the walk passes its end.
func (u *Unbounded) ReadMax(p shmem.Proc) uint64 {
	if np := shmem.DirectProc(p); np != nil {
		return u.readWords(np)
	}
	return u.readMax(p)
}

// readMax is ReadMax's walk for any proc.
func (u *Unbounded) readMax(p shmem.Proc) uint64 {
	spine := u.load()
	for j := 0; ; j++ {
		if j == len(spine) {
			spine = u.grow(j)
		}
		if spine[j].deeper.Read(p) != 1 {
			return base(j) + spine[j].tree.readMax(p)
		}
	}
}

// readWords is readMax for a direct native proc.
func (u *Unbounded) readWords(np *shmem.NativeProc) uint64 {
	spine := u.load()
	for j := 0; ; j++ {
		if j == len(spine) {
			spine = u.grow(j)
		}
		if readWord(np, spine[j].deeper.Word()) != 1 {
			return base(j) + spine[j].tree.readWords(np)
		}
	}
}

// words is a native register arena's atomic words (shmem.ArenaWords),
// resolved once per walk: register i's word is at(i).
type words struct {
	w     []atomic.Uint64
	shift uint
}

func arenaWords(a shmem.RegArena) words {
	w, shift := shmem.ArenaWords(a)
	return words{w, shift}
}

func (s words) at(i uint64) *atomic.Uint64 { return &s.w[i<<s.shift] }

// readWord, writeWord and casWord are the steps of the word walks: each
// counts its step on the proc and then operates on the word. Each inlines,
// so a word walk makes no call per step. shmem.LogWord is empty outside
// the wordlog build tag.

func readWord(np *shmem.NativeProc, w *atomic.Uint64) uint64 {
	np.Step(shmem.OpRead)
	return shmem.LogWord(np, w, shmem.OpRead, w.Load())
}

// writeWord stores only when the word holds another value, as every
// native write does (see shmem's storeWord).
func writeWord(np *shmem.NativeProc, w *atomic.Uint64, v uint64) {
	np.Step(shmem.OpWrite)
	if w.Load() != v {
		w.Store(v)
	}
	shmem.LogWord(np, w, shmem.OpWrite, v)
}

func casWord(np *shmem.NativeProc, w *atomic.Uint64, old, new uint64) bool {
	np.Step(shmem.OpCAS)
	shmem.LogWord(np, w, shmem.OpCAS, new)
	return w.CompareAndSwap(old, new)
}
