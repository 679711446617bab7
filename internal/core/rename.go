// Package core implements the paper's algorithms: the BitBatching strong
// renaming algorithm (Section 4), renaming networks (Section 5), the strong
// adaptive renaming algorithm built on the adaptive sorting network
// (Section 6), and the counting applications (Section 8): the
// monotone-consistent counter, the linearizable ℓ-test-and-set, and the
// m-valued fetch-and-increment. A linear-probing baseline and correctness
// checkers round out the experimental surface.
package core

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/shmem"
	"repro/internal/tas"
)

// Renamer assigns names from 1 upward. Each invocation must carry a
// globally unique nonzero uid (for single-shot renaming, process id + 1 is
// the natural choice; multi-shot users like the counter derive fresh uids
// per operation).
type Renamer interface {
	Rename(p shmem.Proc, uid uint64) uint64
}

// log2ceil returns ⌈log₂ n⌉ for n ≥ 1.
func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Batch is a half-open slot range [Lo, Hi) in the BitBatching vector.
type Batch struct {
	Lo, Hi int
}

// Len returns the number of slots in the batch.
func (b Batch) Len() int { return b.Hi - b.Lo }

// BatchLayout partitions n slots into the geometric batches of Figure 1:
// batch i (1-indexed) spans (n − n/2^(i−1), n − n/2^i] in the paper's
// 1-indexed positions — the first half, the next quarter, and so on — with
// a final batch of length between log n and 2·log n.
func BatchLayout(n int) []Batch {
	if n < 4 {
		return []Batch{{0, n}}
	}
	lg := log2ceil(n)
	ell := bits.Len(uint(n/lg)) - 1 // ⌊log₂(n / log n)⌋
	if ell < 1 {
		ell = 1
	}
	batches := make([]Batch, 0, ell)
	lo := 0
	for i := 1; i < ell; i++ {
		hi := n - n>>uint(i) // n − n/2^i
		batches = append(batches, Batch{lo, hi})
		lo = hi
	}
	batches = append(batches, Batch{lo, n}) // batch ℓ: the tail
	return batches
}

// BitBatching is the non-adaptive strong renaming algorithm of Section 4:
// n adaptive test-and-set objects (RatRace [12]) partitioned into batches
// of geometrically decreasing size. A process makes 3·log n random probes
// per batch, tries the whole final batch, and falls back to a deterministic
// sweep (stage 2). Lemma 1: with high probability every process wins a
// test-and-set during stage 1, after O(log² n) test-and-set probes.
type BitBatching struct {
	bp    *BitBatchingBlueprint
	slots []*tas.RatRace
}

var _ Renamer = (*BitBatching)(nil)

// NewBitBatching allocates the n-slot vector from mem; internal two-process
// objects use mk. n must be at least 1. Compile-once + instantiate under
// the hood (the layout blueprint is cached process-wide).
func NewBitBatching(mem shmem.Mem, n int, mk tas.SidedMaker) *BitBatching {
	return CompileBitBatching(n).Instantiate(mem, mk)
}

// Reset restores every slot to its unentered state, keeping the lazily
// built object graph, so the instance serves the next execution without
// reallocation. Between executions only.
func (b *BitBatching) Reset() {
	for _, s := range b.slots {
		s.Reset()
	}
}

// Rename competes for a name in [1, n]. It panics if the namespace is
// exhausted, which can only happen if more than n distinct uids participate.
func (b *BitBatching) Rename(p shmem.Proc, uid uint64) uint64 {
	// The visited set is per-invocation scratch; keeping it on the stack for
	// the common vector sizes makes Rename allocation-free (the sweep engine
	// pins 0 allocs per execution in its steady state).
	var buf [64]bool
	var visited []bool
	if b.bp.n <= len(buf) {
		visited = buf[:b.bp.n]
	} else {
		visited = make([]bool, b.bp.n)
	}

	// Stage 1: 3·log n distinct random probes in every batch but the last;
	// every slot of the last batch.
	last := len(b.bp.batches) - 1
	for i, batch := range b.bp.batches {
		if i == last {
			for s := batch.Lo; s < batch.Hi; s++ {
				if b.try(p, uid, s, visited) {
					return uint64(s) + 1
				}
			}
			continue
		}
		size := batch.Len()
		tries := b.bp.probes
		if tries > size {
			tries = size
		}
		for t := 0; t < tries; t++ {
			s := b.sampleUnvisited(p, batch, visited)
			if s < 0 {
				break // batch exhausted locally
			}
			if b.try(p, uid, s, visited) {
				return uint64(s) + 1
			}
		}
	}

	// Stage 2: deterministic left-to-right sweep over not-yet-tried slots.
	// Lemma 1 shows this stage is reached with probability at most 1/n^c.
	for s := 0; s < b.bp.n; s++ {
		if visited[s] {
			continue
		}
		if b.try(p, uid, s, visited) {
			return uint64(s) + 1
		}
	}
	panic(fmt.Sprintf("core: BitBatching namespace of %d exhausted for uid %d", b.bp.n, uid))
}

// try competes in slot s once, recording the visit.
func (b *BitBatching) try(p shmem.Proc, uid uint64, s int, visited []bool) bool {
	visited[s] = true
	return b.slots[s].TestAndSet(p, uid)
}

// sampleUnvisited draws a uniform unvisited slot from the batch, or -1 if
// every slot was already tried. Rejection sampling with a bounded number of
// attempts followed by a deterministic scan keeps it unbiased-enough while
// never spinning.
func (b *BitBatching) sampleUnvisited(p shmem.Proc, batch Batch, visited []bool) int {
	size := uint64(batch.Len())
	for attempt := 0; attempt < 3; attempt++ {
		s := batch.Lo + int(p.Coin(size))
		if !visited[s] {
			return s
		}
	}
	// Scan from a random offset to stay cheap and deterministic.
	off := int(p.Coin(size))
	for d := 0; d < batch.Len(); d++ {
		s := batch.Lo + (off+d)%batch.Len()
		if !visited[s] {
			return s
		}
	}
	return -1
}

// LinearProbe is the folklore baseline from the introduction [4, 11]: a
// list of test-and-set objects probed left to right until one is won. The
// namespace is tight and adaptive, but a process may probe Θ(k) objects —
// the linear step complexity the paper's algorithms beat.
type LinearProbe struct {
	mem shmem.Mem
	mk  tas.SidedMaker

	mu    sync.Mutex // guards slot growth (bookkeeping, outside the model)
	slots []*tas.RatRace
}

var _ Renamer = (*LinearProbe)(nil)

// NewLinearProbe allocates a growable probe list.
func NewLinearProbe(mem shmem.Mem, mk tas.SidedMaker) *LinearProbe {
	return &LinearProbe{mem: mem, mk: mk}
}

// Reset restores every probe slot to its unentered state, keeping the
// grown list. Between executions only.
func (l *LinearProbe) Reset() {
	l.mu.Lock()
	slots := l.slots
	l.mu.Unlock()
	for _, s := range slots {
		s.Reset()
	}
}

// slot returns the s-th test-and-set, growing the list lazily.
func (l *LinearProbe) slot(s int) *tas.RatRace {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.slots) <= s {
		l.slots = append(l.slots, tas.NewRatRace(l.mem, l.mk))
	}
	return l.slots[s]
}

// Rename probes slots 1, 2, 3, ... until it wins one.
func (l *LinearProbe) Rename(p shmem.Proc, uid uint64) uint64 {
	for s := 0; ; s++ {
		if l.slot(s).TestAndSet(p, uid) {
			return uint64(s) + 1
		}
	}
}
