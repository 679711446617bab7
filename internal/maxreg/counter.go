package maxreg

import (
	"fmt"
	"sync"

	"repro/internal/shmem"
)

// AACCounter is the deterministic linearizable counter of Aspnes, Attiya
// and Censor [17] — the object the paper's Section 8.1 counter is compared
// against ("more efficient by a logarithmic factor than the best previously
// known, but only monotone-consistent").
//
// Structure: processes sit at the leaves of a balanced binary tree; each
// leaf is a single-writer register holding its owner's increment count, and
// each internal node is a max register holding the sum of its subtree
// (sums only grow, so WriteMax maintains them). An increment bumps the
// leaf and refreshes the max registers up the root path by reading both
// children and writing their sum; a read returns the root.
//
// Step complexity: O(log n · log v) per increment and O(log v) per read,
// the paper's "O(log² n) for polynomially many increments". This is the
// linearizable baseline that the monotone counter beats by a log factor.
//
// A counter compiled with merge slots (CompileAACWithMerge) additionally
// serves as the authoritative spine of the phased counter
// (internal/phase): the tree widens so that, next to the per-process
// leaves, a second bank of *merge leaves* hangs under the root's right
// subtree. Merge(src, total) publishes a shard's cumulative local count
// into merge leaf src by CAS-max and refreshes the path up — idempotent
// (totals only grow, a replayed or concurrent merge can only re-write the
// same or a larger total) and crash-safe (a crash mid-refresh leaves max
// registers behind, never wrong; the next merge or increment repairs the
// path). ReadJoined reads only the per-process subtree, so a reader can
// form "joined increments + Σ local cells" without ever double-counting a
// merged total.
type AACCounter struct {
	size      int            // tree width: number of leaf positions
	procCap   int            // leaf slots 0..procCap-1 owned by incrementing processes
	mergeBase int            // arena offset of the first merge leaf; 0 = classic layout
	leaves    shmem.RegArena // leaf registers, bulk-allocated
	nodes     []*Unbounded   // heap layout: node i has children 2i and 2i+1; leaf j is node size+j
}

// AACBlueprint is the runtime-independent shape of an AACCounter: the
// tree width (a power of two) plus the split of its leaves into
// per-process slots and merge slots. Compiled once per shape and cached
// process-wide.
type AACBlueprint struct {
	size      int
	procCap   int
	mergeBase int
}

var (
	aacBlueprints      sync.Map // size (rounded) -> *AACBlueprint, classic layout
	aacMergeBlueprints sync.Map // half-width -> *AACBlueprint, merge layout
)

// CompileAAC returns the cached blueprint for up to n incrementing
// processes. n is rounded up to a power of two.
func CompileAAC(n int) *AACBlueprint {
	if n < 1 {
		panic("maxreg: AACCounter needs n >= 1")
	}
	size := 1
	for size < n {
		size *= 2
	}
	if bp, ok := aacBlueprints.Load(size); ok {
		return bp.(*AACBlueprint)
	}
	bp := &AACBlueprint{size: size, procCap: size}
	got, _ := aacBlueprints.LoadOrStore(size, bp)
	return got.(*AACBlueprint)
}

// CompileAACWithMerge returns the cached blueprint for the phased-spine
// layout: up to procs incrementing processes and up to slots merge
// sources. Both banks round up to one power-of-two half-width h, and the
// tree doubles to width 2h: node 2's subtree covers exactly the process
// leaves (what ReadJoined returns), node 3's subtree exactly the merge
// leaves, and the root covers both.
func CompileAACWithMerge(procs, slots int) *AACBlueprint {
	if procs < 1 || slots < 1 {
		panic("maxreg: merge layout needs procs >= 1 and slots >= 1")
	}
	n := procs
	if slots > n {
		n = slots
	}
	h := 1
	for h < n {
		h *= 2
	}
	if bp, ok := aacMergeBlueprints.Load(h); ok {
		return bp.(*AACBlueprint)
	}
	bp := &AACBlueprint{size: 2 * h, procCap: h, mergeBase: h}
	got, _ := aacMergeBlueprints.LoadOrStore(h, bp)
	return got.(*AACBlueprint)
}

// Size returns the rounded process capacity.
func (bp *AACBlueprint) Size() int { return bp.procCap }

// MergeSlots returns the number of merge sources the layout supports (0
// for the classic layout).
func (bp *AACBlueprint) MergeSlots() int {
	if bp.mergeBase == 0 {
		return 0
	}
	return bp.size - bp.mergeBase
}

// Instantiate stamps the counter's shared state onto mem: the leaf
// registers come from one bulk arena; internal nodes are unbounded max
// registers (lazily grown trees of their own).
func (bp *AACBlueprint) Instantiate(mem shmem.Mem) *AACCounter {
	c := &AACCounter{
		size:      bp.size,
		procCap:   bp.procCap,
		mergeBase: bp.mergeBase,
		leaves:    mem.NewRegs(bp.size),
		nodes:     make([]*Unbounded, bp.size),
	}
	for i := 1; i < bp.size; i++ {
		c.nodes[i] = NewUnbounded(mem)
	}
	return c
}

// NewAACCounter builds the counter for up to n incrementing processes
// (process ids 0..n−1; readers are unrestricted). n is rounded up to a
// power of two. Compile-once + instantiate under the hood.
func NewAACCounter(mem shmem.Mem, n int) *AACCounter {
	return CompileAAC(n).Instantiate(mem)
}

// NewAACCounterWithMerge builds the phased-spine variant for up to procs
// incrementing processes and slots merge sources.
func NewAACCounterWithMerge(mem shmem.Mem, procs, slots int) *AACCounter {
	return CompileAACWithMerge(procs, slots).Instantiate(mem)
}

// MergeSlots returns the number of merge sources (0 for the classic
// layout).
func (c *AACCounter) MergeSlots() int {
	if c.mergeBase == 0 {
		return 0
	}
	return c.size - c.mergeBase
}

// Reset restores the counter to zero, keeping the node trees' published
// subtrees (see Bounded.Reset). Between executions only.
func (c *AACCounter) Reset() {
	c.leaves.Reset()
	for i := 1; i < c.size; i++ {
		c.nodes[i].Reset()
	}
}

// value reads tree position idx (internal max register or leaf register).
func (c *AACCounter) value(p shmem.Proc, idx int) uint64 {
	if idx >= c.size {
		return c.leaves.Reg(idx - c.size).Read(p)
	}
	return c.nodes[idx].readMax(p)
}

// refresh re-derives the max registers on the path from leaf (a tree
// position) to the root. Refreshing is always safe: every written sum is a
// sum of monotone children, so a stale or crashed refresher can only write
// a value the max registers have already passed.
func (c *AACCounter) refresh(p shmem.Proc, leaf int) {
	for v := leaf / 2; v >= 1; v /= 2 {
		sum := c.value(p, 2*v) + c.value(p, 2*v+1)
		c.nodes[v].writeMax(p, sum)
	}
}

// Inc adds one to the counter on behalf of process p: Add(p, 1).
func (c *AACCounter) Inc(p shmem.Proc) { c.Add(p, 1) }

// Add adds n to the counter on behalf of process p (p.ID() must be below
// the constructed capacity) in one increment's steps: p's leaf is read and
// advanced by n, and the path to the root is refreshed once, so n
// increments that are concurrent anyway cost one walk. Every reader sees
// the n land together.
func (c *AACCounter) Add(p shmem.Proc, n uint64) {
	id := p.ID()
	if id >= c.procCap {
		panic(fmt.Sprintf("maxreg: AACCounter built for %d processes, got id %d", c.procCap, id))
	}
	if np := shmem.DirectProc(p); np != nil {
		c.addWords(np, id, n)
		return
	}
	c.leaves.Reg(id).Write(p, c.leaves.Reg(id).Read(p)+n)
	c.refresh(p, c.size+id)
}

// Merge publishes total — a merge source's cumulative count — into merge
// leaf src and refreshes the path to the root. The leaf is advanced by
// CAS-max, so merges are idempotent: replaying a merge, racing another
// merger of the same source, or crashing between the leaf CAS and the
// refresh can never make the counter exceed the true total (the leaf holds
// the max cumulative count published so far), and a lost refresh is
// repaired by whichever merge or increment refreshes next. Any process may
// merge (src is a shard, not a process id). Only counters compiled with
// merge slots support it.
func (c *AACCounter) Merge(p shmem.Proc, src int, total uint64) {
	if c.mergeBase == 0 {
		panic("maxreg: Merge needs a counter compiled with merge slots (CompileAACWithMerge)")
	}
	if src < 0 || src >= c.size-c.mergeBase {
		panic(fmt.Sprintf("maxreg: AACCounter built for %d merge slots, got src %d", c.size-c.mergeBase, src))
	}
	if np := shmem.DirectProc(p); np != nil {
		c.mergeWords(np, src, total)
		return
	}
	r := c.leaves.CASReg(c.mergeBase + src)
	for {
		v := r.Read(p)
		if v >= total {
			break // an equal or later merge of this source already landed
		}
		if r.CompareAndSwap(p, v, total) {
			break
		}
	}
	// Refresh unconditionally: the winning CAS may have crashed before its
	// refresh, and re-deriving the path is the repair.
	c.refresh(p, c.size+c.mergeBase+src)
}

// addWords, mergeWords, valueWords and refreshWords are Add, Merge, value
// and refresh for a direct native proc (shmem.DirectProc): the same steps
// in the same order, on the leaves' words and the nodes' word walks.

func (c *AACCounter) addWords(np *shmem.NativeProc, id int, n uint64) {
	leaves := arenaWords(c.leaves)
	w := leaves.at(uint64(id))
	writeWord(np, w, readWord(np, w)+n)
	c.refreshWords(np, leaves, c.size+id)
}

func (c *AACCounter) mergeWords(np *shmem.NativeProc, src int, total uint64) {
	leaves := arenaWords(c.leaves)
	w := leaves.at(uint64(c.mergeBase + src))
	for {
		v := readWord(np, w)
		if v >= total || casWord(np, w, v, total) {
			break
		}
	}
	c.refreshWords(np, leaves, c.size+c.mergeBase+src)
}

func (c *AACCounter) valueWords(np *shmem.NativeProc, leaves words, idx int) uint64 {
	if idx >= c.size {
		return readWord(np, leaves.at(uint64(idx-c.size)))
	}
	return c.nodes[idx].readWords(np)
}

func (c *AACCounter) refreshWords(np *shmem.NativeProc, leaves words, leaf int) {
	for v := leaf / 2; v >= 1; v /= 2 {
		sum := c.valueWords(np, leaves, 2*v) + c.valueWords(np, leaves, 2*v+1)
		c.nodes[v].writeWords(np, sum)
	}
}

// ReadJoined returns the count of direct (joined-mode) increments only:
// the per-process subtree, excluding every merged total. On the classic
// layout it is Read. Phased readers combine it with the local cells —
// each component is monotone, so the sum is monotone-consistent without a
// snapshot.
func (c *AACCounter) ReadJoined(p shmem.Proc) uint64 {
	if c.mergeBase == 0 {
		return c.Read(p)
	}
	if np := shmem.DirectProc(p); np != nil {
		return c.valueWords(np, arenaWords(c.leaves), 2)
	}
	return c.value(p, 2)
}

// Read returns the counter value. On the merge layout this is joined
// increments plus merged totals — the authoritative value, which lags
// unmerged local counts by design (the phased counter's bounded
// staleness).
func (c *AACCounter) Read(p shmem.Proc) uint64 {
	if c.size == 1 {
		return c.leaves.Reg(0).Read(p)
	}
	return c.nodes[1].ReadMax(p)
}
