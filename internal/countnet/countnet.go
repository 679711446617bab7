// Package countnet implements counting networks (Aspnes, Herlihy, Shavit
// [26]) — the related shared objects Section 3 of the paper positions
// renaming networks against. A counting network is a network of balancers:
// a balancer forwards incoming tokens alternately to its top and bottom
// output; a counting network's exit distribution satisfies the step
// property, which turns per-output exit counters into a shared counter.
//
// The paper observes (citing Attiya, Herlihy, Rachman [27]) that any
// sorting network used by at most one process per wire is a counting
// network — which is exactly the Section 5 renaming construction. The
// tests exercise both directions of that remark: the bitonic balancer
// network counts under arbitrary concurrency, and one-token-per-wire
// traffic through it assigns tight ranks just like a renaming network.
//
// The package follows the repository's two-phase object model: a Blueprint
// is the runtime-independent wiring of Bitonic[w] (compiled once per width
// and cached process-wide); Instantiate stamps the shared state — balancer
// toggles and exit counters — onto a runtime as one register arena, and
// Reset restores it for the next execution without reallocation.
package countnet

import (
	"fmt"
	"sync"

	"repro/internal/shmem"
)

// toggle passes one token through a balancer, a two-output toggle: tokens
// alternate top (true) and bottom (false), starting with top. The word is
// bumped by CAS (unit-cost hardware step, the same accounting as the
// renaming comparators' TAS).
func toggle(p shmem.Proc, r shmem.CASReg) bool {
	for {
		s := r.Read(p)
		if r.CompareAndSwap(p, s, s+1) {
			return s%2 == 0
		}
	}
}

// wiring is one balancer wired onto two physical wires: a token leaving on
// top continues on wire A, on bottom on wire B. Bal indexes the balancer's
// shared word in the instantiated state arena.
type wiring struct {
	a, b int32
	bal  int32
}

// Blueprint is the compiled, runtime-independent wiring of Bitonic[w]:
// gates, parallel layers, and the logical output order. A Blueprint holds
// no shared state and serves any number of instantiations on any runtime.
type Blueprint struct {
	width  int
	gates  []wiring // construction order (valid per-wire sequential order)
	layers [][]wiring
	// order maps logical output index to physical wire: the recursive
	// merger wiring is a permutation, and the step property is stated in
	// logical output order.
	order []int
}

var blueprints sync.Map // width -> *Blueprint

// CompileBitonic returns the process-wide cached blueprint of
// Bitonic[width]. Width must be a power of two.
func CompileBitonic(width int) *Blueprint {
	if width < 1 || width&(width-1) != 0 {
		panic(fmt.Sprintf("countnet: width %d is not a power of two", width))
	}
	if bp, ok := blueprints.Load(width); ok {
		return bp.(*Blueprint)
	}
	bp := &Blueprint{width: width}
	wires := make([]int, width)
	for i := range wires {
		wires[i] = i
	}
	bp.order = bp.bitonic(wires)
	bp.layer()
	got, _ := blueprints.LoadOrStore(width, bp)
	return got.(*Blueprint)
}

// layer packs the flat gate list into parallel layers with ASAP
// scheduling, preserving the relative order of gates sharing a wire (the
// same construction sortnet uses for comparator stages).
func (bp *Blueprint) layer() {
	last := make([]int, bp.width)
	for _, g := range bp.gates {
		s := last[g.a]
		if last[g.b] > s {
			s = last[g.b]
		}
		if s == len(bp.layers) {
			bp.layers = append(bp.layers, nil)
		}
		bp.layers[s] = append(bp.layers[s], g)
		last[g.a], last[g.b] = s+1, s+1
	}
}

// Width returns the number of wires.
func (bp *Blueprint) Width() int { return bp.width }

// Depth returns the number of balancer layers.
func (bp *Blueprint) Depth() int { return len(bp.layers) }

// bitonic recursively constructs Bitonic over the given logical wire list
// and returns the logical output order (physical wires).
func (bp *Blueprint) bitonic(wires []int) []int {
	k := len(wires)
	if k == 1 {
		return wires
	}
	top := bp.bitonic(wires[:k/2])
	bot := bp.bitonic(wires[k/2:])
	return bp.merger(top, bot)
}

// merger implements Merger[2k] of [26]: it merges two sequences with the
// step property into one. The even-indexed outputs of the first sequence
// and odd-indexed of the second feed sub-merger A; the complements feed B;
// a final layer of balancers interleaves A's and B's outputs.
func (bp *Blueprint) merger(x, y []int) []int {
	k := len(x)
	if k == 1 {
		bp.gates = append(bp.gates, wiring{a: int32(x[0]), b: int32(y[0]), bal: int32(len(bp.gates))})
		return []int{x[0], y[0]}
	}
	var ax, bx []int
	for i, w := range x {
		if i%2 == 0 {
			ax = append(ax, w)
		} else {
			bx = append(bx, w)
		}
	}
	for i, w := range y {
		if i%2 == 0 {
			bx = append(bx, w)
		} else {
			ax = append(ax, w)
		}
	}
	// The two sub-mergers operate on disjoint wires, so their gates can
	// share layers; the ASAP pass in layer() recovers the parallelism.
	za := bp.merger(ax[:k/2], ax[k/2:])
	zb := bp.merger(bx[:k/2], bx[k/2:])
	out := make([]int, 0, 2*k)
	for i := 0; i < k; i++ {
		bp.gates = append(bp.gates, wiring{a: int32(za[i]), b: int32(zb[i]), bal: int32(len(bp.gates))})
		out = append(out, za[i], zb[i])
	}
	return out
}

// Instantiate stamps the blueprint's shared state onto mem: one register
// arena holding every balancer toggle followed by every exit counter.
func (bp *Blueprint) Instantiate(mem shmem.Mem) *Network {
	return &Network{
		bp:    bp,
		state: shmem.NewRegs(mem, len(bp.gates)+bp.width),
	}
}

// Network is an instantiated bitonic counting network: the shared state of
// one Blueprint on one runtime. Any number of tokens can enter on any
// wires concurrently.
type Network struct {
	bp *Blueprint
	// state holds the balancer toggles (one per gate) then the
	// per-logical-output exit counters.
	state shmem.RegArena
}

// NewBitonic builds Bitonic[width] from mem (compile-once, cached
// process-wide, plus a fresh instantiation). Width must be a power of two.
func NewBitonic(mem shmem.Mem, width int) *Network {
	return CompileBitonic(width).Instantiate(mem)
}

// Width returns the number of wires.
func (n *Network) Width() int { return n.bp.width }

// Depth returns the number of balancer layers.
func (n *Network) Depth() int { return len(n.bp.layers) }

// Reset restores every balancer and exit counter to zero, so the instance
// serves the next execution without reallocation. Between executions only.
func (n *Network) Reset() {
	n.state.Reset()
}

// exit returns the exit counter of the given logical output.
func (n *Network) exit(logical int) shmem.CASReg {
	return n.state.CASReg(len(n.bp.gates) + logical)
}

// Traverse sends one token in on the given input wire (0 ≤ in < width),
// records its exit, and returns the logical output index it left on plus
// the number of tokens that exited there before it.
func (n *Network) Traverse(p shmem.Proc, in int) (logical int, prior uint64) {
	if in < 0 || in >= n.bp.width {
		panic(fmt.Sprintf("countnet: input wire %d out of range", in))
	}
	wire := int32(in)
	for _, layer := range n.bp.layers {
		for _, g := range layer {
			if wire != g.a && wire != g.b {
				continue
			}
			if toggle(p, n.state.CASReg(int(g.bal))) {
				wire = g.a
			} else {
				wire = g.b
			}
			break
		}
	}
	logical = -1
	for l, phys := range n.bp.order {
		if int32(phys) == wire {
			logical = l
			break
		}
	}
	if logical < 0 {
		panic("countnet: token left on unknown wire")
	}
	for {
		c := n.exit(logical).Read(p)
		if n.exit(logical).CompareAndSwap(p, c, c+1) {
			return logical, c
		}
	}
}

// Next takes one counter value: the token traverses the network from a
// wire derived from the caller's coin, then claims a slot on its exit's
// counter. Values across all callers are distinct and — at quiescence —
// consecutive from 1.
func (n *Network) Next(p shmem.Proc) uint64 {
	in := int(p.Coin(uint64(n.bp.width)))
	logical, c := n.Traverse(p, in)
	return uint64(logical) + uint64(n.bp.width)*c + 1
}

// ExitCounts reads the per-logical-output exit counters (for the step
// property checks).
func (n *Network) ExitCounts(p shmem.Proc) []uint64 {
	out := make([]uint64, n.bp.width)
	for i := range out {
		out[i] = n.exit(i).Read(p)
	}
	return out
}
