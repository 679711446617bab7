// Package cluster is the horizontal tier over the networked serving
// layer: N independent renameserve nodes, each owning a disjoint slice of
// the cluster name space, stitched together by a client-side router — no
// inter-node coordination, no proxy hop.
//
// The design transplants the paper's resource-bounded renaming view onto
// machines: a tight renaming instance need not be global, it only needs a
// collision-free map into a bounded range. Each node runs the unmodified
// single-node tier against its own pools and hands out names in [0, Span);
// the router offsets every rename reply by the node's Base, so cluster
// names are globally unique by construction — range disjointness is
// checked once, at ring build time, instead of being negotiated per
// operation.
//
// Routing is a consistent jump hash (Lamping–Veach) over the mixed
// operation key: deterministic (any client computes the same placement
// from the same ring file), uniform (the SplitMix64 finalizer decorrelates
// adjacent keys before bucketing), and stable under growth (adding a node
// moves only ~1/n of the keys). The ring is static configuration — a text
// file listing id/addr/base/span per node — because a fixed fleet is the
// regime the benchmarks measure; membership churn is out of scope here.
package cluster

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Node is one serving node of a ring: its position, wire address, and the
// half-open cluster name range [Base, Base+Span) it owns.
type Node struct {
	ID   int
	Addr string
	Base uint64
	Span uint64
}

// Range formats the node's name range for error messages and logs.
func (n Node) Range() string {
	return fmt.Sprintf("[%d,%d)", n.Base, n.Base+n.Span)
}

// Ring is an immutable routing table over a fixed node set. Build one with
// New (uniform ranges), Parse, or Load (ring files); Route maps operation
// keys to node indices.
type Ring struct {
	nodes []Node
}

// New builds a ring of the given addresses with uniform disjoint ranges:
// node i owns [i*span, (i+1)*span).
func New(addrs []string, span uint64) (*Ring, error) {
	nodes := make([]Node, len(addrs))
	for i, addr := range addrs {
		nodes[i] = Node{ID: i, Addr: addr, Base: uint64(i) * span, Span: span}
	}
	return build(nodes)
}

// Parse reads a ring from its text form: one node per line as
// "id addr base span", with '#' comments and blank lines ignored. Node ids
// must be 0..n-1 in order (the file is the authoritative enumeration — a
// gap or permutation is a config error, not a preference).
func Parse(text string) (*Ring, error) {
	var nodes []Node
	sc := bufio.NewScanner(strings.NewReader(text))
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("cluster: ring line %d: want \"id addr base span\", got %q", lineno, line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil || id != len(nodes) {
			return nil, fmt.Errorf("cluster: ring line %d: node ids must be 0..n-1 in order (got %q, want %d)", lineno, fields[0], len(nodes))
		}
		base, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: ring line %d: bad base %q", lineno, fields[2])
		}
		span, err := strconv.ParseUint(fields[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: ring line %d: bad span %q", lineno, fields[3])
		}
		nodes = append(nodes, Node{ID: id, Addr: fields[1], Base: base, Span: span})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: reading ring: %w", err)
	}
	return build(nodes)
}

// Load reads a ring file (the Parse format).
func Load(path string) (*Ring, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	r, err := Parse(string(b))
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return r, nil
}

// build validates the node set: at least one node, non-empty addresses,
// positive spans, no Base+Span overflow, and pairwise-disjoint ranges —
// the invariant the rename-offset scheme's global uniqueness rests on.
func build(nodes []Node) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring has no nodes")
	}
	for _, n := range nodes {
		if n.Addr == "" {
			return nil, fmt.Errorf("cluster: node %d has no address", n.ID)
		}
		if n.Span == 0 {
			return nil, fmt.Errorf("cluster: node %d has an empty name range", n.ID)
		}
		if n.Base+n.Span < n.Base {
			return nil, fmt.Errorf("cluster: node %d range %s overflows", n.ID, n.Range())
		}
	}
	// Disjointness: O(n²) over a config-file-sized set beats sorting a copy.
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			if a.Base < b.Base+b.Span && b.Base < a.Base+a.Span {
				return nil, fmt.Errorf("cluster: nodes %d and %d have overlapping name ranges %s and %s",
					a.ID, b.ID, a.Range(), b.Range())
			}
		}
	}
	return &Ring{nodes: nodes}, nil
}

// Len returns the number of nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the ring's nodes (a copy; the ring is immutable).
func (r *Ring) Nodes() []Node {
	return append([]Node(nil), r.nodes...)
}

// Node returns node i.
func (r *Ring) Node(i int) Node { return r.nodes[i] }

// Route maps an operation key to its owning node index. The key is mixed
// through the SplitMix64 finalizer first — callers use small dense keys
// (tenant ids, loop counters), and the jump hash needs uniform input — and
// then bucketed with Lamping–Veach jump consistent hashing, so the
// placement is deterministic across processes and moves only ~1/n of keys
// when a node is appended.
func (r *Ring) Route(key uint64) int {
	return jump(rng.Mix64(key), len(r.nodes))
}

// Format renders the ring in the Parse format (what renameserve -ring
// consumed; handy for generating fixture files).
func (r *Ring) Format() string {
	var b strings.Builder
	b.WriteString("# cluster ring: id addr base span\n")
	for _, n := range r.nodes {
		fmt.Fprintf(&b, "%d %s %d %d\n", n.ID, n.Addr, n.Base, n.Span)
	}
	return b.String()
}

// jump is Lamping–Veach jump consistent hashing: O(log n) expected time,
// no table, and appending a bucket reassigns exactly the keys that move to
// it.
func jump(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}
