package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/load"
	"repro/internal/netserve"
	"repro/internal/obs"
	"repro/internal/wire"
)

// NodeError scopes a failure to one node of the ring: which node, where it
// lives, and which slice of the cluster name space just became
// unreachable. It wraps the underlying cause (a *netserve.DroppedError for
// a dead connection, a *netserve.ShedError for an admission shed, a dial
// error at startup), so errors.As and load.IsShed see through it.
type NodeError struct {
	Node Node
	Err  error
}

func (e *NodeError) Error() string {
	return fmt.Sprintf("cluster: node %d (%s, names %s): %v", e.Node.ID, e.Node.Addr, e.Node.Range(), e.Err)
}

func (e *NodeError) Unwrap() error { return e.Err }

// Client is the cluster-side of the tier: one pipelined wire client per
// ring node, a router in front of them, and a scatter-gather batch surface
// on top. Routing and reply offsetting are client-side arithmetic — the
// nodes never hear about each other — so the cluster adds no round trips
// over the single-node tier: a mixed batch costs one pipelined frame per
// touched node, all in flight concurrently.
type Client struct {
	ring  *Ring
	conns []*netserve.Client
	col   *obs.Collector // SetTrace; nil = tracing off
}

// Dial connects to every node of the ring. Each node's dial retries with
// netserve.Dial's bounded backoff for up to wait; a node that stays down
// fails the whole Dial with a *NodeError naming the unreachable node and
// its name range (a partially-connected router would silently black-hole
// a slice of the key space — better to fail loudly at startup).
func Dial(ring *Ring, wait time.Duration) (*Client, error) {
	c := &Client{ring: ring, conns: make([]*netserve.Client, ring.Len())}
	for i, n := range ring.nodes {
		cc, err := netserve.Dial(n.Addr, wait)
		if err != nil {
			c.Close()
			return nil, &NodeError{Node: n, Err: err}
		}
		c.conns[i] = cc
	}
	return c, nil
}

// NewClientConns assembles a Client over already-established per-node wire
// clients (tests and embedders; conns[i] must serve ring node i).
func NewClientConns(ring *Ring, conns []*netserve.Client) (*Client, error) {
	if len(conns) != ring.Len() {
		return nil, fmt.Errorf("cluster: %d conns for a %d-node ring", len(conns), ring.Len())
	}
	return &Client{ring: ring, conns: conns}, nil
}

// Ring returns the routing table the client was built over.
func (c *Client) Ring() *Ring { return c.ring }

// Close closes every node connection (in-flight operations fail with their
// node's *netserve.DroppedError).
func (c *Client) Close() error {
	for _, cc := range c.conns {
		if cc != nil {
			cc.Close()
		}
	}
	return nil
}

// SetOpDeadline propagates a per-frame processing budget to every node
// connection's group-committed frames (see netserve.Client.SetOpDeadline);
// with server-side admission control armed, the budget also bounds how
// long a queued op may wait before it is shed.
func (c *Client) SetOpDeadline(d time.Duration) {
	for _, cc := range c.conns {
		cc.SetOpDeadline(d)
	}
}

// SetTrace arms end-to-end tracing on every node connection, sharing one
// collector: each sub-frame carries a trace id, node replies echo their
// stage decomposition, and sampled scatter-gather batches record a
// cluster-side span tree — one obs.KindGather root per batch with one
// obs.KindSubBatch child per touched node, node-attributed by ring id,
// linked by trace to the server-side frame and op spans each node records
// locally. Call before the client is used concurrently.
func (c *Client) SetTrace(col *obs.Collector) {
	c.col = col
	for i, cc := range c.conns {
		cc.SetTrace(col, c.ring.nodes[i].ID)
	}
}

// Stages sums the per-stage round-trip decomposition over every node
// connection (load.StageSource; zero until SetTrace arms tracing).
func (c *Client) Stages() load.Stages {
	var st load.Stages
	for _, cc := range c.conns {
		s := cc.Stages()
		st.Frames += s.Frames
		st.RTTNS += s.RTTNS
		st.SrvNS += s.SrvNS
		st.AdmitNS += s.AdmitNS
		st.ExecNS += s.ExecNS
	}
	return st
}

// Do issues one operation routed by key and blocks for its value. Rename
// replies come back offset into the owning node's range — the cluster-wide
// name. Failures carry the node: a *NodeError wrapping the wire client's
// typed error.
func (c *Client) Do(code wire.OpCode, key, arg uint64) (uint64, error) {
	n := c.ring.Route(key)
	v, err := c.conns[n].Do(code, arg)
	if err != nil {
		return 0, &NodeError{Node: c.ring.nodes[n], Err: err}
	}
	if code == wire.OpRename {
		v += c.ring.nodes[n].Base
	}
	return v, nil
}

// slot records where one batch op was scattered to, so gather can
// reassemble replies in caller order: the node, the index within that
// node's sub-batch, and the opcode (rename replies get the node's offset).
type slot struct {
	node int32
	idx  int32
	code wire.OpCode
}

// Batch is a scatter-gather operation batch: ops accumulate per-node as
// they are added (the scatter is the Add, not a separate pass), Send puts
// every non-empty sub-batch on its node's pipelined connection without
// waiting, and Wait reassembles the replies in the order the ops were
// added. The fan-out is concurrent by construction — all sub-frames are in
// flight before the first Wait — so a mixed batch costs ~the slowest
// node's round trip, not the sum.
//
// Failures are per-node: a dead or shedding node fails only the ops routed
// to it (their value slots read zero); every other node's replies are
// delivered. Wait returns the first failing node's *NodeError; OpErr
// exposes per-op attribution.
//
// A Batch is single-goroutine state, reusable via Reset after Wait
// returned; the steady-state Add/Send/Wait cycle performs zero
// allocations (pinned by TestClusterBatchAllocationFree).
type Batch struct {
	c        *Client
	subs     []*netserve.Batch
	sent     []bool
	errs     []error
	nvals    [][]uint64
	order    []slot
	vals     []uint64
	deadline time.Duration

	// Per-gather trace context (client tracing armed): one trace id spans
	// every sub-batch; gather is the root span id the sub-batch spans
	// parent under when the id is sampled.
	trace   uint64
	sampled bool
	gather  uint64
	t0      int64
}

// NewBatch returns an empty scatter-gather batch bound to the client.
func (c *Client) NewBatch() *Batch {
	b := &Batch{
		c:     c,
		subs:  make([]*netserve.Batch, len(c.conns)),
		sent:  make([]bool, len(c.conns)),
		errs:  make([]error, len(c.conns)),
		nvals: make([][]uint64, len(c.conns)),
	}
	for i, cc := range c.conns {
		b.subs[i] = cc.NewBatch()
	}
	return b
}

// Reset clears the batch for reuse (only after Wait returned).
func (b *Batch) Reset() *Batch {
	for i := range b.subs {
		b.subs[i].Reset()
		b.sent[i] = false
		b.errs[i] = nil
		b.nvals[i] = nil
	}
	b.order = b.order[:0]
	b.deadline = 0
	return b
}

// WithDeadline sets the server-side processing budget carried by every
// sub-batch (see netserve.Batch.WithDeadline).
func (b *Batch) WithDeadline(d time.Duration) *Batch {
	b.deadline = d
	return b
}

// Add appends one raw operation routed by key (the per-op kinds pass the
// key as the wire argument too; Wave and the phased verbs split them).
func (b *Batch) Add(code wire.OpCode, key, arg uint64) *Batch {
	n := b.c.ring.Route(key)
	sub := b.subs[n]
	b.order = append(b.order, slot{node: int32(n), idx: int32(sub.Len()), code: code})
	sub.Add(code, arg)
	return b
}

// Rename appends a rename routed by key; its reply is the cluster-wide
// name (node-local name offset by the owning node's range base).
func (b *Batch) Rename(key uint64) *Batch { return b.Add(wire.OpRename, key, key) }

// Inc appends a pooled-counter increment routed by key.
func (b *Batch) Inc(key uint64) *Batch { return b.Add(wire.OpInc, key, key) }

// Read appends a pooled-counter read routed by key.
func (b *Batch) Read(key uint64) *Batch { return b.Add(wire.OpRead, key, key) }

// Wave appends a k-process execution wave on the node owning key.
func (b *Batch) Wave(key uint64, k int) *Batch { return b.Add(wire.OpWave, key, uint64(k)) }

// Len returns the number of ops in the batch.
func (b *Batch) Len() int { return len(b.order) }

// Send scatters the batch: every non-empty sub-batch goes on its node's
// pipelined connection, none waited on. A node whose connection is already
// down records its *NodeError for Wait and does not stop the others.
func (b *Batch) Send() error {
	if len(b.order) == 0 {
		return errors.New("cluster: empty batch")
	}
	b.trace, b.sampled, b.gather = 0, false, 0
	if col := b.c.col; col != nil {
		b.trace = col.NextTrace()
		b.sampled = col.Sampled(b.trace)
		if b.sampled {
			b.gather = col.NextID()
		}
		b.t0 = time.Now().UnixNano()
	}
	for i, sub := range b.subs {
		if sub.Len() == 0 {
			continue
		}
		if b.deadline > 0 {
			sub.WithDeadline(b.deadline)
		}
		if b.trace != 0 {
			sub.WithTrace(b.trace, b.sampled).WithSpanParent(b.gather)
		}
		if err := sub.Send(); err != nil {
			b.errs[i] = &NodeError{Node: b.c.ring.nodes[i], Err: err}
			continue
		}
		b.sent[i] = true
	}
	return nil
}

// Wait gathers the scattered replies and returns one value per op, in Add
// order, rename replies offset into their node's range. If any node
// failed, its ops' value slots read zero and the error is the first such
// node's *NodeError (per-op attribution via OpErr); the other nodes'
// values are still delivered and valid.
func (b *Batch) Wait() ([]uint64, error) {
	var first error
	for i, sub := range b.subs {
		if !b.sent[i] {
			if b.errs[i] != nil && first == nil {
				first = b.errs[i]
			}
			continue
		}
		b.sent[i] = false
		vals, err := sub.Wait()
		if err != nil {
			b.errs[i] = &NodeError{Node: b.c.ring.nodes[i], Err: err}
			if first == nil {
				first = b.errs[i]
			}
			continue
		}
		b.nvals[i] = vals
	}
	b.vals = b.vals[:0]
	for _, s := range b.order {
		if b.errs[s.node] != nil {
			b.vals = append(b.vals, 0)
			continue
		}
		v := b.nvals[s.node][s.idx]
		if s.code == wire.OpRename {
			v += b.c.ring.nodes[s.node].Base
		}
		b.vals = append(b.vals, v)
	}
	if b.sampled && b.c.col != nil {
		// The gather root: scatter to last sub-reply, with the sub-batch
		// spans (recorded on each connection's read loop) as children.
		b.c.col.Record(obs.Span{
			Trace: b.trace, ID: b.gather, Kind: obs.KindGather,
			Start: b.t0, Dur: time.Now().UnixNano() - b.t0,
			Attr: obs.PackOps(len(b.order), -1),
		})
	}
	return b.vals, first
}

// Commit sends the batch and waits for its values.
func (b *Batch) Commit() ([]uint64, error) {
	if err := b.Send(); err != nil {
		return nil, err
	}
	return b.Wait()
}

// OpErr returns the failure of op i (nil when its node's sub-batch
// succeeded). Valid after Wait returned, until Reset.
func (b *Batch) OpErr(i int) error {
	return b.errs[b.order[i].node]
}

// Op implements load.Remote: the workload harness's generators drive the
// cluster through the same adapter surface as the single-node wire client,
// with routing by the generator's key and rename replies offset to
// cluster-wide names. Reports carry Transport "cluster" (TransportName).
func (c *Client) Op(code wire.OpCode, key, arg uint64) (uint64, error) {
	return c.Do(code, key, arg)
}

// TransportName labels cluster runs in load reports.
func (c *Client) TransportName() string { return "cluster" }

var (
	_ load.Remote      = (*Client)(nil)
	_ load.Namer       = (*Client)(nil)
	_ load.StageSource = (*Client)(nil)
)
