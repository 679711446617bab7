package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/wire"
)

// WireError is a server-reported batch failure (deadline overrun, unknown
// opcode, malformed frame): the whole batch failed, but the connection
// stays usable.
type WireError struct {
	Seq  uint64
	Code uint16
	Msg  string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("netserve: server error %d on batch %d: %s", e.Code, e.Seq, e.Msg)
}

// ShedError is the server's admission control refusing a batch: a shard
// queue was full, or a queued op ran out of deadline budget before a slot
// freed (wire.EShed). It is RETRYABLE — the server never started the
// failing op, so resubmitting is always safe — and batch-scoped: the
// connection stays usable. Shed returns true (the marker the load harness
// keys on to count sheds separately from hard remote errors).
type ShedError struct {
	Seq uint64
	Msg string
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("netserve: batch %d shed by server admission control: %s", e.Seq, e.Msg)
}

// Shed marks the error as a retryable admission shed.
func (e *ShedError) Shed() bool { return true }

// DroppedError reports that the connection died with operations in flight:
// every op and batch still waiting gets one, wrapping the underlying cause
// — the typed error for the in-flight tail of a dropped connection.
type DroppedError struct{ Cause error }

func (e *DroppedError) Error() string {
	return fmt.Sprintf("netserve: connection dropped with operations in flight: %v", e.Cause)
}

func (e *DroppedError) Unwrap() error { return e.Cause }

// ErrClientClosed is the cause carried by DroppedError after Close.
var ErrClientClosed = errors.New("netserve: client closed")

// completer is one in-flight frame's continuation: a reply or a failure
// resolves it exactly once.
type completer interface {
	complete(f *wire.Frame) error // non-nil error poisons the connection
	fail(err error)
}

// Client is the pipelining wire client: many batches in flight per
// connection, correlated by sequence number out of one reader loop.
//
// Two surfaces:
//
//   - Do issues one operation and blocks for its value. Concurrent Do
//     callers are group-committed: whoever finds no flush in progress
//     becomes the leader and drains the shared queue into frames, so the
//     batch size adapts to the instantaneous concurrency — n workers
//     blocked on one syscall round trip become one n-op frame, which is
//     the whole economics of the wire tier.
//   - NewBatch builds an explicit batch; Send puts it on the wire without
//     waiting and Wait collects its values, so a caller can keep any
//     number of batches in flight (Commit = Send + Wait).
//
// A dropped connection fails every queued and in-flight operation with a
// *DroppedError; server-reported batch failures surface as *WireError.
type Client struct {
	conn       net.Conn
	readerDone chan struct{}

	wmu  sync.Mutex // serializes frame writes; guards seq and wbuf
	wbuf []byte
	seq  uint64

	pmu     sync.Mutex // guards pending and err
	pending map[uint64]completer
	err     error // terminal; all later sends fail fast

	qmu      sync.Mutex // guards q and flushing (the group-commit queue)
	q        []*waiter
	flushing bool

	maxBatch int
	deadline uint64 // per-frame budget for group-committed frames, ns

	// Tracing (SetTrace): with col set, every frame goes out traced — the
	// server echoes its stage decomposition on each reply — and frames
	// whose trace id the collector samples additionally record client-side
	// spans. col and tnode are set before the client is used concurrently.
	col   *obs.Collector
	tnode int // node attribution for client-side spans (-1 = none)

	// Cumulative stage sums over traced frames (load.StageSource).
	stFrames, stRTT, stSrv, stAdmit, stExec atomic.Uint64

	waiters sync.Pool
	groups  sync.Pool
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:       conn,
		readerDone: make(chan struct{}),
		pending:    map[uint64]completer{},
		maxBatch:   wire.MaxOps,
		tnode:      -1,
	}
	c.waiters.New = func() any { return &waiter{done: make(chan struct{}, 1)} }
	c.groups.New = func() any { return &groupFrame{c: c} }
	go c.readLoop()
	return c
}

// Dial connects to a wire server, retrying failed attempts with bounded
// exponential backoff (2ms doubling to 250ms) for up to wait. Cluster
// startup makes first-attempt failures routine — a freshly spawned node
// may still be compiling, binding, or behind its siblings — so a dial is
// a retry loop, not a single shot. The first attempt happens immediately;
// wait ≤ 0 degenerates to exactly one attempt. The last backoff is
// clipped to the remaining budget so Dial never overshoots wait by more
// than one attempt's connect time.
func Dial(addr string, wait time.Duration) (*Client, error) {
	deadline := time.Now().Add(wait)
	backoff := 2 * time.Millisecond
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return NewClient(conn), nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, err
		}
		if backoff > remaining {
			backoff = remaining
		}
		time.Sleep(backoff)
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}

// SetMaxBatch caps the ops per group-committed frame (default
// wire.MaxOps; the experiment knob behind the batch-size sweep).
func (c *Client) SetMaxBatch(n int) {
	if n < 1 {
		n = 1
	}
	if n > wire.MaxOps {
		n = wire.MaxOps
	}
	c.maxBatch = n
}

// SetOpDeadline propagates a per-frame processing budget on every
// group-committed frame (0 disables): a frame the server cannot finish
// within d fails typed (*WireError, EDeadline) instead of stretching the
// tail.
func (c *Client) SetOpDeadline(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.deadline = uint64(d)
}

// SetTrace arms end-to-end tracing: every subsequent frame carries a
// trace id drawn from col (wire.AppendBatchTraced), so the server echoes
// its per-frame stage decomposition — accumulated into Stages — and
// frames whose id the collector's sampling mask selects record
// client-side spans (obs.KindClientOp, or obs.KindSubBatch when the
// frame is a cluster sub-batch) into col. node attributes those spans
// to a cluster node; pass a negative node for standalone clients. Call
// before the client is used concurrently; col == nil disarms.
func (c *Client) SetTrace(col *obs.Collector, node int) {
	c.col = col
	c.tnode = node
}

// Stages returns the cumulative per-stage sums over this connection's
// traced frames (zero until SetTrace arms tracing). Implements
// load.StageSource, so RunRemote reports the per-run delta.
func (c *Client) Stages() load.Stages {
	return load.Stages{
		Frames:  c.stFrames.Load(),
		RTTNS:   c.stRTT.Load(),
		SrvNS:   c.stSrv.Load(),
		AdmitNS: c.stAdmit.Load(),
		ExecNS:  c.stExec.Load(),
	}
}

// noteReply folds one traced frame's completion into the stage sums and,
// when the frame was sampled, records its client-side span. Runs on the
// read loop — allocation-free by the same contract as the server's
// record path.
func (c *Client) noteReply(trace uint64, sampled bool, parent uint64, t0 int64, nops int, op wire.OpCode, f *wire.Frame) {
	rtt := time.Now().UnixNano() - t0
	if rtt < 0 {
		rtt = 0
	}
	c.stFrames.Add(1)
	c.stRTT.Add(uint64(rtt))
	if f.Staged {
		c.stSrv.Add(f.SrvNS)
		c.stAdmit.Add(f.AdmitNS)
		c.stExec.Add(f.ExecNS)
	}
	if !sampled || c.col == nil {
		return
	}
	kind, attr := obs.KindClientOp, obs.PackOp(uint8(op), 0, 0, c.tnode)
	if parent != 0 {
		kind, attr = obs.KindSubBatch, obs.PackOps(nops, c.tnode)
	}
	c.col.Record(obs.Span{
		Trace: trace, Parent: parent, Kind: kind,
		Start: t0, Dur: rtt, Attr: attr,
	})
}

// frameTrace draws the next frame's trace id (0 = untraced).
func (c *Client) frameTrace() (uint64, bool) {
	if c.col == nil {
		return 0, false
	}
	tr := c.col.NextTrace()
	return tr, c.col.Sampled(tr)
}

// Close tears the connection down: every queued and in-flight operation
// fails with *DroppedError wrapping ErrClientClosed.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	<-c.readerDone
	return nil
}

// waiter is one group-committed operation's parking slot (pooled; the
// done channel is buffered and reused).
type waiter struct {
	op   wire.Op
	val  uint64
	err  error
	done chan struct{}
}

// Do issues one operation and blocks for its value. Safe for any number
// of concurrent callers; see the type comment for the group-commit
// batching this rides on.
func (c *Client) Do(code wire.OpCode, arg uint64) (uint64, error) {
	w := c.waiters.Get().(*waiter)
	w.op = wire.Op{Code: code, Arg: arg}
	w.err = nil
	c.qmu.Lock()
	c.q = append(c.q, w)
	lead := !c.flushing
	if lead {
		c.flushing = true
	}
	c.qmu.Unlock()
	if lead {
		c.flushQueue()
	}
	<-w.done
	v, err := w.val, w.err
	c.waiters.Put(w)
	return v, err
}

// flushQueue drains the group-commit queue into frames until it observes
// the queue empty. Only one goroutine (the leader) runs it at a time; ops
// enqueued while a frame is being written ride the next frame — batch
// size tracks concurrency with no timers and no tuning.
func (c *Client) flushQueue() {
	var spare []*waiter
	for {
		c.qmu.Lock()
		q := c.q
		if len(q) == 0 {
			c.flushing = false
			c.qmu.Unlock()
			return
		}
		c.q = spare[:0]
		c.qmu.Unlock()

		for off := 0; off < len(q); {
			n := len(q) - off
			if n > c.maxBatch {
				n = c.maxBatch
			}
			chunk := q[off : off+n]
			off += n
			g := c.groups.Get().(*groupFrame)
			g.ws = append(g.ws[:0], chunk...)
			g.ops = g.ops[:0]
			for _, w := range chunk {
				g.ops = append(g.ops, w.op)
			}
			g.trace, g.sampled = c.frameTrace()
			if g.trace != 0 {
				g.t0 = time.Now().UnixNano()
			}
			if err := c.send(g, g.ops, c.deadline, g.trace, g.sampled); err != nil {
				// Pre-flight failure (connection already down): fail this
				// chunk and everything behind it directly.
				g.fail(err)
				for _, w := range q[off:] {
					w.err = err
					w.done <- struct{}{}
				}
				off = len(q)
			}
		}
		for i := range q {
			q[i] = nil
		}
		spare = q
	}
}

// groupFrame is the completer of one group-committed frame (pooled).
type groupFrame struct {
	c       *Client
	ws      []*waiter
	ops     []wire.Op
	trace   uint64
	sampled bool
	t0      int64
}

func (g *groupFrame) complete(f *wire.Frame) error {
	if f.Ops() != len(g.ws) {
		err := fmt.Errorf("netserve: reply carries %d values for a %d-op frame", f.Ops(), len(g.ws))
		g.fail(&DroppedError{Cause: err})
		return err
	}
	if g.trace != 0 {
		g.c.noteReply(g.trace, g.sampled, 0, g.t0, len(g.ops), g.ops[0].Code, f)
	}
	for i, w := range g.ws {
		w.val = f.Val(i)
		w.done <- struct{}{}
	}
	g.release()
	return nil
}

func (g *groupFrame) fail(err error) {
	for _, w := range g.ws {
		w.err = err
		w.done <- struct{}{}
	}
	g.release()
}

func (g *groupFrame) release() {
	for i := range g.ws {
		g.ws[i] = nil
	}
	g.c.groups.Put(g)
}

// Batch is an explicit operation batch. Build it with the op methods,
// then Commit (or Send now and Wait later — any number of batches may be
// in flight at once). A Batch is single-goroutine state and must not be
// reused until its Wait returned.
type Batch struct {
	c        *Client
	ops      []wire.Op
	vals     []uint64
	deadline uint64
	err      error
	done     chan struct{}

	// Trace context. trace/sampled are explicit (WithTrace — the cluster
	// client stamps one gather-wide trace on every sub-batch) or drawn
	// from the client's collector per Send; parent links this frame's
	// span under a caller-side root span (the cluster gather).
	trace   uint64
	sampled bool
	parent  uint64
	t0      int64
}

// NewBatch returns an empty batch bound to the client.
func (c *Client) NewBatch() *Batch {
	return &Batch{c: c, done: make(chan struct{}, 1)}
}

// Reset clears the batch's ops, deadline, and trace context for reuse.
func (b *Batch) Reset() *Batch {
	b.ops = b.ops[:0]
	b.deadline = 0
	b.trace, b.sampled, b.parent = 0, false, 0
	return b
}

// WithTrace stamps an explicit trace id on the batch's next Send (the
// cluster client propagates one gather-wide id to every sub-batch this
// way). Without it, a tracing client draws a fresh id per Send.
func (b *Batch) WithTrace(trace uint64, sampled bool) *Batch {
	b.trace, b.sampled = trace, sampled
	return b
}

// WithSpanParent parents the batch's client-side span under a caller
// span (the cluster gather root); the span is then recorded as
// obs.KindSubBatch instead of obs.KindClientOp.
func (b *Batch) WithSpanParent(parent uint64) *Batch {
	b.parent = parent
	return b
}

// WithDeadline sets the batch's server-side processing budget (see
// Client.SetOpDeadline).
func (b *Batch) WithDeadline(d time.Duration) *Batch {
	if d > 0 {
		b.deadline = uint64(d)
	}
	return b
}

// Add appends one raw operation.
func (b *Batch) Add(code wire.OpCode, arg uint64) *Batch {
	b.ops = append(b.ops, wire.Op{Code: code, Arg: arg})
	return b
}

// Rename appends a rename routed by key.
func (b *Batch) Rename(key uint64) *Batch { return b.Add(wire.OpRename, key) }

// Inc appends a pooled-counter increment routed by key.
func (b *Batch) Inc(key uint64) *Batch { return b.Add(wire.OpInc, key) }

// Read appends a pooled-counter read routed by key.
func (b *Batch) Read(key uint64) *Batch { return b.Add(wire.OpRead, key) }

// Wave appends a k-process execution wave.
func (b *Batch) Wave(k int) *Batch { return b.Add(wire.OpWave, uint64(k)) }

// PhasedInc appends an increment of the shared phased counter.
func (b *Batch) PhasedInc() *Batch { return b.Add(wire.OpPhasedInc, 0) }

// PhasedRead appends a fast read of the shared phased counter.
func (b *Batch) PhasedRead() *Batch { return b.Add(wire.OpPhasedRead, 0) }

// PhasedReadStrict appends a reconciling read of the shared phased counter.
func (b *Batch) PhasedReadStrict() *Batch { return b.Add(wire.OpPhasedReadStrict, 0) }

// Len returns the number of ops in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Send puts the batch on the wire without waiting for the reply. An error
// here means the batch never left (client closed); once Send returns nil,
// the outcome — values or a typed failure — is delivered through Wait.
func (b *Batch) Send() error {
	if len(b.ops) == 0 {
		return errors.New("netserve: empty batch")
	}
	if b.trace == 0 {
		b.trace, b.sampled = b.c.frameTrace()
	}
	if b.trace != 0 {
		b.t0 = time.Now().UnixNano()
	}
	return b.c.send(b, b.ops, b.deadline, b.trace, b.sampled)
}

// Wait blocks for the batch's reply and returns one value per op. The
// slice is owned by the batch and valid until its next use.
func (b *Batch) Wait() ([]uint64, error) {
	<-b.done
	if b.err != nil {
		err := b.err
		b.err = nil
		return nil, err
	}
	return b.vals, nil
}

// Commit sends the batch and waits for its values.
func (b *Batch) Commit() ([]uint64, error) {
	if err := b.Send(); err != nil {
		return nil, err
	}
	return b.Wait()
}

func (b *Batch) complete(f *wire.Frame) error {
	if f.Ops() != len(b.ops) {
		err := fmt.Errorf("netserve: reply carries %d values for a %d-op batch", f.Ops(), len(b.ops))
		b.fail(&DroppedError{Cause: err})
		return err
	}
	if b.trace != 0 {
		b.c.noteReply(b.trace, b.sampled, b.parent, b.t0, len(b.ops), b.ops[0].Code, f)
	}
	b.vals = b.vals[:0]
	for i := 0; i < f.Ops(); i++ {
		b.vals = append(b.vals, f.Val(i))
	}
	b.done <- struct{}{}
	return nil
}

func (b *Batch) fail(err error) {
	b.err = err
	b.done <- struct{}{}
}

// send registers entry under a fresh sequence number and writes one frame.
// The write is one syscall per frame — the frame is the batch, so the
// syscall cost is amortized exactly by the batch size.
func (c *Client) send(entry completer, ops []wire.Op, deadline uint64, trace uint64, sampled bool) error {
	c.wmu.Lock()
	c.seq++
	seq := c.seq
	c.pmu.Lock()
	if c.err != nil {
		err := c.err
		c.pmu.Unlock()
		c.wmu.Unlock()
		return err
	}
	c.pending[seq] = entry
	c.pmu.Unlock()
	if trace != 0 {
		c.wbuf = wire.AppendBatchTraced(c.wbuf[:0], seq, deadline, ops, trace, sampled)
	} else {
		c.wbuf = wire.AppendBatch(c.wbuf[:0], seq, deadline, ops)
	}
	_, werr := c.conn.Write(c.wbuf)
	c.wmu.Unlock()
	if werr != nil {
		c.fail(werr)
	}
	return nil
}

// take removes and returns the completer registered under seq.
func (c *Client) take(seq uint64) completer {
	c.pmu.Lock()
	e := c.pending[seq]
	delete(c.pending, seq)
	c.pmu.Unlock()
	return e
}

// fail is the terminal path: record the first cause, close the
// connection, and fail every in-flight entry with the typed drop error.
func (c *Client) fail(cause error) {
	c.pmu.Lock()
	if c.err == nil {
		if d, ok := cause.(*DroppedError); ok {
			c.err = d
		} else {
			c.err = &DroppedError{Cause: cause}
		}
	}
	err := c.err
	var entries []completer
	for seq, e := range c.pending {
		entries = append(entries, e)
		delete(c.pending, seq)
	}
	c.pmu.Unlock()
	c.conn.Close()
	for _, e := range entries {
		e.fail(err)
	}
}

// readLoop is the single reader: it matches every incoming frame to its
// in-flight entry by sequence number.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	r := bufio.NewReaderSize(c.conn, 128<<10)
	var buf []byte
	// One frame variable for the loop's lifetime: its address goes through
	// the completer interface below, so a loop-local would escape and cost
	// one heap allocation per reply frame (the cluster scatter-gather
	// 0-alloc pin catches exactly this).
	var f wire.Frame
	for {
		payload, err := wire.ReadFrame(r, buf)
		if err != nil {
			c.fail(err)
			return
		}
		buf = payload
		f, err = wire.Parse(payload)
		if err != nil {
			c.fail(err)
			return
		}
		switch f.Type {
		case wire.TReply:
			e := c.take(f.Seq)
			if e == nil {
				c.fail(fmt.Errorf("netserve: reply for unknown batch %d", f.Seq))
				return
			}
			if err := e.complete(&f); err != nil {
				c.fail(err)
				return
			}
		case wire.TError:
			var werr error = &WireError{Seq: f.Seq, Code: f.Code, Msg: string(f.Msg)}
			if f.Code == wire.EShed {
				// Admission shed: typed separately because it is the one
				// retryable batch failure (the server started nothing).
				werr = &ShedError{Seq: f.Seq, Msg: string(f.Msg)}
			}
			if f.Seq == 0 {
				// Connection-level error: the server could not attribute it
				// to a batch, so no batch on this connection can complete.
				c.fail(werr)
				return
			}
			if e := c.take(f.Seq); e != nil {
				e.fail(werr)
			}
		default:
			c.fail(fmt.Errorf("netserve: unexpected frame type %#x", f.Type))
			return
		}
	}
}

// Op implements load.Remote: the workload harness's generators drive the
// wire path through this adapter with their scheduling and latency
// accounting unchanged. One server owns every key, so key is unused.
func (c *Client) Op(code wire.OpCode, _, arg uint64) (uint64, error) {
	return c.Do(code, arg)
}

var (
	_ load.Remote      = (*Client)(nil)
	_ load.StageSource = (*Client)(nil)
)
