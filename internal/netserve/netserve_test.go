package netserve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/allocs"
	"repro/internal/load"
	"repro/internal/phase"
	"repro/internal/wire"
)

// newTestServer starts a server on a loopback ":0" listener.
func newTestServer(t *testing.T) *Server {
	t.Helper()
	srv, err := ListenAndServe("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dialTest(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitInFlightZero polls the served pools until no instance is checked out.
func waitInFlightZero(t *testing.T, srv *Server) {
	t.Helper()
	tg := srv.Target()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tg.Rename.InFlight() == 0 && tg.Wave.InFlight() == 0 && tg.Phased.InFlight() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool instances leaked: rename=%d wave=%d phased=%d",
				tg.Rename.InFlight(), tg.Wave.InFlight(), tg.Phased.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWireRoundTrip(t *testing.T) {
	srv := newTestServer(t)
	c := dialTest(t, srv)

	name, err := c.Do(wire.OpRename, 7)
	if err != nil {
		t.Fatalf("rename: %v", err)
	}
	if name == 0 {
		t.Fatalf("rename returned name 0")
	}
	if k, err := c.Do(wire.OpWave, 8); err != nil || k != 8 {
		t.Fatalf("wave: k=%d err=%v", k, err)
	}
	if _, err := c.Do(wire.OpPhasedInc, 0); err != nil {
		t.Fatalf("phased inc: %v", err)
	}
	v, err := c.Do(wire.OpPhasedReadStrict, 0)
	if err != nil {
		t.Fatalf("phased read strict: %v", err)
	}
	if v != 1 {
		t.Fatalf("phased strict read = %d after one inc, want 1", v)
	}

	// An explicit batch: send, wait, values in op order. Every phased op
	// hits the one shared counter, which holds the inc above, and a read
	// after sequential incs returns exactly their count.
	b := c.NewBatch().PhasedInc().PhasedInc().PhasedRead().PhasedReadStrict()
	vals, err := b.Commit()
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if fmt.Sprint(vals) != "[0 0 3 3]" {
		t.Fatalf("batch values %v, want [0 0 3 3]", vals)
	}
	waitInFlightZero(t, srv)
}

// TestServeFrameAllocationFree pins the steady-state server request
// path — decode a batch, run its ops against the pools, encode the reply —
// by exact allocation counts over 100,000 frames after as many warm ones.
// (The renamer's Reset asserts shmem.Resettable at two call sites, and
// the Go runtime builds a site's type-assertion cache lazily, on about
// one call in 1,024, so a fresh server allocated 0 to 12 times in all
// over its first 50,000 frames in 16 runs, and never after.) Rename and
// the phased reads allocate nothing. A phased increment allocates when its
// AAC spine's unbounded max registers grow, which they do per unit of
// count, not per walk: about 0.31 times and 273 B per increment over the
// counts 100,000 to 200,000 on the 8-lane pool pinned here, with
// registers padded for a 2-vCPU box (less unpadded), whether each
// increment walks the spine or a run of two shares one walk. The
// phased-inc frame carries such a run, so it is counted over 50,000 frames
// after as many warm ones: the same counts. Its bounds sit about 1.5×
// above. Waves are excluded (they spawn goroutines by design).
func TestServeFrameAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		ops                  []wire.Op
		frames               int
		maxMallocs, maxBytes uint64
	}{
		{"rename-reads", []wire.Op{
			{Code: wire.OpRename, Arg: 11},
			{Code: wire.OpPhasedRead},
			{Code: wire.OpPhasedReadStrict},
		}, 100_000, 0, 0},
		{"phased-inc", []wire.Op{
			{Code: wire.OpRename, Arg: 11},
			{Code: wire.OpPhasedInc},
			{Code: wire.OpPhasedInc},
			{Code: wire.OpPhasedRead},
		}, 50_000, 47_000, 34_000_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The lane count sets the spine's shape, so it is pinned rather
			// than taken from the box's GOMAXPROCS.
			tg := load.NewTarget(1)
			tg.Phased = phase.NewPool(phase.Options{Lanes: 8, Seed: 3})
			srv, err := ListenAndServe("127.0.0.1:0", tg)
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			t.Cleanup(func() { srv.Close() })
			ss := srv.newSession()
			payload := wire.AppendBatch(nil, 1, 0, tc.ops)[4:]
			serve := func() { ss.out = ss.serveFrame(payload, ss.out[:0]) }

			// Warm the pools (first checkout per shard instantiates) and the
			// session buffers, then count.
			for range tc.frames {
				serve()
			}
			n, b := allocs.Count(tc.frames, serve)
			t.Logf("%d frames: %d allocations, %d B", tc.frames, n, b)
			if n > tc.maxMallocs || b > tc.maxBytes {
				t.Fatalf("%d frames made %d allocations and %d B, want at most %d and %d B",
					tc.frames, n, b, tc.maxMallocs, tc.maxBytes)
			}
			f, err := wire.Parse(ss.out[4:])
			if err != nil || f.Type != wire.TReply || f.Ops() != len(tc.ops) {
				t.Fatalf("reply malformed after counted runs: type=%#x ops=%d err=%v", f.Type, f.Ops(), err)
			}
		})
	}
}

// TestReadFramePathAllocationFree pins the read side of the server loop:
// reading a frame into the session's reusable buffer allocates nothing
// once the buffer has grown.
func TestReadFramePathAllocationFree(t *testing.T) {
	frame := wire.AppendBatch(nil, 1, 0, []wire.Op{{Code: wire.OpPhasedRead}})
	stream := make([]byte, 0, 1100*len(frame))
	for i := 0; i < 1100; i++ {
		stream = append(stream, frame...)
	}
	r := strings.NewReader(string(stream))
	buf := make([]byte, 0, wire.MaxFrame)
	allocs := testing.AllocsPerRun(1000, func() {
		p, err := wire.ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		buf = p
	})
	if allocs != 0 {
		t.Fatalf("ReadFrame allocates %.1f times per frame, want 0", allocs)
	}
}

// TestOversizedFrameRejectedBeforeAllocation sends a frame declaring a
// length beyond the cap: the server must answer with a terminal ETooLarge
// error frame and drop the connection — without ever allocating for the
// declared length (pinned on the codec side by the wire tests).
func TestOversizedFrameRejected(t *testing.T) {
	srv := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0x7f, 0x00, 0x00}); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatalf("no error frame before drop: %v", err)
	}
	f, err := wire.Parse(payload)
	if err != nil || f.Type != wire.TError || f.Code != wire.ETooLarge || f.Seq != 0 {
		t.Fatalf("want connection-level ETooLarge frame, got type=%#x code=%d seq=%d err=%v",
			f.Type, f.Code, f.Seq, err)
	}
	// And then the drop.
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection still open after protocol violation: %v", err)
	}
}

// TestPartialReads feeds the server a valid batch one byte at a time: the
// framing must reassemble it and serve it exactly as a single write.
func TestPartialReads(t *testing.T) {
	srv := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	frame := wire.AppendBatch(nil, 42, 0, []wire.Op{
		{Code: wire.OpPhasedInc},
		{Code: wire.OpPhasedReadStrict},
	})
	for i := range frame {
		if _, err := conn.Write(frame[i : i+1]); err != nil {
			t.Fatalf("write byte %d: %v", i, err)
		}
		if i%7 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	f, err := wire.Parse(payload)
	if err != nil || f.Type != wire.TReply || f.Seq != 42 || f.Ops() != 2 {
		t.Fatalf("bad reply: type=%#x seq=%d ops=%d err=%v", f.Type, f.Seq, f.Ops(), err)
	}
	if f.Val(1) != 1 {
		t.Fatalf("strict read after one inc returned %d, want 1", f.Val(1))
	}
	waitInFlightZero(t, srv)
}

// TestConnDropMidBatch cuts the connection after half a frame: the server
// must drop the session without leaking any checked-out pool instance.
func TestConnDropMidBatch(t *testing.T) {
	srv := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	// One complete frame (so instances actually cycle through checkout),
	// then half of a second one, then the drop.
	whole := wire.AppendBatch(nil, 1, 0, []wire.Op{{Code: wire.OpRename, Arg: 5}, {Code: wire.OpPhasedInc}})
	half := wire.AppendBatch(nil, 2, 0, []wire.Op{{Code: wire.OpRename, Arg: 5}})
	conn.Write(whole)
	conn.Write(half[:len(half)-4])
	// The reply to the whole frame may sit unflushed (the half frame keeps
	// the coalescing condition from firing), so sync on the served-frame
	// counter, not the reply.
	deadline := time.Now().Add(2 * time.Second)
	for srv.frames.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("first frame never served")
		}
		time.Sleep(time.Millisecond)
	}
	conn.Close()

	waitInFlightZero(t, srv)
	if got := srv.frames.Load(); got != 1 {
		t.Fatalf("served %d frames, want exactly the complete one", got)
	}
}

// TestClientDroppedError drops the server side of the connection with a
// batch in flight: every waiting operation must fail with the typed
// *DroppedError, and later operations must fail fast with the same type.
func TestClientDroppedError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()

	c, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	srvConn := <-accepted

	// Put a batch in flight (the fake server will never reply), then cut.
	b := c.NewBatch().Rename(1).PhasedInc()
	if err := b.Send(); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Make sure the frame left before cutting, so this exercises the
	// in-flight tail, not the send path.
	io.ReadFull(srvConn, make([]byte, 4))
	srvConn.Close()

	_, err = b.Wait()
	var dropped *DroppedError
	if !errors.As(err, &dropped) {
		t.Fatalf("in-flight batch failed with %T (%v), want *DroppedError", err, err)
	}

	// The client is now terminal: a fresh op fails with the same typed
	// error instead of hanging.
	if _, err := c.Do(wire.OpPhasedRead, 0); !errors.As(err, &dropped) {
		t.Fatalf("post-drop op failed with %T (%v), want *DroppedError", err, err)
	}
}

// TestCloseFailsInFlight pins Close's contract: pending operations fail
// with *DroppedError wrapping ErrClientClosed.
func TestCloseFailsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Swallow the request and hold the connection open.
		io.Copy(io.Discard, conn)
	}()

	c, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	b := c.NewBatch().Rename(1)
	if err := b.Send(); err != nil {
		t.Fatalf("send: %v", err)
	}
	c.Close()
	_, err = b.Wait()
	if !errors.Is(err, ErrClientClosed) {
		t.Fatalf("batch after Close failed with %v, want ErrClientClosed cause", err)
	}
	var dropped *DroppedError
	if !errors.As(err, &dropped) {
		t.Fatalf("batch after Close failed with %T, want *DroppedError", err)
	}
}

// TestDeadlineExceededMidBatch sends a multi-op batch with a 1ns budget:
// the server must fail it typed (EDeadline) rather than run it to the end.
func TestDeadlineExceededMidBatch(t *testing.T) {
	srv := newTestServer(t)
	c := dialTest(t, srv)

	b := c.NewBatch().WithDeadline(1).Wave(8).Wave(8).Wave(8)
	_, err := b.Commit()
	var werr *WireError
	if !errors.As(err, &werr) {
		t.Fatalf("overrun batch failed with %T (%v), want *WireError", err, err)
	}
	if werr.Code != wire.EDeadline {
		t.Fatalf("error code %d, want EDeadline", werr.Code)
	}

	// The connection survives a batch-level error: the next op works.
	if _, err := c.Do(wire.OpPhasedRead, 0); err != nil {
		t.Fatalf("connection dead after batch error: %v", err)
	}
	waitInFlightZero(t, srv)
}

// TestUnknownOpcode pins the typed EBadOp failure and connection survival.
func TestUnknownOpcode(t *testing.T) {
	srv := newTestServer(t)
	c := dialTest(t, srv)

	_, err := c.NewBatch().Add(wire.OpCode(200), 0).Commit()
	var werr *WireError
	if !errors.As(err, &werr) || werr.Code != wire.EBadOp {
		t.Fatalf("unknown opcode failed with %v, want *WireError(EBadOp)", err)
	}
	if _, err := c.Do(wire.OpRename, 1); err != nil {
		t.Fatalf("connection dead after bad opcode: %v", err)
	}
}

// TestPipelinedBatches keeps many explicit batches in flight on one
// connection and checks every reply lands on its own batch (correlation
// by sequence number): the server runs one connection's frames in order,
// so batch i's strict read counts the i+1 incs sent up to it.
func TestPipelinedBatches(t *testing.T) {
	srv := newTestServer(t)
	c := dialTest(t, srv)

	const n = 64
	batches := make([]*Batch, n)
	for i := range batches {
		batches[i] = c.NewBatch().PhasedInc().PhasedReadStrict()
		if err := batches[i].Send(); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i, b := range batches {
		vals, err := b.Wait()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(vals) != 2 || vals[0] != 0 || vals[1] != uint64(i+1) {
			t.Fatalf("batch %d: values %v, want [0 %d]", i, vals, i+1)
		}
	}
	waitInFlightZero(t, srv)
}

// TestConcurrentDoStress hammers one client from many goroutines: the
// group-commit path must deliver every result, coalescing concurrent
// callers into shared frames (frames served < ops served).
func TestConcurrentDoStress(t *testing.T) {
	srv := newTestServer(t)
	c := dialTest(t, srv)

	const workers = 16
	const perWorker = 200
	const incsPerWorker = (perWorker + 1) / 3 // i%3 == 1 for i < perWorker
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				kind := []wire.OpCode{wire.OpRename, wire.OpPhasedInc, wire.OpPhasedRead}[i%3]
				if _, err := c.Do(kind, uint64(w)); err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if v, err := c.Do(wire.OpPhasedReadStrict, 0); err != nil || v != workers*incsPerWorker {
		t.Fatalf("strict read %d (err %v) after the stress, want %d incs", v, err, workers*incsPerWorker)
	}
	waitInFlightZero(t, srv)
	// Coalescing is timing-dependent under live load (each worker blocks on
	// its own reply, so the queue drains fast on an idle box); the
	// deterministic pin is TestGroupCommitCoalesces. Here just check the
	// server saw the traffic and nothing leaked.
	if srv.frames.Load() == 0 {
		t.Fatalf("no frames served")
	}
	c.pmu.Lock()
	pending := len(c.pending)
	c.pmu.Unlock()
	if pending != 0 {
		t.Fatalf("%d batches still pending after quiesce", pending)
	}
}

// TestGroupCommitCoalesces pins the smart-batching mechanism
// deterministically: with the leader's write blocked (unbuffered
// net.Pipe, nobody reading yet), concurrent Do callers queue up behind
// it and must ride out in ONE shared frame when the leader's write
// completes.
func TestGroupCommitCoalesces(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	c := NewClient(cliConn)
	defer c.Close()
	defer srvConn.Close()

	results := make(chan error, 8)
	do := func(arg uint64) {
		_, err := c.Do(wire.OpRename, arg)
		results <- err
	}

	// First op: becomes the leader and blocks in the pipe write.
	go do(0)
	deadline := time.Now().Add(2 * time.Second)
	for {
		c.qmu.Lock()
		leading := c.flushing && len(c.q) == 0
		c.qmu.Unlock()
		if leading {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never started flushing")
		}
		time.Sleep(time.Millisecond)
	}
	// Seven more: they must queue behind the blocked leader.
	for i := 1; i < 8; i++ {
		go do(uint64(i))
	}
	for {
		c.qmu.Lock()
		queued := len(c.q)
		c.qmu.Unlock()
		if queued == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("followers never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Service the pipe by hand: frame 1 carries the leader's single op,
	// frame 2 must carry all seven queued ops — the coalesce.
	reply := func(wantOps int) {
		payload, err := wire.ReadFrame(srvConn, nil)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		f, err := wire.Parse(payload)
		if err != nil || f.Type != wire.TBatch {
			t.Fatalf("bad frame: %v", err)
		}
		if f.Ops() != wantOps {
			t.Fatalf("frame carries %d ops, want %d", f.Ops(), wantOps)
		}
		vals := make([]uint64, f.Ops())
		if _, err := srvConn.Write(wire.AppendReply(nil, f.Seq, vals)); err != nil {
			t.Fatalf("write reply: %v", err)
		}
	}
	reply(1)
	reply(7)
	for i := 0; i < 8; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMetricsEndpoint reads the metrics dump after real traffic and checks
// the existing gauges show up (pool in-flight, phased mode and op count,
// op counters, latency quantiles).
func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	c := dialTest(t, srv)
	for i := 0; i < 100; i++ {
		if _, err := c.Do(wire.OpPhasedInc, 0); err != nil {
			t.Fatalf("phased inc: %v", err)
		}
	}
	if _, err := c.Do(wire.OpRename, 1); err != nil {
		t.Fatalf("rename: %v", err)
	}
	c.Close() // fold the session shards into the server totals

	deadline := time.Now().Add(2 * time.Second)
	for {
		// The session shards fold when the server sees the close, which
		// races this read; retry briefly.
		body := srv.MetricsText()
		if strings.Contains(body, `netserve_ops_total{op="phased_inc"} 100`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phased_inc counter missing from metrics dump:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{
		"netserve_conns_accepted_total",
		`netserve_ops_total{op="rename"} 1`,
		"rename_pool_inflight 0",
		"rename_pool_shards",
		"wave_pool_inflight 0",
		"wave_pool_instances",
		"phased_ops_total 100",
		"phased_inflight 0",
		"phased_mode",
		`netserve_op_latency_ns{quantile="0.99"}`,
		"netserve_op_latency_ns_count",
	} {
		if !strings.Contains(srv.MetricsText(), want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, srv.MetricsText())
		}
	}
}

// TestScenarioOverWire drives a catalog-shaped open-loop scenario through
// load.RunRemote over a real loopback connection: the harness's scheduling
// and verdict machinery must hold over the wire path unchanged.
func TestScenarioOverWire(t *testing.T) {
	srv := newTestServer(t)
	c := dialTest(t, srv)

	s := load.Scenario{
		Name:     "wire-smoke",
		Workers:  8,
		Arrival:  load.Arrival{Kind: load.Steady, Rate: 20000},
		Mix:      load.Mix{Rename: 3, Inc: 4, Read: 2, Wave: 1, Targets: 16, Skew: 1.1},
		WaveK:    8,
		Duration: 300 * time.Millisecond,
		Seed:     42,
	}
	r := load.RunRemote(s, c)
	if r.Verdict != "ok" {
		t.Fatalf("wire scenario verdict %q\n%s", r.Verdict, r.JSON())
	}
	if r.Transport != "wire" {
		t.Fatalf("transport %q, want wire", r.Transport)
	}
	if r.Ops == 0 || r.RemoteErrs != 0 {
		t.Fatalf("ops=%d remoteErrs=%d", r.Ops, r.RemoteErrs)
	}
	waitInFlightZero(t, srv)
}

// TestTargetDoMatchesWire pins the single op definition: one op script
// run through Target.Do in process and through a loopback server on a
// second target of the same seed returns identical values. The script
// covers every defined op code, waves whose widths clamp to [1, 32], and
// undefined op codes — the retired 2 and 3 among them — which Do refuses
// and the wire fails with EBadOp.
func TestTargetDoMatchesWire(t *testing.T) {
	const seed = 5
	local := load.NewTarget(seed)
	srv, err := ListenAndServe("127.0.0.1:0", load.NewTarget(seed))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dialTest(t, srv)

	script := []wire.Op{
		{Code: wire.OpRename, Arg: 1},
		{Code: wire.OpRename, Arg: 2},
		{Code: wire.OpRename, Arg: 1<<40 | 7},
		{Code: wire.OpWave, Arg: 0},
		{Code: wire.OpWave, Arg: 1000},
		{Code: wire.OpPhasedInc},
		{Code: wire.OpPhasedInc},
		{Code: wire.OpPhasedRead},
		{Code: wire.OpPhasedReadStrict},
	}
	for i, op := range script {
		want, ok := local.Do(op.Code, op.Arg, 1)
		if !ok {
			t.Fatalf("op %d (%s): Do refused a defined op code", i, OpName(uint8(op.Code)))
		}
		got, err := c.Do(op.Code, op.Arg)
		if err != nil {
			t.Fatalf("op %d (%s): wire: %v", i, OpName(uint8(op.Code)), err)
		}
		if got != want {
			t.Fatalf("op %d (%s %d): wire returned %d, Do returned %d", i, OpName(uint8(op.Code)), op.Arg, got, want)
		}
		switch {
		case op.Code == wire.OpWave && op.Arg == 0 && want != 1,
			op.Code == wire.OpWave && op.Arg == 1000 && want != 32:
			t.Fatalf("wave of width %d ran %d processes, want it clamped to [1, 32]", op.Arg, want)
		case op.Code == wire.OpPhasedReadStrict && want != 2:
			t.Fatalf("strict phased read %d after two incs, want 2", want)
		}
	}

	for _, undefined := range []wire.OpCode{2, 3, 200} {
		if v, ok := local.Do(undefined, 1, 1); ok {
			t.Fatalf("Do ran undefined op code %d (value %d)", undefined, v)
		}
		_, err = c.Do(undefined, 1)
		var werr *WireError
		if !errors.As(err, &werr) || werr.Code != wire.EBadOp {
			t.Fatalf("undefined op code %d over the wire failed with %v, want *WireError(EBadOp)", undefined, err)
		}
	}
	waitInFlightZero(t, srv)
}
