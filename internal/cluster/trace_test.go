package cluster

import (
	"testing"
	"time"

	"repro/internal/allocs"
	"repro/internal/netserve"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestClusterCrossHopChain is the tracing tentpole's acceptance pin: one
// sampled scatter-gather batch over a live 3-node loopback cluster must
// yield a complete cross-hop chain — client gather root, one sub-batch
// span per touched node, and on every node's own collector a server
// frame span with its shard op spans — all under one trace id, with each
// rename op span's node attribution matching what ring.Route said about
// its key.
func TestClusterCrossHopChain(t *testing.T) {
	const n = 3
	srvs := make([]*netserve.Server, n)
	addrs := make([]string, n)
	for i := range srvs {
		srv, err := netserve.ListenAndServeOpts("127.0.0.1:0", nil, netserve.Options{NodeID: i})
		if err != nil {
			t.Fatalf("listen node %d: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
		addrs[i] = srv.Addr().String()
	}
	ring, err := New(addrs, 1<<20)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	c := dialCluster(t, ring)

	col := obs.New(0)
	defer col.Close()
	col.Arm(1) // sample every trace: the chain must be complete, not probable
	c.SetTrace(col)

	// One rename per node, so the batch provably fans out to all three.
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = keyFor(t, ring, i, 1)
	}
	b := c.NewBatch()
	for _, k := range keys {
		b.Rename(k)
	}
	vals, err := b.Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if len(vals) != n {
		t.Fatalf("%d values, want %d", len(vals), n)
	}
	if b.trace == 0 || !b.sampled {
		t.Fatalf("batch not traced/sampled with an armed collector (trace=%x sampled=%v)", b.trace, b.sampled)
	}
	trace := b.trace

	// Client side: one gather root, one sub-batch child per node, each
	// attributed to a distinct ring node and parented on the root.
	col.Fold()
	var gather obs.Span
	subNodes := map[int]obs.Span{}
	for _, s := range col.Chain(nil, trace) {
		switch s.Kind {
		case obs.KindGather:
			gather = s
		case obs.KindSubBatch:
			node, ok := obs.AttrNode(s.Attr)
			if !ok {
				t.Fatalf("sub-batch span without node attribution: %+v", s)
			}
			subNodes[node] = s
		}
	}
	if gather.Kind == 0 {
		t.Fatalf("no gather root span for trace %016x", trace)
	}
	if obs.AttrOps(gather.Attr) != n {
		t.Fatalf("gather span carries %d ops, want %d", obs.AttrOps(gather.Attr), n)
	}
	if len(subNodes) != n {
		t.Fatalf("sub-batch spans cover %d nodes (%v), want %d", len(subNodes), subNodes, n)
	}
	for node, s := range subNodes {
		if s.Parent != gather.ID {
			t.Fatalf("node %d sub-batch parent %d, want gather root %d", node, s.Parent, gather.ID)
		}
		if obs.AttrOps(s.Attr) != 1 {
			t.Fatalf("node %d sub-batch carries %d ops, want 1", node, obs.AttrOps(s.Attr))
		}
	}

	// Server side: every node's own collector holds the same trace's frame
	// and rename-op spans, node-attributed to itself — which must agree
	// with the ring's routing for that node's key.
	for i, srv := range srvs {
		sc := srv.Tracer()
		sc.Fold()
		var frame, op obs.Span
		for _, s := range sc.Chain(nil, trace) {
			switch s.Kind {
			case obs.KindFrame:
				frame = s
			case obs.KindOp:
				op = s
			}
		}
		if frame.Kind == 0 || op.Kind == 0 {
			t.Fatalf("node %d: incomplete server chain for trace %016x (frame=%v op=%v)", i, trace, frame.Kind, op.Kind)
		}
		if wire.OpCode(obs.AttrOp(op.Attr)) != wire.OpRename {
			t.Fatalf("node %d: op span code %d, want rename", i, obs.AttrOp(op.Attr))
		}
		node, ok := obs.AttrNode(op.Attr)
		if !ok || node != i {
			t.Fatalf("node %d: op span attributed to node %d,%v", i, node, ok)
		}
		if want := ring.Route(keys[i]); want != node {
			t.Fatalf("ring routes key %d to node %d but its op span executed on node %d", keys[i], want, node)
		}
		if op.Parent != frame.ID {
			t.Fatalf("node %d: op span parent %d, want frame %d", i, op.Parent, frame.ID)
		}
	}

	// The stage accounting saw exactly the three traced sub-frames.
	if st := c.Stages(); st.Frames != n || st.RTTNS == 0 || st.SrvNS == 0 {
		t.Fatalf("cluster stages = %+v, want %d frames with nonzero rtt and srv", st, n)
	}
}

// TestClusterTraceAllocationFree re-pins the scatter-gather 0-alloc cycle
// with tracing armed: trace stamping, stage accumulation, and span
// recording may not add garbage to the steady-state batch path. It counts
// exact totals over 20,000 cycles after 20,000 warm ones.
func TestClusterTraceAllocationFree(t *testing.T) {
	ring, _ := startCluster(t, 3, 1<<20, netserve.Options{})
	c := dialCluster(t, ring)
	col := obs.New(0)
	defer col.Close()
	col.Arm(1)
	c.SetTrace(col)

	b := c.NewBatch()
	cycle := func() {
		b.Reset()
		for i := uint64(0); i < 32; i++ {
			b.Rename(i)
		}
		if _, err := b.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	const cycles = 20_000
	for range cycles {
		cycle()
	}
	if n, b := allocs.Count(cycles, cycle); n != 0 {
		t.Fatalf("%d traced scatter-gather cycles made %d allocations (%d B), want 0", cycles, n, b)
	}
	col.Fold()
	if col.Folded() == 0 {
		t.Fatalf("no spans folded despite Arm(1) and %d cycles", 2*cycles)
	}
}

// TestClusterStagesUnderAdmission drives a shedding cluster and checks the
// admission wait shows up where the tentpole promises: in the stage echo
// and as admit spans on the shedding node's /trace surface.
func TestClusterStagesUnderAdmission(t *testing.T) {
	ring, srvs := startCluster(t, 2, 1<<20, netserve.Options{
		Admission: netserve.AdmissionConfig{PerShard: 1, Shards: 1, Queue: 4, MaxWait: 2 * time.Millisecond},
	})
	// The contention must cross connections (one connection's session
	// serves its frames serially): a rival client holds the 1-slot gates
	// with execution waves while the traced client's incs queue behind
	// them — exactly the burst shape the CI cluster-smoke job drives.
	rival := dialCluster(t, ring)
	c := dialCluster(t, ring)
	col := obs.New(0)
	defer col.Close()
	col.Arm(1)
	c.SetTrace(col)

	stop := make(chan struct{})
	rivalDone := make(chan struct{})
	go func() {
		defer close(rivalDone)
		b := rival.NewBatch()
		for {
			select {
			case <-stop:
				return
			default:
			}
			b.Reset()
			b.Wave(keyFor(t, ring, 0, 1), 16)
			b.Wave(keyFor(t, ring, 1, 1), 16)
			b.Commit() // sheds are expected; any outcome keeps the gate busy
		}
	}()
	defer func() { close(stop); <-rivalDone }()

	waited := func() bool {
		var spans []obs.Span
		for _, srv := range srvs {
			sc := srv.Tracer()
			sc.Fold()
			for _, s := range sc.Recent(spans[:0], 4096) {
				if s.Kind == obs.KindAdmit && obs.AttrWait(s.Attr) > 0 {
					return true
				}
			}
		}
		return false
	}
	// A batch that queues and is then shed, or misses its deadline, records
	// its admit span but echoes no stages (only replies carry them), so
	// wait for both events.
	b := c.NewBatch()
	deadline := time.Now().Add(10 * time.Second)
	for !waited() || c.Stages().AdmitNS == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no admit wait both in a span and in the echoed stages after 10s of wave contention: %+v", c.Stages())
		}
		b.Reset().WithDeadline(5 * time.Millisecond)
		for k := uint64(0); k < 32; k++ {
			b.Add(wire.OpPhasedInc, k, 0)
		}
		if _, err := b.Commit(); err != nil && !isLoadErr(err) {
			t.Fatalf("hard failure under admission load: %v", err)
		}
	}

	// The same waits must surface in the client's stage accounting: the
	// admit component of the echoed decomposition is what renameload's
	// stages row attributes the tail to, and it is part of the server's
	// hold time.
	if st := c.Stages(); st.Frames == 0 || st.AdmitNS == 0 || st.AdmitNS > st.SrvNS {
		t.Fatalf("stage sums inconsistent: %+v", st)
	}
}

// isLoadErr reports whether err is an expected per-batch outcome of a
// deliberately overloaded server — a typed shed, or the batch's own
// deadline budget expiring mid-batch (which -race overhead makes likely).
// Anything else (a dropped connection, a protocol error) is a real bug.
func isLoadErr(err error) bool {
	for err != nil {
		if sh, ok := err.(interface{ Shed() bool }); ok && sh.Shed() {
			return true
		}
		if we, ok := err.(*netserve.WireError); ok && we.Code == wire.EDeadline {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
