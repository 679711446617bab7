package cluster

import (
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/allocs"
	"repro/internal/load"
	"repro/internal/netserve"
	"repro/internal/wire"
)

// --- ring construction and validation ---

func TestRingParseFormatRoundTrip(t *testing.T) {
	r, err := New([]string{"127.0.0.1:7411", "127.0.0.1:7412", "127.0.0.1:7413"}, 1<<20)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r2, err := Parse(r.Format())
	if err != nil {
		t.Fatalf("Parse(Format): %v", err)
	}
	if r2.Len() != 3 {
		t.Fatalf("round trip lost nodes: %d", r2.Len())
	}
	for i := 0; i < 3; i++ {
		if r.Node(i) != r2.Node(i) {
			t.Fatalf("node %d changed in round trip: %+v vs %+v", i, r.Node(i), r2.Node(i))
		}
	}
	if got := r.Node(1); got.Base != 1<<20 || got.Span != 1<<20 {
		t.Fatalf("node 1 range %s, want [1048576,2097152)", got.Range())
	}
}

func TestRingRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"empty", "# nothing\n"},
		{"out-of-order ids", "1 a:1 0 10\n0 b:2 10 10\n"},
		{"duplicate id", "0 a:1 0 10\n0 b:2 10 10\n"},
		{"zero span", "0 a:1 0 0\n"},
		{"overlap", "0 a:1 0 100\n1 b:2 50 100\n"},
		{"contained overlap", "0 a:1 0 1000\n1 b:2 10 20\n"},
		{"overflow", "0 a:1 18446744073709551615 2\n"},
		{"short line", "0 a:1 0\n"},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.text); err == nil {
			t.Errorf("%s: Parse accepted invalid ring", tc.name)
		}
	}
	// Non-uniform but disjoint ranges are fine (spans need not match).
	if _, err := Parse("0 a:1 0 100\n1 b:2 100 50\n2 c:3 1000 1\n"); err != nil {
		t.Fatalf("disjoint non-uniform ring rejected: %v", err)
	}
}

// --- routing determinism ---

// TestRouteDeterministic pins the placement function itself: the routing of
// a fixed key set on a 3-node ring is part of the cluster's compatibility
// surface (every client must compute the same placement from the same ring
// file), so a change to the mix or the jump hash must show up here as a
// hard failure, not as a silent resharding.
func TestRouteDeterministic(t *testing.T) {
	r3, _ := New([]string{"a:1", "b:2", "c:3"}, 1000)
	golden := map[uint64]int{
		0: 0, 1: 0, 2: 2, 3: 0, 4: 1, 5: 0, 6: 2, 7: 2,
		8: 0, 9: 1, 10: 2, 100: 2, 1000: 1, 12345: 1,
		1 << 32: 1, 1<<63 - 1: 2,
	}
	for key, want := range golden {
		if got := r3.Route(key); got != want {
			t.Errorf("Route(%d) = %d, want %d (placement function changed!)", key, got, want)
		}
	}

	// Same ring built twice (different construction path) routes identically.
	r3b, _ := Parse(r3.Format())
	for key := uint64(0); key < 4096; key++ {
		if r3.Route(key) != r3b.Route(key) {
			t.Fatalf("Route(%d) differs across identically-configured rings", key)
		}
	}
}

// TestRouteBalanceAndStability checks the two properties the jump hash is
// there for: near-uniform spread over dense keys, and minimal movement when
// a node is appended (only keys that move to the new node change owner).
func TestRouteBalanceAndStability(t *testing.T) {
	r3, _ := New([]string{"a:1", "b:2", "c:3"}, 1000)
	r4, _ := New([]string{"a:1", "b:2", "c:3", "d:4"}, 1000)

	const keys = 30000
	counts := make([]int, 3)
	moved, movedElsewhere := 0, 0
	for key := uint64(0); key < keys; key++ {
		n3 := r3.Route(key)
		counts[n3]++
		if n4 := r4.Route(key); n4 != n3 {
			moved++
			if n4 != 3 {
				movedElsewhere++
			}
		}
	}
	for i, c := range counts {
		if c < keys/3-keys/10 || c > keys/3+keys/10 {
			t.Errorf("node %d owns %d of %d keys (want ~%d)", i, c, keys, keys/3)
		}
	}
	if movedElsewhere != 0 {
		t.Errorf("%d keys moved between existing nodes on growth (want 0)", movedElsewhere)
	}
	if moved < keys/5 || moved > keys/3 {
		t.Errorf("%d of %d keys moved to the new node (want ~1/4)", moved, keys)
	}
}

// --- live cluster round trips ---

// startCluster launches n loopback wire servers with disjoint uniform
// ranges and returns the ring plus the servers.
func startCluster(t *testing.T, n int, span uint64, opts netserve.Options) (*Ring, []*netserve.Server) {
	t.Helper()
	srvs := make([]*netserve.Server, n)
	addrs := make([]string, n)
	for i := range srvs {
		srv, err := netserve.ListenAndServeOpts("127.0.0.1:0", nil, opts)
		if err != nil {
			t.Fatalf("listen node %d: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
		addrs[i] = srv.Addr().String()
	}
	ring, err := New(addrs, span)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	return ring, srvs
}

func dialCluster(t *testing.T, ring *Ring) *Client {
	t.Helper()
	c, err := Dial(ring, 2*time.Second)
	if err != nil {
		t.Fatalf("cluster dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// keyFor finds a key ≥ from that the ring routes to node n.
func keyFor(t *testing.T, ring *Ring, n int, from uint64) uint64 {
	t.Helper()
	for key := from; key < from+100000; key++ {
		if ring.Route(key) == n {
			return key
		}
	}
	t.Fatalf("no key routes to node %d", n)
	return 0
}

// TestClusterRoundTrip drives single ops and a mixed scatter-gather batch
// over a live 3-node loopback cluster and pins the name-offset contract:
// every rename reply lands inside its routed node's range.
func TestClusterRoundTrip(t *testing.T) {
	const span = 1 << 20
	ring, _ := startCluster(t, 3, span, netserve.Options{})
	c := dialCluster(t, ring)

	inRange := func(v uint64, node int) bool {
		nd := ring.Node(node)
		return v >= nd.Base && v < nd.Base+nd.Span
	}

	for key := uint64(0); key < 64; key++ {
		name, err := c.Do(wire.OpRename, key, key)
		if err != nil {
			t.Fatalf("rename key %d: %v", key, err)
		}
		if n := ring.Route(key); !inRange(name, n) {
			t.Fatalf("rename(key %d) = %d, outside node %d range %s", key, name, n, ring.Node(n).Range())
		}
	}

	// A mixed batch spanning all three nodes, replies in caller order.
	b := c.NewBatch()
	k0 := keyFor(t, ring, 0, 0)
	k1 := keyFor(t, ring, 1, 0)
	k2 := keyFor(t, ring, 2, 0)
	b.Rename(k0).Add(wire.OpPhasedInc, k1, 0).Rename(k2).Add(wire.OpPhasedReadStrict, k1, 0).Rename(k1).Wave(k0, 4)
	vals, err := b.Commit()
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(vals) != 6 {
		t.Fatalf("batch returned %d values, want 6", len(vals))
	}
	if !inRange(vals[0], 0) || !inRange(vals[2], 2) || !inRange(vals[4], 1) {
		t.Fatalf("rename replies %d/%d/%d not offset into node ranges", vals[0], vals[2], vals[4])
	}
	// Node 1's phased counter holds the one inc routed to it.
	if vals[1] != 0 || vals[3] != 1 {
		t.Fatalf("phased inc=%d strict read=%d, want 0/1", vals[1], vals[3])
	}
	if vals[5] != 4 {
		t.Fatalf("wave width %d, want 4", vals[5])
	}
	for i := range vals {
		if b.OpErr(i) != nil {
			t.Fatalf("OpErr(%d) = %v on a clean batch", i, b.OpErr(i))
		}
	}
}

// TestClusterNamesDisjoint is the uniqueness stress: a few thousand renames
// scattered over every node must each land inside the routed node's range —
// with ranges pairwise disjoint (ring invariant), that makes every cluster
// name attributable to exactly one node, the cluster-wide collision-freedom
// contract.
func TestClusterNamesDisjoint(t *testing.T) {
	const span = 1 << 16
	ring, _ := startCluster(t, 3, span, netserve.Options{})
	c := dialCluster(t, ring)

	b := c.NewBatch()
	const rounds, per = 40, 64
	for round := 0; round < rounds; round++ {
		b.Reset()
		base := uint64(round * per)
		for i := uint64(0); i < per; i++ {
			b.Rename(base + i)
		}
		vals, err := b.Commit()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, v := range vals {
			key := base + uint64(i)
			nd := ring.Node(ring.Route(key))
			if v < nd.Base || v >= nd.Base+nd.Span {
				t.Fatalf("rename(key %d) = %d outside owning range %s", key, v, nd.Range())
			}
		}
	}
}

// TestClusterScenario runs a catalog-shaped open-loop scenario through
// load.RunRemote over a live 2-node cluster: harness accounting unchanged,
// transport labeled "cluster".
func TestClusterScenario(t *testing.T) {
	ring, _ := startCluster(t, 2, 1<<20, netserve.Options{})
	c := dialCluster(t, ring)

	s := load.Scenario{
		Name:     "cluster-smoke",
		Workers:  8,
		Arrival:  load.Arrival{Kind: load.Steady, Rate: 20000},
		Mix:      load.Mix{Rename: 3, Inc: 4, Read: 2, Wave: 1, Targets: 16, Skew: 1.1},
		WaveK:    8,
		Duration: 300 * time.Millisecond,
		Seed:     42,
	}
	r := load.RunRemote(s, c)
	if r.Verdict != "ok" {
		t.Fatalf("cluster scenario verdict %q\n%s", r.Verdict, r.JSON())
	}
	if r.Transport != "cluster" {
		t.Fatalf("transport %q, want cluster", r.Transport)
	}
	if r.Ops == 0 || r.RemoteErrs != 0 {
		t.Fatalf("ops=%d remoteErrs=%d", r.Ops, r.RemoteErrs)
	}
}

// --- failure modes ---

// TestClusterDialNodeDown points one ring slot at a dead port: Dial must
// fail with a *NodeError naming the unreachable node and its name range
// (a partially-connected router would black-hole a key-space slice).
func TestClusterDialNodeDown(t *testing.T) {
	srv, err := netserve.ListenAndServe("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()

	// A port that was just live and no longer is.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen dead: %v", err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	ring, err := New([]string{srv.Addr().String(), deadAddr}, 1000)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	_, err = Dial(ring, 50*time.Millisecond)
	if err == nil {
		t.Fatalf("Dial succeeded with node 1 down")
	}
	var ne *NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("dial failure is %T (%v), want *NodeError", err, err)
	}
	if ne.Node.ID != 1 || ne.Node.Addr != deadAddr {
		t.Fatalf("NodeError blames node %d (%s), want 1 (%s)", ne.Node.ID, ne.Node.Addr, deadAddr)
	}
	if !strings.Contains(err.Error(), ne.Node.Range()) {
		t.Fatalf("dial error does not name the unreachable range: %v", err)
	}
}

// TestClusterNodeDeathMidScatter kills one node and commits a batch that
// spans both: the dead node's ops fail with a *NodeError carrying the node
// id and wrapping the wire client's *DroppedError, while the live node's
// replies are still delivered with correct values and its phased counter
// holds exactly the incs sent to it.
func TestClusterNodeDeathMidScatter(t *testing.T) {
	ring, srvs := startCluster(t, 2, 1<<20, netserve.Options{})
	c := dialCluster(t, ring)

	k0 := keyFor(t, ring, 0, 0)
	k1 := keyFor(t, ring, 1, 0)

	// Warm both connections so the death is mid-stream, not at dial.
	if _, err := c.Do(wire.OpPhasedRead, k0, 0); err != nil {
		t.Fatalf("warm node 0: %v", err)
	}
	if _, err := c.Do(wire.OpPhasedRead, k1, 0); err != nil {
		t.Fatalf("warm node 1: %v", err)
	}

	srvs[1].Close()

	b := c.NewBatch().Rename(k0).Add(wire.OpPhasedInc, k1, 0).Add(wire.OpPhasedInc, k0, 0)
	vals, err := b.Commit()
	if err == nil {
		t.Fatalf("batch over a dead node reported no error")
	}
	var ne *NodeError
	if !errors.As(err, &ne) || ne.Node.ID != 1 {
		t.Fatalf("batch failure %T (%v), want *NodeError for node 1", err, err)
	}
	var dropped *netserve.DroppedError
	if !errors.As(err, &dropped) {
		t.Fatalf("NodeError does not wrap the wire *DroppedError: %v", err)
	}

	// The live node's replies came through in caller order.
	if len(vals) != 3 {
		t.Fatalf("partial gather returned %d values, want 3", len(vals))
	}
	nd0 := ring.Node(0)
	if vals[0] < nd0.Base || vals[0] >= nd0.Base+nd0.Span {
		t.Fatalf("live node's rename reply %d outside range %s", vals[0], nd0.Range())
	}
	if vals[2] != 0 {
		t.Fatalf("live node's phased inc reply %d, want 0", vals[2])
	}
	if b.OpErr(0) != nil || b.OpErr(2) != nil {
		t.Fatalf("live node's ops carry errors: %v / %v", b.OpErr(0), b.OpErr(2))
	}
	if b.OpErr(1) == nil {
		t.Fatalf("dead node's op carries no error")
	}

	// The live node's connection is untouched: the client keeps serving the
	// surviving slice of the key space, and its counter holds both incs.
	if _, err := c.Do(wire.OpPhasedInc, k0, 0); err != nil {
		t.Fatalf("live node unusable after sibling death: %v", err)
	}
	if v, err := c.Do(wire.OpPhasedReadStrict, k0, 0); err != nil || v != 2 {
		t.Fatalf("live node's strict read %d (err %v), want the 2 incs sent to it", v, err)
	}
}

// TestClusterShedSurfaced arms a 1-slot/1-queue admission gate on a node
// and hammers it from two connections: contended batches must come back as
// *NodeError wrapping the retryable *ShedError (load.IsShed sees through
// the chain), the shed must show in the server's metrics, and the shedding
// connection must survive to serve the next batch.
func TestClusterShedSurfaced(t *testing.T) {
	opts := netserve.Options{Admission: netserve.AdmissionConfig{
		PerShard: 1, Shards: 1, Queue: 1, MaxWait: time.Nanosecond,
	}}
	ring, srvs := startCluster(t, 1, 1<<20, opts)
	c := dialCluster(t, ring)
	rival := dialCluster(t, ring)

	// Background contender: saturates the single gate from its own
	// connection (ops on one connection are served serially, so a shed
	// needs a second connection contending for the slot). Waves hold their
	// gate slot across a real scheduling point — the op blocks on its
	// spawned processes — so the contention window is wide even on one CPU.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rival.Do(wire.OpWave, 1, 16) // sheds here are expected too; ignore
		}
	}()

	var shedErr error
	deadline := time.Now().Add(10 * time.Second)
	b := c.NewBatch()
	for shedErr == nil && time.Now().Before(deadline) {
		b.Reset()
		for i := uint64(0); i < 64; i++ {
			b.Add(wire.OpPhasedInc, 1, 0)
		}
		if _, err := b.Commit(); err != nil {
			shedErr = err
		}
	}
	close(stop)
	<-done
	if shedErr == nil {
		t.Fatalf("no shed observed under 2-connection contention on a 1-slot gate")
	}

	var ne *NodeError
	if !errors.As(shedErr, &ne) || ne.Node.ID != 0 {
		t.Fatalf("shed surfaced as %T (%v), want *NodeError for node 0", shedErr, shedErr)
	}
	var shed *netserve.ShedError
	if !errors.As(shedErr, &shed) {
		t.Fatalf("NodeError does not wrap *ShedError: %v", shedErr)
	}
	if !load.IsShed(shedErr) {
		t.Fatalf("load.IsShed misses the shed through the NodeError chain: %v", shedErr)
	}

	// Retryable and batch-scoped: the same connection serves the next batch.
	if _, err := c.Do(wire.OpPhasedInc, 1, 0); err != nil {
		t.Fatalf("connection dead after shed: %v", err)
	}
	if !strings.Contains(srvs[0].MetricsText(), "netserve_shed_total") {
		t.Fatalf("shed metric missing from dump:\n%s", srvs[0].MetricsText())
	}
	if strings.Contains(srvs[0].MetricsText(), "netserve_shed_total 0\n") {
		t.Fatalf("netserve_shed_total still 0 after an observed shed")
	}
}

// --- allocation discipline ---

// fakeNode serves wire frames over conn allocation-free in steady state:
// reads into a reused buffer, answers each op with answer(arg) into a
// reused reply buffer. The 0-alloc pin below measures process-wide
// mallocs, so the fixture must be as disciplined as the code under test.
func fakeNode(conn net.Conn, answer func(arg uint64) uint64) {
	var buf []byte
	out := make([]byte, 0, 4096)
	vals := make([]uint64, 0, wire.MaxOps)
	for {
		payload, err := wire.ReadFrame(conn, buf)
		if err != nil {
			return
		}
		buf = payload
		f, err := wire.Parse(payload)
		if err != nil || f.Type != wire.TBatch {
			return
		}
		vals = vals[:0]
		for i := 0; i < f.Ops(); i++ {
			_, arg := f.Op(i)
			vals = append(vals, answer(arg))
		}
		out = wire.AppendReply(out[:0], f.Seq, vals)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// TestClusterBatchAllocationFree pins the scatter-gather hot path: once a
// Batch's buffers have grown, the steady-state Reset/Add×n/Commit cycle
// over a 3-node ring performs zero allocations — the cluster tier adds
// routing arithmetic to the wire client's pinned path, not garbage. It
// counts exact totals over 20,000 cycles after 20,000 warm ones.
func TestClusterBatchAllocationFree(t *testing.T) {
	ring, err := New([]string{"a:1", "b:2", "c:3"}, 1<<20)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	conns := make([]*netserve.Client, 3)
	for i := range conns {
		cli, srv := net.Pipe()
		go fakeNode(srv, echo)
		conns[i] = netserve.NewClient(cli)
		defer conns[i].Close()
	}
	c, err := NewClientConns(ring, conns)
	if err != nil {
		t.Fatalf("client: %v", err)
	}

	// Keys from 1: an echoed key is the node-local name, and 0 is none.
	b := c.NewBatch()
	cycle := func() {
		b.Reset()
		for i := uint64(1); i <= 32; i++ {
			b.Rename(i)
		}
		vals, err := b.Commit()
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		if len(vals) != 32 {
			t.Fatalf("%d values, want 32", len(vals))
		}
	}
	const cycles = 20_000
	for range cycles {
		cycle() // grow every buffer and pool entry first
	}
	if n, b := allocs.Count(cycles, cycle); n != 0 {
		t.Fatalf("%d scatter-gather cycles made %d allocations (%d B), want 0", cycles, n, b)
	}

	// And the gathered values still honor the offset contract.
	b.Reset()
	for i := uint64(1); i <= 8; i++ {
		b.Rename(i)
	}
	vals, err := b.Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	for i, v := range vals {
		key := uint64(i + 1)
		nd := ring.Node(ring.Route(key))
		if v != key+nd.Base {
			t.Fatalf("echoed rename(key %d) = %d, want %d (arg + node base)", key, v, key+nd.Base)
		}
	}
}

func echo(arg uint64) uint64 { return arg }

// TestClusterNameOutOfRange points node 1 of a two-node ring at a fake
// node that answers every op with one fixed value. A rename reply of 0 or
// of Span or more would leave node 1's range, so that node has failed:
// Do returns 0 and a *NodeError wrapping ErrNameOutOfRange, and in a
// batch every op of node 1 reads 0 with OpErr set, the phased op gathered
// before the bad name included, while node 0's values are delivered. A
// reply of Span−1 is the last name node 1 may hand out.
func TestClusterNameOutOfRange(t *testing.T) {
	const span = 1000
	ring, err := New([]string{"a:1", "b:2"}, span)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	k0 := keyFor(t, ring, 0, 1)
	k1 := keyFor(t, ring, 1, 1)
	for _, tc := range []struct {
		answer uint64
		ok     bool
	}{{span - 1, true}, {span, false}, {0, false}, {1 << 40, false}} {
		conns := make([]*netserve.Client, 2)
		for i, answer := range []func(uint64) uint64{echo, func(uint64) uint64 { return tc.answer }} {
			cli, srv := net.Pipe()
			go fakeNode(srv, answer)
			conns[i] = netserve.NewClient(cli)
		}
		c, err := NewClientConns(ring, conns)
		if err != nil {
			t.Fatalf("client: %v", err)
		}

		v, err := c.Do(wire.OpRename, k1, k1)
		switch {
		case tc.ok && (err != nil || v != span+tc.answer):
			t.Errorf("answer %d: Do = %d, %v; want %d", tc.answer, v, err, span+tc.answer)
		case !tc.ok && (v != 0 || !errors.Is(err, ErrNameOutOfRange)):
			t.Errorf("answer %d: Do = %d, %v; want 0 and ErrNameOutOfRange", tc.answer, v, err)
		}

		b := c.NewBatch().Rename(k0).Add(wire.OpPhasedRead, k1, 0).Rename(k1).Rename(k0)
		vals, err := b.Commit()
		want := []uint64{k0, tc.answer, span + tc.answer, k0}
		if !tc.ok {
			want[1], want[2] = 0, 0
			var ne *NodeError
			if !errors.As(err, &ne) || ne.Node.ID != 1 || !errors.Is(err, ErrNameOutOfRange) {
				t.Errorf("answer %d: batch error %v, want node 1's *NodeError wrapping ErrNameOutOfRange", tc.answer, err)
			}
			if b.OpErr(1) == nil || b.OpErr(2) == nil {
				t.Errorf("answer %d: node 1's ops carry no error", tc.answer)
			}
		} else if err != nil {
			t.Errorf("answer %d: batch error %v", tc.answer, err)
		}
		if b.OpErr(0) != nil || b.OpErr(3) != nil {
			t.Errorf("answer %d: node 0's ops carry errors: %v / %v", tc.answer, b.OpErr(0), b.OpErr(3))
		}
		if !slices.Equal(vals, want) {
			t.Errorf("answer %d: batch values %v, want %v", tc.answer, vals, want)
		}
		c.Close()
	}
}
