package netserve

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/wire"
)

// TestAdmissionGate drives the gate state machine directly: fast-path
// admit, shed on a saturated gate with no wait budget, shed after a timed
// wait expires, queue-overflow shed, and recovery once slots free up.
func TestAdmissionGate(t *testing.T) {
	a := newAdmission(AdmissionConfig{PerShard: 1, Shards: 1, Queue: 1, MaxWait: time.Millisecond})
	if a == nil {
		t.Fatalf("admission disabled despite PerShard=1")
	}

	g, _ := a.acquire(7, time.Millisecond)
	if g == nil {
		t.Fatalf("uncontended acquire shed")
	}
	if a.admitted.Load() != 1 {
		t.Fatalf("admitted = %d, want 1", a.admitted.Load())
	}

	// Saturated, no wait budget: immediate shed.
	if g0, _ := a.acquire(7, 0); g0 != nil {
		t.Fatalf("acquire with wait 0 on a saturated gate admitted")
	}
	if a.shed.Load() != 1 {
		t.Fatalf("shed = %d, want 1", a.shed.Load())
	}

	// Saturated, short wait, nobody releasing: shed after the wait.
	start := time.Now()
	if gt, w := a.acquire(7, 5*time.Millisecond); gt != nil || w < 4*time.Millisecond {
		t.Fatalf("timed acquire: admitted=%v measured wait=%v, want shed after ~5ms with the wait reported", gt != nil, w)
	}
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("timed acquire shed after %v, want ≥ ~5ms (it must actually wait)", el)
	}
	if a.waits.Load() != 1 || a.shed.Load() != 2 {
		t.Fatalf("waits=%d shed=%d, want 1/2", a.waits.Load(), a.shed.Load())
	}

	// Queue overflow: one waiter occupies the 1-deep queue; a second
	// arrival must shed immediately, without waiting.
	waiterIn := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(waiterIn)
		if g2, _ := a.acquire(7, time.Second); g2 != nil {
			g2.release()
		}
	}()
	<-waiterIn
	deadline := time.Now().Add(2 * time.Second)
	for a.queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never queued (depth %d)", a.queueDepth())
		}
		time.Sleep(100 * time.Microsecond)
	}
	start = time.Now()
	if gq, _ := a.acquire(7, time.Second); gq != nil {
		t.Fatalf("acquire admitted past a full queue")
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("overflow shed took %v, want immediate", el)
	}

	// Release: the queued waiter gets the slot; afterwards the gate serves
	// the fast path again.
	g.release()
	wg.Wait()
	if g3, _ := a.acquire(7, 0); g3 == nil {
		t.Fatalf("gate not reusable after release cycle")
	} else {
		g3.release()
	}
}

// TestAdmissionDefaults pins the config normalization: zero disables, and
// partial configs fill in documented defaults.
func TestAdmissionDefaults(t *testing.T) {
	if newAdmission(AdmissionConfig{}) != nil {
		t.Fatalf("zero config must disable admission")
	}
	a := newAdmission(AdmissionConfig{PerShard: 4, Shards: 5})
	if len(a.gates) != 8 {
		t.Fatalf("5 shards rounded to %d gates, want 8", len(a.gates))
	}
	if a.cfg.Queue != 8 {
		t.Fatalf("default queue %d, want 2×PerShard = 8", a.cfg.Queue)
	}
	if a.cfg.MaxWait != time.Millisecond {
		t.Fatalf("default MaxWait %v, want 1ms", a.cfg.MaxWait)
	}
}

// TestServeFrameAllocationFreeAdmitted re-pins the serveFrame 0 allocs/op
// claim with admission control armed: the uncontended admit is a
// non-blocking channel receive and send, so gating must not disturb the
// steady-state request path.
func TestServeFrameAllocationFreeAdmitted(t *testing.T) {
	srv, err := ListenAndServeOpts("127.0.0.1:0", nil, Options{
		Admission: AdmissionConfig{PerShard: 64},
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	ss := srv.newSession()

	frame := wire.AppendBatch(nil, 1, 0, []wire.Op{
		{Code: wire.OpRename, Arg: 11},
		{Code: wire.OpRename, Arg: 12},
		{Code: wire.OpPhasedRead},
		{Code: wire.OpPhasedReadStrict},
	})
	payload := frame[4:]
	for i := 0; i < 64; i++ {
		ss.out = ss.serveFrame(payload, ss.out[:0])
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ss.out = ss.serveFrame(payload, ss.out[:0])
	})
	if allocs != 0 {
		t.Fatalf("admitted serveFrame allocates %.1f times per frame, want 0", allocs)
	}
	if srv.adm.admitted.Load() == 0 || srv.adm.shed.Load() != 0 {
		t.Fatalf("admitted=%d shed=%d after uncontended pinned runs",
			srv.adm.admitted.Load(), srv.adm.shed.Load())
	}
}

// TestShedSurfacedOverWire pins the end-to-end shed contract on a single
// connection pair: a wave holds the 1-slot gate across a scheduling point
// while a second connection's batch arrives, which must fail typed
// (*ShedError, retryable, load.IsShed-visible) and leave the connection
// serving.
func TestShedSurfacedOverWire(t *testing.T) {
	srv, err := ListenAndServeOpts("127.0.0.1:0", nil, Options{
		Admission: AdmissionConfig{PerShard: 1, Shards: 1, Queue: 1, MaxWait: time.Nanosecond},
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()

	rival, err := Dial(srv.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial rival: %v", err)
	}
	defer rival.Close()
	c, err := Dial(srv.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

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
			rival.Do(wire.OpWave, 16)
		}
	}()

	var shedErr error
	deadline := time.Now().Add(10 * time.Second)
	b := c.NewBatch()
	for shedErr == nil && time.Now().Before(deadline) {
		b.Reset()
		for i := 0; i < 64; i++ {
			b.Rename(1)
		}
		if _, err := b.Commit(); err != nil {
			shedErr = err
		}
	}
	close(stop)
	<-done
	if shedErr == nil {
		t.Fatalf("no shed under wave contention on a 1-slot gate")
	}
	var shed *ShedError
	if !errors.As(shedErr, &shed) {
		t.Fatalf("shed surfaced as %T (%v), want *ShedError", shedErr, shedErr)
	}
	if !load.IsShed(shedErr) {
		t.Fatalf("load.IsShed(%v) = false", shedErr)
	}
	if load.IsShed(&WireError{Code: wire.EDeadline}) {
		t.Fatalf("IsShed claims a deadline failure is a shed")
	}

	// Batch-scoped: the connection still serves.
	if _, err := c.Do(wire.OpRename, 1); err != nil {
		t.Fatalf("connection dead after shed: %v", err)
	}

	// And the overload shows on the metrics surface.
	body := srv.MetricsText()
	for _, want := range []string{
		"netserve_shed_total",
		"netserve_admitted_total",
		"netserve_admit_queue_depth",
		"netserve_admit_per_shard 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "netserve_shed_total 0\n") {
		t.Fatalf("netserve_shed_total still 0 after an observed shed")
	}
}

// TestMetricsShedAlwaysPresent pins the CI grep contract: a server without
// admission control still reports netserve_shed_total (as 0).
func TestMetricsShedAlwaysPresent(t *testing.T) {
	srv := newTestServer(t)
	if !strings.Contains(srv.MetricsText(), "netserve_shed_total 0") {
		t.Fatalf("shed counter missing with admission off:\n%s", srv.MetricsText())
	}
}

// TestAdmissionGateMatchesPoolShard pins the admission comment's promise:
// the gates mix keys as the pools' shard choice does, so with equal gate
// and shard counts a key acquires the gate at its rename shard's index.
func TestAdmissionGateMatchesPoolShard(t *testing.T) {
	tg := load.NewTarget(1)
	shards := tg.Rename.Stats().Shards
	a := newAdmission(AdmissionConfig{PerShard: 1, Shards: shards})
	if len(a.gates) != shards {
		t.Fatalf("%d gates for %d shards", len(a.gates), shards)
	}
	for key := uint64(0); key < 1000; key++ {
		g, _ := a.acquire(key, 0)
		if g == nil {
			t.Fatalf("key %d shed by an idle gate set", key)
		}
		if want := &a.gates[tg.Rename.ShardFor(key)]; g != want {
			t.Fatalf("key %d acquired a gate other than the one at its shard index %d", key, tg.Rename.ShardFor(key))
		}
		g.release()
	}
}
