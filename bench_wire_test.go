package renaming_test

// The wire-protocol benchmark suite: the loopback cost of serving
// operations over the batched binary protocol (internal/wire +
// internal/netserve), swept by batch size. Reported ns/op is per
// OPERATION, not per frame — the loop below issues b.N ops in frames of
// the given batch size — so the batch sweep reads directly as the syscall
// amortization curve: batch=1 pays the full two-syscall round trip per
// op; batch=64 spreads it over 64 ops. The in-process counterpart rows
// (BenchmarkPoolRenameThroughput etc.) bound the wire overhead from
// below; BENCHMARKS.md "The wire protocol" holds the comparison table.

import (
	"fmt"
	"net"
	"testing"
	"time"

	renaming "repro"
)

// newWireBench starts a loopback server and one pipelining client.
func newWireBench(b *testing.B) *renaming.WireClient {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	srv := renaming.ServeWire(ln, nil)
	c, err := renaming.DialWire(srv.Addr().String(), 2*time.Second)
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	b.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	return c
}

// benchWireBatch issues b.N operations in frames of the given batch size
// through one explicit batch (Commit = one request frame, one reply
// frame), so ns/op is the amortized per-operation wire cost.
func benchWireBatch(b *testing.B, batch int, add func(bt *renaming.WireBatch, i int)) {
	c := newWireBench(b)
	bt := c.NewBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := batch
		if rem := b.N - done; n > rem {
			n = rem
		}
		bt.Reset()
		for i := 0; i < n; i++ {
			add(bt, i)
		}
		if _, err := bt.Commit(); err != nil {
			b.Fatal(err)
		}
		done += n
	}
}

// BenchmarkWireRename is the headline batch-size sweep: renames over the
// loopback wire at batch 1, 8, and 64.
func BenchmarkWireRename(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchWireBatch(b, batch, func(bt *renaming.WireBatch, i int) {
				bt.Rename(uint64(i & 7))
			})
		})
	}
}

// BenchmarkWireRenameTraced is the tracing A/B row: the batch=64 rename
// sweep with end-to-end tracing armed — every frame carries a trace id
// and stage echo, and 1-in-64 trace ids record spans — against the
// untraced BenchmarkWireRename/batch=64 baseline. The delta is the whole
// observed cost of tracing on the serving path (BENCHMARKS.md
// "Observability").
func BenchmarkWireRenameTraced(b *testing.B) {
	c := newWireBench(b)
	col := renaming.NewTraceCollector()
	defer col.Close()
	col.Arm(64)
	c.SetTrace(col, -1)
	bt := c.NewBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := 64
		if rem := b.N - done; n > rem {
			n = rem
		}
		bt.Reset()
		for i := 0; i < n; i++ {
			bt.Rename(uint64(i & 7))
		}
		if _, err := bt.Commit(); err != nil {
			b.Fatal(err)
		}
		done += n
	}
}

// BenchmarkWireCounterInc is the counter path over the wire at a working
// batch size: increments of the server's shared phased counter.
func BenchmarkWireCounterInc(b *testing.B) {
	benchWireBatch(b, 8, func(bt *renaming.WireBatch, _ int) {
		bt.PhasedInc()
	})
}

// BenchmarkWirePipelinedDo measures the group-commit path: concurrent Do
// callers coalesce into shared frames, so the per-op cost falls as
// parallelism rises — the adaptive version of the explicit batch sweep.
func BenchmarkWirePipelinedDo(b *testing.B) {
	c := newWireBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Do(renaming.WireRename, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}
