package netserve

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/phase"
	"repro/internal/wire"
)

// incRunFrame returns the ops of a frame that alternates runs of
// PhasedIncs, of the given lengths, with a read after each run.
func incRunFrame(lengths ...int) []wire.Op {
	var ops []wire.Op
	for i, n := range lengths {
		for range n {
			ops = append(ops, wire.Op{Code: wire.OpPhasedInc})
		}
		read := wire.OpPhasedRead
		if i%2 == 1 {
			read = wire.OpPhasedReadStrict
		}
		ops = append(ops, wire.Op{Code: read})
	}
	return ops
}

// TestServeFrameRuns pins the contract of a served run of PhasedIncs (a
// run is one add of its length on the shared counter): every read in
// frames that mix runs and reads, one of them a run of wire.MaxOps, equals
// the increments before it; every op of a run replies 0 and counts as one
// op; the per-op histogram gets one sample per op, the samples summing to
// the run's time; and a sampled frame gets one op span per op, the spans
// tiling the frame in op order.
func TestServeFrameRuns(t *testing.T) {
	srv := newTestServer(t)
	ss := srv.newSession()
	incHist := &ss.ophist[wire.OpPhasedInc]
	var incs uint64
	serve := func(payload []byte, ops []wire.Op) *wire.Frame {
		t.Helper()
		before, beforeCount, beforeSum := ss.ops[wire.OpPhasedInc], incHist.Count(), incHist.Sum()
		ss.out = ss.serveFrame(payload, ss.out[:0])
		f, err := wire.Parse(ss.out[4:])
		if err != nil || f.Type != wire.TReply || f.Ops() != len(ops) {
			t.Fatalf("reply: type=%#x ops=%d (want %d) err=%v", f.Type, f.Ops(), len(ops), err)
		}
		var frameIncs uint64
		for i, op := range ops {
			v := f.Val(i)
			if op.Code == wire.OpPhasedInc {
				incs++
				frameIncs++
				if v != 0 {
					t.Fatalf("op %d: increment replied %d, want 0", i, v)
				}
			} else if v != incs {
				t.Fatalf("op %d: read %d after %d increments", i, v, incs)
			}
		}
		if got := ss.ops[wire.OpPhasedInc] - before; got != frameIncs {
			t.Fatalf("frame of %d increments counted %d ops", frameIncs, got)
		}
		if got := incHist.Count() - beforeCount; got != frameIncs {
			t.Fatalf("frame of %d increments recorded %d histogram samples", frameIncs, got)
		}
		if f.Staged && len(ops) == int(frameIncs) {
			// One run and nothing else: its samples sum to the frame's
			// execute stage, with admission off exactly the run's time.
			if got := incHist.Sum() - beforeSum; got != f.ExecNS {
				t.Fatalf("run of %d: histogram samples sum to %d ns, the run took %d ns", frameIncs, got, f.ExecNS)
			}
		}
		return &f
	}

	for seq, lengths := range [][]int{{1}, {2, 3}, {47, 1, 64, 5}, {wire.MaxOps - 1}} {
		ops := incRunFrame(lengths...)
		serve(wire.AppendBatch(nil, uint64(seq+1), 0, ops)[4:], ops)
	}
	full := make([]wire.Op, wire.MaxOps)
	for i := range full {
		full[i].Code = wire.OpPhasedInc
	}
	serve(wire.AppendBatchTraced(nil, 10, 0, full, 1<<63|1024, false)[4:], full)

	// A sampled frame: one op span per op, tiling the frame in op order;
	// the spans of one run share its time to within a nanosecond.
	const trace = uint64(1<<63 | 2048)
	ops := incRunFrame(5, 1, 37, 2)
	f := serve(wire.AppendBatchTraced(nil, 11, 0, ops, trace, true)[4:], ops)
	col := srv.Tracer()
	col.Fold()
	var frame obs.Span
	var spans []obs.Span
	for _, s := range col.Chain(nil, trace) {
		switch s.Kind {
		case obs.KindFrame:
			frame = s
		case obs.KindOp:
			spans = append(spans, s)
		}
	}
	if len(spans) != len(ops) {
		t.Fatalf("sampled frame of %d ops recorded %d op spans", len(ops), len(spans))
	}
	slices.SortStableFunc(spans, func(a, b obs.Span) int { return cmp.Compare(a.Start, b.Start) })
	at, sum := frame.Start, int64(0)
	for i, s := range spans {
		if code := wire.OpCode(obs.AttrOp(s.Attr)); code != ops[i].Code {
			t.Fatalf("span %d is op %d, want %d: spans out of op order", i, code, ops[i].Code)
		}
		if s.Start != at {
			t.Fatalf("span %d starts at %d, want %d, where the one before it ended", i, s.Start, at)
		}
		if i > 0 && ops[i-1].Code == wire.OpPhasedInc && ops[i].Code == wire.OpPhasedInc {
			if d := s.Dur - spans[i-1].Dur; d != 0 && d != -1 {
				t.Fatalf("spans %d and %d of one run last %d and %d ns", i-1, i, spans[i-1].Dur, s.Dur)
			}
		}
		at += s.Dur
		sum += s.Dur
	}
	if sum != int64(f.ExecNS) || at > frame.Start+frame.Dur {
		t.Fatalf("op spans last %d ns and end at %d; the execute stage is %d ns and the frame ends at %d",
			sum, at, f.ExecNS, frame.Start+frame.Dur)
	}
}

// TestSplitCounterServedConcurrently serves a phased counter pinned split,
// with an epoch of 8, to four concurrent connections. Each sends frames of
// reads and runs of 1 to 24 PhasedIncs, so runs land on, pass and span
// several multiples of the epoch. Each connection's reads must never fall
// and must count at least its own increments sent before them, and at most
// every increment sent; cells must have merged into the spine; and a final
// strict read must count every increment.
func TestSplitCounterServedConcurrently(t *testing.T) {
	const conns, frames, epoch = 4, 200, 8
	tg := load.NewTarget(1)
	tg.Phased = phase.NewPool(phase.Options{Lanes: 4, Epoch: epoch, Policy: phase.PinSplit, Seed: 3})
	srv, err := ListenAndServe("127.0.0.1:0", tg)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	// Every connection's script is fixed up front, so the total is known
	// while they run.
	scripts := make([][][]wire.Op, conns)
	var total uint64
	for c := range scripts {
		r := rand.New(rand.NewPCG(uint64(c), 1))
		for range frames {
			var ops []wire.Op
			for len(ops) < 48 {
				if r.IntN(3) == 0 {
					ops = append(ops, wire.Op{Code: wire.OpPhasedRead})
					continue
				}
				n := 1 + r.IntN(3*epoch)
				for range n {
					ops = append(ops, wire.Op{Code: wire.OpPhasedInc})
				}
				total += uint64(n)
			}
			scripts[c] = append(scripts[c], ops)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := range conns {
		cli := dialTest(t, srv)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var own, last uint64
			for i, ops := range scripts[c] {
				b := cli.NewBatch()
				for _, op := range ops {
					b.Add(op.Code, op.Arg)
				}
				vals, err := b.Commit()
				if err != nil {
					errs <- fmt.Errorf("connection %d frame %d: %v", c, i, err)
					return
				}
				for j, op := range ops {
					if op.Code == wire.OpPhasedInc {
						own++
						continue
					}
					if v := vals[j]; v < own || v < last || v > total {
						errs <- fmt.Errorf("connection %d frame %d op %d: read %d after its own %d increments and a read of %d (%d sent in all)",
							c, i, j, v, own, last, total)
						return
					}
					last = vals[j]
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Before the strict read, which merges every cell: the merges so far
	// are the increments' own.
	if m := metricValue(t, srv.MetricsText(), "phased_merges_total"); m == 0 {
		t.Fatalf("phased_merges_total is 0: no run carried a cell to an epoch multiple")
	}
	if mode := metricValue(t, srv.MetricsText(), "phased_mode"); mode != 1 {
		t.Fatalf("phased_mode %d, want 1 (split)", mode)
	}
	c := dialTest(t, srv)
	if v, err := c.Do(wire.OpPhasedReadStrict, 0); err != nil || v != total {
		t.Fatalf("strict read %d (err %v), want every one of the %d increments", v, err, total)
	}
}

// metricValue returns the value of the unlabeled metric name in a
// metrics dump.
func metricValue(t *testing.T, body, name string) uint64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("metric %s missing from the dump:\n%s", name, body)
	return 0
}
