package netserve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/allocs"
	"repro/internal/obs"
	"repro/internal/wire"
)

// tracedFrame builds a sampled traced batch payload for direct serveFrame
// tests.
func tracedFrame(trace uint64, ops []wire.Op) []byte {
	return wire.AppendBatchTraced(nil, 1, 0, ops, trace, true)[4:]
}

// TestServeFrameTracedAllocationFree pins the server-side tracing
// contract: serving a sampled traced batch — span records included —
// allocates nothing. It counts exact totals over 100,000 frames after
// 100,000 warm ones (see TestServeFrameAllocationFree for the warm-up).
func TestServeFrameTracedAllocationFree(t *testing.T) {
	const frames = 100_000
	srv := newTestServer(t)
	ss := srv.newSession()
	payload := tracedFrame(1<<63|256, []wire.Op{
		{Code: wire.OpRename, Arg: 11},
		{Code: wire.OpRename, Arg: 12},
		{Code: wire.OpPhasedRead},
		{Code: wire.OpPhasedReadStrict},
	})
	serve := func() { ss.out = ss.serveFrame(payload, ss.out[:0]) }
	for range frames {
		serve()
	}
	if n, b := allocs.Count(frames, serve); n != 0 {
		t.Fatalf("%d traced frames made %d allocations (%d B), want 0", frames, n, b)
	}
	f, err := wire.Parse(ss.out[4:])
	if err != nil || f.Type != wire.TReply || !f.Staged {
		t.Fatalf("traced reply not staged: type=%#x staged=%v err=%v", f.Type, f.Staged, err)
	}
}

// TestTracedFrameSpansAndStages serves one sampled batch and checks the
// full server-side record: a KindFrame root, one KindOp span per op
// parented on it with the attribution Target.Route gives (the rename's
// pool shard, the phased op's counter mode), and a staged reply whose
// stage sums are consistent.
func TestTracedFrameSpansAndStages(t *testing.T) {
	srv := newTestServer(t)
	ss := srv.newSession()
	const trace = uint64(1<<63 | 512)
	const key = uint64(77)
	payload := tracedFrame(trace, []wire.Op{
		{Code: wire.OpRename, Arg: key},
		{Code: wire.OpPhasedInc, Arg: key},
	})
	ss.out = ss.serveFrame(payload, ss.out[:0])

	f, err := wire.Parse(ss.out[4:])
	if err != nil || f.Type != wire.TReply {
		t.Fatalf("reply: type=%#x err=%v", f.Type, err)
	}
	if !f.Staged {
		t.Fatal("traced batch must get a staged reply")
	}
	if f.SrvNS == 0 || f.ExecNS == 0 || f.ExecNS > f.SrvNS {
		t.Fatalf("stage echo inconsistent: srv=%d admit=%d exec=%d", f.SrvNS, f.AdmitNS, f.ExecNS)
	}
	if f.AdmitNS != 0 {
		t.Fatalf("admission off but admit stage = %d", f.AdmitNS)
	}

	col := srv.Tracer()
	col.Fold()
	chain := col.Chain(nil, trace)
	var frame obs.Span
	var opSpans []obs.Span
	for _, s := range chain {
		switch s.Kind {
		case obs.KindFrame:
			frame = s
		case obs.KindOp:
			opSpans = append(opSpans, s)
		}
	}
	if frame.Kind == 0 {
		t.Fatalf("no KindFrame span for trace %x (chain: %v)", trace, chain)
	}
	if obs.AttrOps(frame.Attr) != 2 {
		t.Fatalf("frame span ops = %d, want 2", obs.AttrOps(frame.Attr))
	}
	if len(opSpans) != 2 {
		t.Fatalf("op spans = %d, want 2", len(opSpans))
	}
	for _, s := range opSpans {
		if s.Parent != frame.ID {
			t.Fatalf("op span parent %d, want frame span %d", s.Parent, frame.ID)
		}
	}
	// Attribution must match the pools' own routing.
	wantRename := srv.Target().Rename.ShardFor(key)
	wantMode := uint8(srv.Target().Phased.Counter().Mode())
	for _, s := range opSpans {
		switch wire.OpCode(obs.AttrOp(s.Attr)) {
		case wire.OpRename:
			if obs.AttrShard(s.Attr) != wantRename {
				t.Fatalf("rename span shard %d, want %d", obs.AttrShard(s.Attr), wantRename)
			}
		case wire.OpPhasedInc:
			if obs.AttrShard(s.Attr) != 0 || obs.AttrMode(s.Attr) != wantMode {
				t.Fatalf("phased inc span shard %d mode %d, want 0 and %d",
					obs.AttrShard(s.Attr), obs.AttrMode(s.Attr), wantMode)
			}
		default:
			t.Fatalf("unexpected op span code %d", obs.AttrOp(s.Attr))
		}
	}

	// Unsampled traced batches still get the stage echo but record nothing.
	before := col.Folded()
	plain := wire.AppendBatchTraced(nil, 2, 0, []wire.Op{{Code: wire.OpPhasedRead}}, trace+1, false)[4:]
	ss.out = ss.serveFrame(plain, ss.out[:0])
	if f, err := wire.Parse(ss.out[4:]); err != nil || !f.Staged {
		t.Fatalf("unsampled traced batch lost its stage echo: %+v err=%v", f, err)
	}
	col.Fold()
	if col.Folded() != before {
		t.Fatalf("unsampled batch recorded spans: folded %d -> %d", before, col.Folded())
	}

	// Untraced batches keep the plain reply shape byte-compatible with old
	// clients.
	ss.out = ss.serveFrame(wire.AppendBatch(nil, 3, 0, []wire.Op{{Code: wire.OpPhasedRead}})[4:], ss.out[:0])
	if f, err := wire.Parse(ss.out[4:]); err != nil || f.Staged {
		t.Fatalf("untraced batch got a staged reply: %+v err=%v", f, err)
	}
}

// TestNodeAttribution pins the Options.NodeID plumbing: spans from a
// node-identified server carry that node id.
func TestNodeAttribution(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServerOpts(ln, nil, Options{NodeID: 2})
	defer srv.Close()
	ss := srv.newSession()
	const trace = uint64(1<<63 | 1024)
	ss.out = ss.serveFrame(tracedFrame(trace, []wire.Op{{Code: wire.OpRename, Arg: 5}}), ss.out[:0])
	col := srv.Tracer()
	col.Fold()
	for _, s := range col.Chain(nil, trace) {
		if n, ok := obs.AttrNode(s.Attr); !ok || n != 2 {
			t.Fatalf("span %v: node = %d,%v, want 2,true", s.Kind.Name(), n, ok)
		}
	}
	if got := len(col.Chain(nil, trace)); got == 0 {
		t.Fatal("no spans recorded")
	}
}

// TestTraceEndpointServesSpans drives a sampled batch through the serve
// path and asserts the /trace dump then carries its spans as parseable
// JSON lines.
func TestTraceEndpointServesSpans(t *testing.T) {
	srv := newTestServer(t)
	ss := srv.newSession()
	const trace = uint64(1<<63 | 2048)
	ss.out = ss.serveFrame(tracedFrame(trace, []wire.Op{{Code: wire.OpRename, Arg: 3}}), ss.out[:0])

	body := srv.TraceText()
	sc := bufio.NewScanner(strings.NewReader(body))
	found := false
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("non-JSON /trace line %q: %v", sc.Text(), err)
		}
		if m["kind"] == "op" && m["op"] == "rename" && m["trace"] == fmt.Sprintf("%016x", trace) {
			found = true
		}
	}
	if !found {
		t.Fatalf("rename op span for trace %016x not on /trace:\n%s", trace, body)
	}
}

// metricsLineRE is the Prometheus text convention every /metrics line must
// match: name{labels} value.
var metricsLineRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]`)

// lintMetrics parses a dump as `name{labels} value` lines and rejects
// duplicate series.
func lintMetrics(t *testing.T, body string) {
	t.Helper()
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !metricsLineRE.MatchString(line) {
			t.Fatalf("metrics line does not parse as name{labels} value: %q", line)
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		if seen[series] {
			t.Fatalf("duplicate metrics series %q", series)
		}
		seen[series] = true
		val := line[strings.LastIndexByte(line, ' ')+1:]
		if val == "" {
			t.Fatalf("metrics line missing value: %q", line)
		}
	}
}

// TestMetricsFormatLint is the satellite format gate: every /metrics line
// must parse as name{labels} value with no duplicate series — on a bare
// server and on one with admission control armed, after real traffic
// (including traced batches, so the per-op and exemplar series print).
func TestMetricsFormatLint(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"bare", Options{NodeID: -1}},
		{"admission", Options{Admission: AdmissionConfig{PerShard: 2, Shards: 2, Queue: 2, MaxWait: time.Millisecond}, NodeID: 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			srv := NewServerOpts(ln, nil, tc.opts)
			defer srv.Close()
			ss := srv.newSession()
			payload := tracedFrame(1<<63|4096, []wire.Op{
				{Code: wire.OpRename, Arg: 1},
				{Code: wire.OpPhasedInc},
				{Code: wire.OpPhasedRead},
			})
			for i := 0; i < 8; i++ {
				ss.out = ss.serveFrame(payload, ss.out[:0])
			}
			ss.fold()
			srv.Tracer().Fold()
			body := srv.MetricsText()
			lintMetrics(t, body)
			for _, want := range []string{
				"netserve_op_latency_ns_bucket{le=",
				`netserve_op_latency_ns_bucket{op="rename",le=`,
				`netserve_op_latency_ns{op="rename",quantile="0.5"}`,
				`netserve_op_slowest_ns{op="rename",trace="`,
				"trace_spans_folded_total",
			} {
				if !strings.Contains(body, want) {
					t.Fatalf("[%s] metrics missing %q:\n%s", tc.name, want, body)
				}
			}
		})
	}
}

// TestBucketsMonotoneAcrossSeries pins the cumulative-bucket semantics on
// the live dump: counts never decrease as le grows, and the +Inf bucket
// equals the series count.
func TestBucketsMonotoneAcrossSeries(t *testing.T) {
	srv := newTestServer(t)
	ss := srv.newSession()
	payload := tracedFrame(1<<63|8192, []wire.Op{{Code: wire.OpRename, Arg: 1}, {Code: wire.OpPhasedInc}})
	for i := 0; i < 32; i++ {
		ss.out = ss.serveFrame(payload, ss.out[:0])
	}
	ss.fold()
	body := srv.MetricsText()
	re := regexp.MustCompile(`^netserve_op_latency_ns_bucket\{le="([0-9]+|\+Inf)"\} ([0-9]+)$`)
	prev := int64(-1)
	var last, count int64
	for _, line := range strings.Split(body, "\n") {
		if m := re.FindStringSubmatch(line); m != nil {
			var v int64
			fmt.Sscanf(m[2], "%d", &v)
			if v < prev {
				t.Fatalf("bucket counts not monotone: %q after %d", line, prev)
			}
			prev, last = v, v
		}
		if strings.HasPrefix(line, "netserve_op_latency_ns_count ") {
			fmt.Sscanf(strings.TrimPrefix(line, "netserve_op_latency_ns_count "), "%d", &count)
		}
	}
	if last != count || count == 0 {
		t.Fatalf("+Inf bucket %d != series count %d (or no samples)", last, count)
	}
}
