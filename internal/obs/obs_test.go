package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestCollector(t *testing.T, shards int) *Collector {
	t.Helper()
	c := New(shards)
	t.Cleanup(c.Close)
	return c
}

// TestRecordAllocationFree pins the tentpole's core contract: recording a
// span performs zero heap allocations.
func TestRecordAllocationFree(t *testing.T) {
	c := newTestCollector(t, 4)
	s := Span{Trace: 42, Parent: 7, Start: 1, Dur: 100, Attr: PackOp(1, 3, 2, 0), Kind: KindOp}
	for i := 0; i < 64; i++ {
		c.Record(s)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Record(s) }); n != 0 {
		t.Fatalf("Record allocates %.1f allocs/op, want 0", n)
	}
}

// TestSampledAllocationFree pins the disarmed fast path too: the check a
// disarmed serving hop pays is one load and one branch, never an alloc.
func TestSampledAllocationFree(t *testing.T) {
	c := newTestCollector(t, 1)
	if n := testing.AllocsPerRun(1000, func() {
		if c.Sampled(12345) {
			t.Error("disarmed collector sampled")
		}
	}); n != 0 {
		t.Fatalf("Sampled allocates %.1f allocs/op, want 0", n)
	}
}

func TestSamplingMask(t *testing.T) {
	c := newTestCollector(t, 1)
	if c.Sampled(c.NextTrace()) {
		t.Fatal("disarmed collector sampled a trace")
	}
	c.Arm(1)
	for i := 0; i < 16; i++ {
		if !c.Sampled(c.NextTrace()) {
			t.Fatal("rate 1 must sample every trace")
		}
	}
	c.Arm(3) // rounds up to 4
	if got := c.Rate(); got != 4 {
		t.Fatalf("Arm(3) rate = %d, want 4", got)
	}
	n := 0
	const total = 4096
	for i := 0; i < total; i++ {
		if c.Sampled(c.NextTrace()) {
			n++
		}
	}
	if n != total/4 {
		t.Fatalf("rate 4 sampled %d of %d consecutive traces, want exactly %d", n, total, total/4)
	}
	c.Arm(0)
	if c.Rate() != 0 {
		t.Fatal("Arm(0) must disarm")
	}
}

func TestNextTraceNonzeroDistinct(t *testing.T) {
	c := newTestCollector(t, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		tr := c.NextTrace()
		if tr == 0 {
			t.Fatal("NextTrace returned 0")
		}
		if seen[tr] {
			t.Fatalf("NextTrace repeated %x", tr)
		}
		seen[tr] = true
	}
}

func TestFoldRecentChain(t *testing.T) {
	c := newTestCollector(t, 2)
	const trace = uint64(0x8000000000000100)
	root := c.Record(Span{Trace: trace, Start: 10, Dur: 500, Attr: PackOps(8, 1), Kind: KindFrame})
	c.Record(Span{Trace: trace, Parent: root, Start: 12, Dur: 300, Attr: PackOp(1, 5, 0, 1), Kind: KindOp})
	c.Record(Span{Trace: trace + 4, Start: 20, Dur: 100, Attr: PackOp(1, 2, 0, 1), Kind: KindOp})
	c.Fold()
	if got := c.Folded(); got != 3 {
		t.Fatalf("Folded = %d, want 3", got)
	}
	recent := c.Recent(nil, 0)
	if len(recent) != 3 {
		t.Fatalf("Recent returned %d spans, want 3", len(recent))
	}
	chain := c.Chain(nil, trace)
	if len(chain) != 2 {
		t.Fatalf("Chain(%x) returned %d spans, want 2", trace, len(chain))
	}
	for _, s := range chain {
		if s.Trace != trace {
			t.Fatalf("chain span has trace %x, want %x", s.Trace, trace)
		}
	}
	var op Span
	for _, s := range chain {
		if s.Kind == KindOp {
			op = s
		}
	}
	if op.Parent != root {
		t.Fatalf("op parent = %d, want %d", op.Parent, root)
	}
}

func TestExemplarsKeepSlowest(t *testing.T) {
	c := newTestCollector(t, 1)
	for d := int64(1); d <= 100; d++ {
		c.Record(Span{Trace: uint64(d), Start: d, Dur: d, Attr: PackOp(1, 0, 0, 0), Kind: KindOp})
	}
	c.Fold()
	if s := c.Slowest(KindOp, 1); s.Dur != 100 {
		t.Fatalf("Slowest dur = %d, want 100", s.Dur)
	}
	ex := c.Exemplars(nil, KindOp)
	if len(ex) != exemplarK {
		t.Fatalf("Exemplars returned %d spans, want %d", len(ex), exemplarK)
	}
	for i, s := range ex {
		if want := int64(100 - i); s.Dur != want {
			t.Fatalf("exemplar %d dur = %d, want %d (slowest first)", i, s.Dur, want)
		}
	}
	// A different op code occupies its own row.
	c.Record(Span{Trace: 7, Start: 1, Dur: 9999, Attr: PackOp(2, 0, 0, 0), Kind: KindOp})
	c.Fold()
	if s := c.Slowest(KindOp, 2); s.Dur != 9999 {
		t.Fatalf("Slowest(op 2) dur = %d, want 9999", s.Dur)
	}
	if s := c.Slowest(KindOp, 1); s.Dur != 100 {
		t.Fatalf("Slowest(op 1) disturbed by op 2: dur = %d, want 100", s.Dur)
	}
}

func TestRingOverwriteDropsOldest(t *testing.T) {
	c := newTestCollector(t, 1)
	// Stop the background folder first so nothing drains the ring while it
	// overfills; Record and Fold stay valid after Close.
	c.Close()
	// Overfill one ring without folding: the fold must keep exactly the
	// newest ringLen spans and account only those.
	for i := 0; i < 3*ringLen; i++ {
		c.Record(Span{Trace: uint64(i + 1), Start: int64(i), Dur: 1, Kind: KindOp, Attr: PackOp(1, 0, 0, 0)})
	}
	c.Fold()
	if got := c.Folded(); got != ringLen {
		t.Fatalf("Folded = %d, want %d", got, ringLen)
	}
	if got := c.Chain(nil, 2*ringLen); len(got) != 0 {
		t.Fatalf("overwritten span %d still folded: %v", 2*ringLen, got)
	}
	if got := c.Chain(nil, 2*ringLen+1); len(got) != 1 {
		t.Fatalf("oldest kept span %d folded %d times, want once", 2*ringLen+1, len(got))
	}
}

func TestWriteTraceJSONLines(t *testing.T) {
	c := newTestCollector(t, 1)
	c.Record(Span{Trace: 0x8000000000000200, Start: 5, Dur: 250, Attr: PackOp(1, 3, 1, 2), Kind: KindOp})
	c.Record(Span{Trace: 0x8000000000000200, Start: 4, Dur: 400, Attr: PackOps(16, 2), Kind: KindFrame})
	c.Record(Span{Trace: 0x8000000000000300, Start: 6, Dur: 90, Attr: PackAdmit(75, true, 2), Kind: KindAdmit})
	var b bytes.Buffer
	c.WriteTrace(&b, func(op uint8) string {
		if op == 1 {
			return "rename"
		}
		return ""
	})
	sc := bufio.NewScanner(&b)
	lines, kinds := 0, map[string]int{}
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("non-JSON trace line %q: %v", sc.Text(), err)
		}
		k, _ := m["kind"].(string)
		kinds[k]++
		switch k {
		case "op":
			if m["op"] != "rename" || m["shard"].(float64) != 3 || m["node"].(float64) != 2 {
				t.Fatalf("op span fields wrong: %v", m)
			}
		case "admit":
			if m["wait_ns"].(float64) != 75 || m["shed"] != true {
				t.Fatalf("admit span fields wrong: %v", m)
			}
		}
		lines++
	}
	if kinds["op"] == 0 || kinds["frame"] == 0 || kinds["admit"] == 0 || kinds["summary"] != 1 {
		t.Fatalf("trace dump missing kinds: %v (%d lines)", kinds, lines)
	}
}

func TestWriteChains(t *testing.T) {
	c := newTestCollector(t, 1)
	const trace = uint64(0x8000000000000400)
	root := c.Record(Span{Trace: trace, Start: 1, Dur: 5e6, Attr: PackOps(64, -1), Kind: KindGather})
	c.Record(Span{Trace: trace, Parent: root, Start: 2, Dur: 4e6, Attr: PackOps(32, 0), Kind: KindSubBatch})
	c.Record(Span{Trace: trace, Parent: root, Start: 2, Dur: 3e6, Attr: PackOp(1, 9, 0, 0), Kind: KindOp})
	var b bytes.Buffer
	c.WriteChains(&b, 3, nil)
	out := b.String()
	for _, want := range []string{"gather", "sub_batch", "shard=9", "node=0", "ops=64"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chain report missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentRecordFold exercises recorders racing the folder — the
// seqlock protocol must stay consistent under the race detector.
func TestConcurrentRecordFold(t *testing.T) {
	c := newTestCollector(t, 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Record(Span{Trace: uint64(g)<<32 | uint64(i) | 1<<63, Start: int64(i), Dur: int64(i % 1000), Attr: PackOp(uint8(g&3), i&7, 0, g), Kind: KindOp})
			}
		}(g)
	}
	deadline := time.After(200 * time.Millisecond)
	for {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			c.Fold()
			if c.Folded() == 0 {
				t.Fatal("nothing folded under concurrent load")
			}
			c.Recent(nil, 128)
			return
		default:
			c.Fold()
			c.Recent(nil, 16)
		}
	}
}

func TestAttrRoundTrip(t *testing.T) {
	a := PackOp(3, 517, 2, 11)
	if AttrOp(a) != 3 || AttrShard(a) != 517 || AttrMode(a) != 2 {
		t.Fatalf("PackOp round trip failed: op=%d shard=%d mode=%d", AttrOp(a), AttrShard(a), AttrMode(a))
	}
	if n, ok := AttrNode(a); !ok || n != 11 {
		t.Fatalf("AttrNode = %d,%v want 11,true", n, ok)
	}
	if n, ok := AttrNode(PackOp(1, 0, 0, -1)); ok {
		t.Fatalf("node unset but AttrNode = %d,true", n)
	}
	f := PackOps(70000, 4) // caps at 0xffff
	if AttrOps(f) != 0xffff {
		t.Fatalf("AttrOps cap = %d, want %d", AttrOps(f), 0xffff)
	}
	w := PackAdmit(1<<40, false, 2) // caps at 32 bits
	if AttrWait(w) != maxWaitNS {
		t.Fatalf("AttrWait cap = %d, want %d", AttrWait(w), int64(maxWaitNS))
	}
	if AttrShed(w) {
		t.Fatal("shed flag set unexpectedly")
	}
	if n, ok := AttrNode(w); !ok || n != 2 {
		t.Fatalf("admit AttrNode = %d,%v want 2,true", n, ok)
	}
	s := PackAdmit(123, true, 0)
	if AttrWait(s) != 123 || !AttrShed(s) {
		t.Fatalf("PackAdmit(123,true) wait=%d shed=%v", AttrWait(s), AttrShed(s))
	}
}

func TestKindNames(t *testing.T) {
	for k := KindClientOp; k <= KindOp; k++ {
		if k.Name() == "" || k.Name() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(99).Name() != "unknown" {
		t.Fatal("out-of-range kind must name as unknown")
	}
}
