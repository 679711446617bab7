package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestBatchRoundTrip(t *testing.T) {
	ops := []Op{
		{OpRename, 7},
		{OpWave, 8},
		{OpPhasedInc, 0},
		{OpPhasedRead, 0},
		{OpPhasedReadStrict, 0},
	}
	buf := AppendBatch(nil, 42, 1_000_000, ops)
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	f, err := Parse(payload)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Type != TBatch || f.Seq != 42 || f.Deadline != 1_000_000 || f.Ops() != len(ops) {
		t.Fatalf("header mismatch: %+v", f)
	}
	for i, want := range ops {
		code, arg := f.Op(i)
		if code != want.Code || arg != want.Arg {
			t.Fatalf("op %d: got (%d, %d), want %+v", i, code, arg, want)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	vals := []uint64{1, 0, 99, 1 << 60}
	buf := AppendReply(nil, 7, vals)
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	f, err := Parse(payload)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Type != TReply || f.Seq != 7 || f.Ops() != len(vals) {
		t.Fatalf("header mismatch: %+v", f)
	}
	for i, want := range vals {
		if got := f.Val(i); got != want {
			t.Fatalf("val %d: got %d, want %d", i, got, want)
		}
	}
}

func TestTracedBatchRoundTrip(t *testing.T) {
	ops := []Op{{OpRename, 7}, {OpPhasedInc, 0}}
	for _, sampled := range []bool{false, true} {
		buf := AppendBatchTraced(nil, 42, 1_000_000, ops, 0xabcdef0123456789, sampled)
		payload, err := ReadFrame(bytes.NewReader(buf), nil)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		f, err := Parse(payload)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		if !f.Traced || f.Trace != 0xabcdef0123456789 || f.Sampled != sampled {
			t.Fatalf("trace extension mismatch (sampled=%v): %+v", sampled, f)
		}
		if f.Type != TBatch || f.Seq != 42 || f.Deadline != 1_000_000 || f.Ops() != len(ops) {
			t.Fatalf("base fields disturbed by extension: %+v", f)
		}
		for i, want := range ops {
			code, arg := f.Op(i)
			if code != want.Code || arg != want.Arg {
				t.Fatalf("op %d: got (%d, %d), want %+v", i, code, arg, want)
			}
		}
	}
	// A plain batch must parse as untraced.
	payload, _ := ReadFrame(bytes.NewReader(AppendBatch(nil, 1, 0, ops)), nil)
	if f, err := Parse(payload); err != nil || f.Traced || f.Trace != 0 || f.Sampled {
		t.Fatalf("plain batch parsed as traced: %+v err=%v", f, err)
	}
}

func TestTracedBatchReservedFlagsRejected(t *testing.T) {
	buf := AppendBatchTraced(nil, 1, 0, []Op{{OpRename, 7}}, 99, true)
	for _, bit := range []byte{0x02, 0x40, 0x80} {
		bad := append([]byte{}, buf...)
		bad[len(bad)-1] |= bit
		payload, err := ReadFrame(bytes.NewReader(bad), nil)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if _, err := Parse(payload); !errors.Is(err, ErrMalformed) {
			t.Fatalf("reserved flag %#x accepted: %v", bit, err)
		}
	}
}

func TestStagedReplyRoundTrip(t *testing.T) {
	vals := []uint64{1, 99}
	buf := AppendReplyStaged(nil, 7, vals, 5000, 1200, 3300)
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	f, err := Parse(payload)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !f.Staged || f.SrvNS != 5000 || f.AdmitNS != 1200 || f.ExecNS != 3300 {
		t.Fatalf("stage extension mismatch: %+v", f)
	}
	if f.Type != TReply || f.Seq != 7 || f.Ops() != len(vals) {
		t.Fatalf("base fields disturbed by extension: %+v", f)
	}
	for i, want := range vals {
		if got := f.Val(i); got != want {
			t.Fatalf("val %d: got %d, want %d", i, got, want)
		}
	}
	payload, _ = ReadFrame(bytes.NewReader(AppendReply(nil, 7, vals)), nil)
	if f, err := Parse(payload); err != nil || f.Staged || f.SrvNS != 0 {
		t.Fatalf("plain reply parsed as staged: %+v err=%v", f, err)
	}
}

func TestMaxTracedBatchFits(t *testing.T) {
	// A full MaxOps batch carrying the tracing extension must survive
	// ReadFrame's cap — the cap grew with the extension.
	ops := make([]Op, MaxOps)
	for i := range ops {
		ops[i] = Op{OpRename, uint64(i)}
	}
	buf := AppendBatchTraced(nil, 1, 0, ops, 42, true)
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatalf("ReadFrame rejected a max traced batch: %v", err)
	}
	if f, err := Parse(payload); err != nil || !f.Traced || f.Ops() != MaxOps {
		t.Fatalf("max traced batch: %+v err=%v", f, err)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	buf := AppendError(nil, 9, EDeadline, "deadline exceeded")
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	f, err := Parse(payload)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Type != TError || f.Seq != 9 || f.Code != EDeadline || string(f.Msg) != "deadline exceeded" {
		t.Fatalf("error frame mismatch: %+v", f)
	}
}

func TestErrorMessageTruncated(t *testing.T) {
	long := strings.Repeat("x", MaxErrMsg+100)
	buf := AppendError(nil, 1, EMalformed, long)
	payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	f, err := Parse(payload)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Msg) != MaxErrMsg {
		t.Fatalf("message not truncated to cap: %d bytes", len(f.Msg))
	}
}

// A declared length beyond the cap must be rejected before the frame body
// is read (and before any allocation): the reader below would fail the
// test if ReadFrame tried to consume the body.
func TestReadFrameRejectsOversizedBeforeReading(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	r := &eofAfter{data: hdr[:]}
	_, err := ReadFrame(r, nil)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	if r.bodyReads != 0 {
		t.Fatalf("ReadFrame read %d bytes past the oversized header", r.bodyReads)
	}
}

type eofAfter struct {
	data      []byte
	off       int
	bodyReads int
}

func (r *eofAfter) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		r.bodyReads += len(p)
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func TestReadFrameTruncatedBody(t *testing.T) {
	buf := AppendBatch(nil, 1, 0, []Op{{OpRename, 1}})
	_, err := ReadFrame(bytes.NewReader(buf[:len(buf)-3]), nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want ErrUnexpectedEOF", err)
	}
}

func TestParseRejectsLengthMismatch(t *testing.T) {
	ok := AppendBatch(nil, 1, 0, []Op{{OpRename, 1}, {OpPhasedInc, 0}})
	payload := ok[4:] // strip the length prefix; Parse sees the payload only
	cases := map[string][]byte{
		"empty":            {},
		"unknown type":     {0x7f, 0, 0},
		"short header":     payload[:10],
		"truncated op":     payload[:len(payload)-1],
		"trailing garbage": append(append([]byte(nil), payload...), 0xee),
	}
	// Declared count exceeding the body.
	big := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint16(big[17:19], 3)
	cases["count overruns body"] = big
	// Zero op count.
	zero := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint16(zero[17:19], 0)
	cases["zero ops"] = zero[:reqHeader]

	for name, p := range cases {
		if _, err := Parse(p); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}

func TestAppendersAllocationFreeWithCapacity(t *testing.T) {
	ops := []Op{{OpRename, 1}, {OpPhasedInc, 0}, {OpPhasedRead, 0}}
	vals := []uint64{1, 2, 3}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendBatch(buf[:0], 1, 0, ops)
		buf = AppendReply(buf[:0], 1, vals)
		buf = AppendError(buf[:0], 1, EBadOp, "bad opcode")
	}); n != 0 {
		t.Fatalf("appenders allocate %.1f allocs/run with capacity", n)
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	frame := AppendBatch(nil, 1, 0, []Op{{OpRename, 1}})
	buf := make([]byte, 0, MaxFrame)
	r := bytes.NewReader(nil)
	if n := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		var err error
		buf, err = ReadFrame(r, buf)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ReadFrame allocates %.1f allocs/run with a sized buffer", n)
	}
}

// Parse must return views, not copies: mutating the payload must show
// through the frame (this is the zero-copy contract the server relies on).
func TestParseIsZeroCopy(t *testing.T) {
	buf := AppendBatch(nil, 1, 0, []Op{{OpRename, 5}})
	payload := buf[4:]
	f, err := Parse(payload)
	if err != nil {
		t.Fatal(err)
	}
	payload[reqHeader+1] = 0xAA // low byte of op 0's arg
	if _, arg := f.Op(0); arg != 0xAA {
		t.Fatalf("Op(0) arg = %d; parse copied instead of aliasing", arg)
	}
}

func TestMultipleFramesOneStream(t *testing.T) {
	var stream []byte
	stream = AppendBatch(stream, 1, 0, []Op{{OpRename, 1}})
	stream = AppendReply(stream, 2, []uint64{9})
	stream = AppendError(stream, 3, ETooLarge, "cap")
	r := bytes.NewReader(stream)
	var buf []byte
	wantTypes := []byte{TBatch, TReply, TError}
	for i, want := range wantTypes {
		var err error
		buf, err = ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		f, err := Parse(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != want || f.Seq != uint64(i+1) {
			t.Fatalf("frame %d: type %d seq %d", i, f.Type, f.Seq)
		}
	}
	if _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("trailing read: %v, want EOF", err)
	}
}
