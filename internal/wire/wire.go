// Package wire is the batched binary wire protocol of the networked
// serving tier: a length-prefixed frame format carrying batches of
// operations (rename, phased-counter inc/read/read-strict, k-process
// execution waves) between a pipelining client and the shard-pool server
// (internal/netserve).
//
// The format exists to amortize the per-frame costs that dominate off-box
// serving — two syscalls and a scheduler wakeup per round trip — over many
// operations, so the wire path can recover most of the in-process
// throughput (BENCHMARKS.md "The wire protocol" has the batch-size sweep).
// Design rules:
//
//   - Fixed-size operations. A request op is exactly opSize bytes (opcode +
//     one 64-bit argument), a reply op exactly 8 (one value), so decoding
//     is index arithmetic into the frame body — no per-op variable-length
//     scan, no intermediate structures. Parse returns views into the
//     caller's buffer: the decode path allocates nothing.
//   - Hard caps before allocation. ReadFrame rejects a declared frame
//     length beyond MaxFrame *before* growing its buffer, so a hostile or
//     corrupt length prefix cannot make the server allocate; Parse then
//     requires the payload length to match the declared op count exactly,
//     so a frame cannot smuggle trailing bytes or overread its body
//     (FuzzDecodeFrame pins no-panic/no-overread on arbitrary input).
//   - Explicit correlation. Every batch carries a client-chosen sequence
//     number echoed by the reply (or the error frame), so a client can keep
//     many batches in flight per connection and match replies out of a
//     single reader loop — the pipelining contract.
//   - Deadline propagation. A batch carries a relative processing budget in
//     nanoseconds (0 = none), measured by the server from frame dequeue; a
//     batch that overruns it mid-flight gets an EDeadline error frame
//     instead of silently stretching the tail.
//
// Frame layout (all integers little-endian):
//
//	frame   = len:u32 payload          // len = payload bytes, ≤ MaxFrame
//	payload = TBatch seq:u64 deadline:u64 count:u16 {code:u8 arg:u64}*count [trace:u64 flags:u8]
//	        | TReply seq:u64 count:u16 {val:u64}*count [srv:u64 admit:u64 exec:u64]
//	        | TError seq:u64 code:u16 msglen:u16 msg
//
// The bracketed tails are the tracing extensions, versioned by length: a
// TBatch may carry a trace context — an 8-byte trace id plus a flags byte
// whose bit 0 marks the batch sampled (the remaining bits are reserved
// and must be zero) — and a TReply may echo the server's stage
// decomposition — total server, admission-wait, and execute nanoseconds
// for the batch. The declared count field keeps the grammar unambiguous:
// a payload must be exactly the base form or the base form plus exactly
// one extension. A peer predating the extensions still parses every
// unextended frame, and an extended frame fails that peer's exact-length
// check as ErrMalformed instead of being misread — so tracing is opt-in
// per deployment (renameload -trace against current servers), and a
// server echoes the stage extension only on replies to traced batches.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
)

// Frame types.
const (
	// TBatch is a request frame: a batch of operations under one sequence
	// number and one deadline budget.
	TBatch byte = 0x01
	// TReply is a response frame: one value per op of the batch it answers.
	TReply byte = 0x02
	// TError is a response frame reporting that the whole batch failed
	// (malformed frame, unknown opcode, deadline overrun). Seq 0 reports a
	// connection-level error (the request frame's seq was unreadable).
	TError byte = 0x03
)

// OpCode identifies one operation kind inside a batch.
type OpCode byte

const (
	// OpRename checks a strong adaptive renamer out of the keyed shard
	// (arg = routing key) and runs one rename; the reply value is the
	// acquired name.
	OpRename OpCode = 1
	// Codes 2 and 3 are retired and not reused. They served a pooled
	// monotone counter that was reset after every op, so every increment
	// returned 1 and every read 0. The phased ops below serve the one
	// shared counter; a server answers 2 and 3 with EBadOp.

	// OpWave runs one k-process execution wave against a checked-out
	// renamer (arg = k, capped by the server); the reply value is the
	// wave width actually run.
	OpWave OpCode = 4
	// OpPhasedInc increments the shared contention-adaptive phased counter
	// (arg ignored); the reply value is 0. The ops of one run — a maximal
	// run of consecutive OpPhasedIncs in one batch, which Frame.Run finds —
	// are in flight at once, so a server may apply the run as one add of
	// its length: other clients then see the run's increments land
	// together, never a part of them. Every op of the run still replies 0
	// and counts as one op.
	OpPhasedInc OpCode = 5
	// OpPhasedRead reads the phased counter's fast monotone-consistent
	// value (arg ignored).
	OpPhasedRead OpCode = 6
	// OpPhasedReadStrict forces a full reconciliation and reads the
	// authoritative phased-counter value (arg ignored).
	OpPhasedReadStrict OpCode = 7
)

// Error codes carried by TError frames.
const (
	// EMalformed: the request frame failed to parse.
	EMalformed uint16 = 1
	// ETooLarge: the request frame declared a length beyond MaxFrame.
	ETooLarge uint16 = 2
	// EBadOp: the batch contained an unknown opcode or frame type.
	EBadOp uint16 = 3
	// EDeadline: the batch overran its deadline budget mid-flight.
	EDeadline uint16 = 4
	// EShed: the server's admission control refused the batch — a shard
	// queue was full, or a queued op could not be admitted within the
	// batch's deadline budget. Unlike the other codes this one is
	// retryable: the server did not start the failing op, so the client
	// may resubmit (clients surface it as a typed retryable error).
	EShed uint16 = 5
)

// Wire geometry. An op is one opcode byte plus one 64-bit argument; the
// three payload headers are fixed-size. MaxOps bounds a batch, and
// MaxFrame — the largest well-formed payload, a full batch — is the cap
// ReadFrame enforces before allocating.
const (
	opSize    = 9
	valSize   = 8
	reqHeader = 1 + 8 + 8 + 2 // type seq deadline count
	repHeader = 1 + 8 + 2     // type seq count
	errHeader = 1 + 8 + 2 + 2 // type seq code msglen
	batchExt  = 8 + 1         // trace id + flags (TBatch tracing extension)
	replyExt  = 8 + 8 + 8     // srv + admit + exec ns (TReply stage extension)

	// flagSampled marks a traced batch as sampled; the remaining flag bits
	// are reserved and must be zero.
	flagSampled = 0x01

	// MaxOps is the largest op count of one batch (and one reply).
	MaxOps = 4096
	// MaxFrame is the largest legal payload length: a full batch carrying
	// the tracing extension.
	MaxFrame = reqHeader + opSize*MaxOps + batchExt
	// MaxErrMsg bounds the message of an error frame.
	MaxErrMsg = 256
)

// Decode errors.
var (
	// ErrTooLarge reports a declared frame length beyond MaxFrame. ReadFrame
	// returns it before allocating anything for the frame.
	ErrTooLarge = errors.New("wire: frame length exceeds cap")
	// ErrMalformed reports a payload that violates the frame grammar
	// (unknown type, op count out of range, length mismatch).
	ErrMalformed = errors.New("wire: malformed frame")
)

// Op is one request operation: an opcode and its 64-bit argument (a shard
// routing key for the per-op kinds, the wave width for OpWave).
type Op struct {
	Code OpCode
	Arg  uint64
}

// Frame is one parsed payload. All byte-slice fields are views into the
// buffer given to Parse — valid only until that buffer is reused.
type Frame struct {
	Type byte
	Seq  uint64
	// Deadline is the batch's relative processing budget in nanoseconds
	// (TBatch only; 0 = none).
	Deadline uint64
	// Code and Msg are the error frames' fields (TError only).
	Code uint16
	Msg  []byte

	// Trace and Sampled are the TBatch tracing extension: Traced reports
	// whether the frame carried it (Trace/Sampled are zero otherwise).
	Traced  bool
	Sampled bool
	Trace   uint64

	// SrvNS/AdmitNS/ExecNS are the TReply stage extension — the server's
	// total, admission-wait, and execute nanoseconds for the batch; Staged
	// reports whether the frame carried it.
	Staged  bool
	SrvNS   uint64
	AdmitNS uint64
	ExecNS  uint64

	n    int
	body []byte // ops (TBatch) or values (TReply), exactly n of them
}

// ReadFrame reads one length-prefixed frame payload from r into buf,
// growing buf only when the declared length exceeds its capacity, and
// returns the payload slice (aliasing buf's storage — pass it back on the
// next call to reuse the allocation). A declared length beyond MaxFrame is
// rejected with ErrTooLarge before any allocation; a short read of a
// declared frame returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix is read into the reusable buffer too: a local
	// array would escape through the io.Reader interface and cost one
	// allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 64)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf[:0], err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrame {
		return buf[:0], ErrTooLarge
	}
	if n == 0 {
		return buf[:0], ErrMalformed
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf[:0], err
	}
	return buf, nil
}

// Parse decodes one payload into a Frame of views — it allocates nothing
// and never reads outside p. The payload length must match the declared
// op/message count exactly; anything else is ErrMalformed.
func Parse(p []byte) (Frame, error) {
	if len(p) < 1 {
		return Frame{}, ErrMalformed
	}
	switch p[0] {
	case TBatch:
		if len(p) < reqHeader {
			return Frame{}, ErrMalformed
		}
		n := int(binary.LittleEndian.Uint16(p[17:19]))
		base := reqHeader + n*opSize
		if n == 0 || n > MaxOps || (len(p) != base && len(p) != base+batchExt) {
			return Frame{}, ErrMalformed
		}
		f := Frame{
			Type:     TBatch,
			Seq:      binary.LittleEndian.Uint64(p[1:9]),
			Deadline: binary.LittleEndian.Uint64(p[9:17]),
			n:        n,
			body:     p[reqHeader:base],
		}
		if len(p) == base+batchExt {
			flags := p[base+8]
			if flags&^flagSampled != 0 {
				// Reserved flag bits must be zero: a frame setting them is
				// from a future version this parser cannot honor, and
				// accepting it would break canonical re-encoding.
				return Frame{}, ErrMalformed
			}
			f.Traced = true
			f.Trace = binary.LittleEndian.Uint64(p[base : base+8])
			f.Sampled = flags&flagSampled != 0
		}
		return f, nil
	case TReply:
		if len(p) < repHeader {
			return Frame{}, ErrMalformed
		}
		n := int(binary.LittleEndian.Uint16(p[9:11]))
		base := repHeader + n*valSize
		if n == 0 || n > MaxOps || (len(p) != base && len(p) != base+replyExt) {
			return Frame{}, ErrMalformed
		}
		f := Frame{
			Type: TReply,
			Seq:  binary.LittleEndian.Uint64(p[1:9]),
			n:    n,
			body: p[repHeader:base],
		}
		if len(p) == base+replyExt {
			f.Staged = true
			f.SrvNS = binary.LittleEndian.Uint64(p[base : base+8])
			f.AdmitNS = binary.LittleEndian.Uint64(p[base+8 : base+16])
			f.ExecNS = binary.LittleEndian.Uint64(p[base+16 : base+24])
		}
		return f, nil
	case TError:
		if len(p) < errHeader {
			return Frame{}, ErrMalformed
		}
		ml := int(binary.LittleEndian.Uint16(p[11:13]))
		if ml > MaxErrMsg || len(p) != errHeader+ml {
			return Frame{}, ErrMalformed
		}
		return Frame{
			Type: TError,
			Seq:  binary.LittleEndian.Uint64(p[1:9]),
			Code: binary.LittleEndian.Uint16(p[9:11]),
			Msg:  p[errHeader:],
		}, nil
	}
	return Frame{}, ErrMalformed
}

// Ops returns the op count of a TBatch frame (the value count of a TReply).
func (f *Frame) Ops() int { return f.n }

// Op returns op i of a TBatch frame. i must be in [0, Ops()).
func (f *Frame) Op(i int) (OpCode, uint64) {
	o := f.body[i*opSize : i*opSize+opSize]
	return OpCode(o[0]), binary.LittleEndian.Uint64(o[1:9])
}

// Run returns op i of a TBatch frame and the length n of the run it
// starts: the maximal run of consecutive OpPhasedIncs from op i when op i
// is one (see OpPhasedInc), 1 for every other op. A server that walks a
// frame with i += n reads each op once. i must be in [0, Ops()).
func (f *Frame) Run(i int) (code OpCode, arg uint64, n int) {
	code, arg = f.Op(i)
	n = 1
	if code == OpPhasedInc {
		for i+n < f.n && OpCode(f.body[(i+n)*opSize]) == OpPhasedInc {
			n++
		}
	}
	return code, arg, n
}

// Val returns value i of a TReply frame. i must be in [0, Ops()).
func (f *Frame) Val(i int) uint64 {
	return binary.LittleEndian.Uint64(f.body[i*valSize : i*valSize+valSize])
}

// AppendBatch appends one length-prefixed TBatch frame to buf and returns
// the extended slice (allocation-free when buf has capacity). deadline is
// the batch's relative processing budget in nanoseconds (0 = none). Panics
// when ops is empty or exceeds MaxOps — an encoder misuse, not a wire
// condition.
func AppendBatch(buf []byte, seq, deadline uint64, ops []Op) []byte {
	if len(ops) == 0 || len(ops) > MaxOps {
		panic("wire: batch op count out of range")
	}
	buf = appendLen(buf, reqHeader+opSize*len(ops))
	buf = append(buf, TBatch)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, deadline)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ops)))
	for _, o := range ops {
		buf = append(buf, byte(o.Code))
		buf = binary.LittleEndian.AppendUint64(buf, o.Arg)
	}
	return buf
}

// AppendBatchTraced appends one length-prefixed TBatch frame carrying the
// tracing extension: trace is the 8-byte trace id propagated across hops,
// sampled marks the batch for span recording on the server. Same panics
// and allocation behavior as AppendBatch.
func AppendBatchTraced(buf []byte, seq, deadline uint64, ops []Op, trace uint64, sampled bool) []byte {
	if len(ops) == 0 || len(ops) > MaxOps {
		panic("wire: batch op count out of range")
	}
	buf = appendLen(buf, reqHeader+opSize*len(ops)+batchExt)
	buf = append(buf, TBatch)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, deadline)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ops)))
	for _, o := range ops {
		buf = append(buf, byte(o.Code))
		buf = binary.LittleEndian.AppendUint64(buf, o.Arg)
	}
	buf = binary.LittleEndian.AppendUint64(buf, trace)
	var flags byte
	if sampled {
		flags = flagSampled
	}
	return append(buf, flags)
}

// AppendReply appends one length-prefixed TReply frame to buf and returns
// the extended slice. Panics when vals is empty or exceeds MaxOps.
func AppendReply(buf []byte, seq uint64, vals []uint64) []byte {
	if len(vals) == 0 || len(vals) > MaxOps {
		panic("wire: reply value count out of range")
	}
	buf = appendLen(buf, repHeader+valSize*len(vals))
	buf = append(buf, TReply)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

// AppendReplyStaged appends one length-prefixed TReply frame carrying the
// stage-decomposition extension: the server's total, admission-wait, and
// execute nanoseconds for the batch, echoed so clients can split their
// observed round trip into queue/admit/execute/reply without a second
// request. Same panics and allocation behavior as AppendReply.
func AppendReplyStaged(buf []byte, seq uint64, vals []uint64, srvNS, admitNS, execNS uint64) []byte {
	if len(vals) == 0 || len(vals) > MaxOps {
		panic("wire: reply value count out of range")
	}
	buf = appendLen(buf, repHeader+valSize*len(vals)+replyExt)
	buf = append(buf, TReply)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = binary.LittleEndian.AppendUint64(buf, srvNS)
	buf = binary.LittleEndian.AppendUint64(buf, admitNS)
	return binary.LittleEndian.AppendUint64(buf, execNS)
}

// AppendError appends one length-prefixed TError frame to buf and returns
// the extended slice. Messages beyond MaxErrMsg are truncated.
func AppendError(buf []byte, seq uint64, code uint16, msg string) []byte {
	if len(msg) > MaxErrMsg {
		msg = msg[:MaxErrMsg]
	}
	buf = appendLen(buf, errHeader+len(msg))
	buf = append(buf, TError)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint16(buf, code)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	return append(buf, msg...)
}

func appendLen(buf []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(n))
}
