package load

import "repro/internal/wire"

// Remote is a transport that executes one operation against a remote
// serving tier and blocks for its result. The wire client
// (internal/netserve) implements it; RunRemote drives the same open- and
// closed-loop generators over it that Run drives over in-process pools,
// with the scheduled-arrival latency accounting unchanged — so wire and
// in-process runs of one scenario are directly comparable.
//
// code is the wire operation, key routes it to a node (transports with a
// single server ignore it) and arg is its wire argument: the shard key for
// the per-op kinds, the width for a wave, 0 for the phased counter.
// Implementations must be safe for concurrent use — every generator worker
// calls Op from its own goroutine.
type Remote interface {
	Op(code wire.OpCode, key, arg uint64) (uint64, error)
}

// RunRemote executes scenario s against rem — the wire path's counterpart
// of Run. Latency is measured exactly as in-process: from the scheduled
// arrival on open-loop scenarios (coordinated-omission correction
// included), so the reported quantiles absorb the round trips and any
// server-side queueing. Failed remote operations are counted in
// Report.RemoteErrs and fail the verdict — except sheds (IsShed), which
// are the server's admission control working as designed: they count in
// Report.Sheds, land in the latency distribution like any completed round
// trip, and leave the verdict alone.
func RunRemote(s Scenario, rem Remote) *Report {
	return run(s, nil, rem)
}

// IsShed reports whether a remote operation's error was a server
// admission shed — a retryable refusal (the server started nothing)
// rather than a hard failure. Transports mark sheds by returning an error
// whose chain contains a `Shed() bool` method returning true (the wire
// client's *netserve.ShedError does).
func IsShed(err error) bool {
	for err != nil {
		if sh, ok := err.(interface{ Shed() bool }); ok && sh.Shed() {
			return true
		}
		switch x := err.(type) {
		case interface{ Unwrap() error }:
			err = x.Unwrap()
		default:
			return false
		}
	}
	return false
}

// Namer optionally names a Remote's transport in reports ("wire" when
// absent; the cluster client reports "cluster").
type Namer interface {
	TransportName() string
}

// Stages is the cumulative per-stage decomposition of a transport's traced
// round trips: for every traced frame the server echoes how long it held
// the frame (Srv) and how much of that was admission waiting (Admit) and
// shard execution (Exec); the client adds the wall round trip (RTT). The
// two derived stages close the accounting:
//
//	queue  = Srv − Admit − Exec   (server-side scheduling/parse overhead)
//	reply  = RTT − Srv            (network + client completion)
//
// All fields are nanosecond sums over Frames frames, so a mean per frame
// is field/Frames.
type Stages struct {
	Frames  uint64 `json:"frames"`
	RTTNS   uint64 `json:"rtt_ns"`
	SrvNS   uint64 `json:"srv_ns"`
	AdmitNS uint64 `json:"admit_ns"`
	ExecNS  uint64 `json:"exec_ns"`
}

// Sub returns the stage deltas s − o (a run's share of a cumulative
// counter set; saturates at zero so a racing reader cannot go negative).
func (s Stages) Sub(o Stages) Stages {
	sub := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	return Stages{
		Frames:  sub(s.Frames, o.Frames),
		RTTNS:   sub(s.RTTNS, o.RTTNS),
		SrvNS:   sub(s.SrvNS, o.SrvNS),
		AdmitNS: sub(s.AdmitNS, o.AdmitNS),
		ExecNS:  sub(s.ExecNS, o.ExecNS),
	}
}

// QueueNS returns the derived server queue/overhead stage sum.
func (s Stages) QueueNS() uint64 {
	if s.SrvNS < s.AdmitNS+s.ExecNS {
		return 0
	}
	return s.SrvNS - s.AdmitNS - s.ExecNS
}

// ReplyNS returns the derived network + client completion stage sum.
func (s Stages) ReplyNS() uint64 {
	if s.RTTNS < s.SrvNS {
		return 0
	}
	return s.RTTNS - s.SrvNS
}

// StageSource is a Remote that decomposes its round trips into stages
// (the wire and cluster clients do, once tracing is armed). RunRemote
// snapshots it around the run and reports the delta in Report.Stages.
type StageSource interface {
	Stages() Stages
}
