package renaming

import (
	"repro/internal/load"
	"repro/internal/netserve"
	"repro/internal/obs"
)

// This file is the facade over internal/obs, the end-to-end tracing
// layer: allocation-free span collectors behind every tier of the
// networked stack. A client arms a TraceCollector (WireClient.SetTrace /
// ClusterClient.SetTrace); from then on every frame carries a trace id,
// every reply echoes the server's stage decomposition (LoadStages — the
// report's per-stage breakdown), and sampled ids record spans at every
// hop: the client round trip, each cluster sub-batch, the server frame,
// each admission wait, and each shard op. Servers expose their side
// through WireServer.TraceText (recent spans and slowest-op exemplars as
// JSON lines), which cmd/renameserve serves as /trace next to /metrics
// and /debug/pprof; cmd/renameload -trace N prints the N slowest
// client-side chains. See doc.go ("Tracing") for the model.

type (
	// TraceCollector collects fixed-size spans into per-shard ring
	// buffers: recording is allocation-free and safe from any goroutine,
	// and a background folder maintains the recent window, slowest-span
	// exemplars, and per-trace chains the /trace surfaces read.
	TraceCollector = obs.Collector
	// LoadStages is the per-stage decomposition of a run's traced round
	// trips (rtt = srv(admit+exec+queue) + net/client; Report.Stages).
	LoadStages = load.Stages
)

// NewTraceCollector builds a disarmed collector sized for the host
// (Arm(rate) turns sampling on; rate rounds up to a power of two).
func NewTraceCollector() *TraceCollector { return obs.New(0) }

// WireOpName names a wire op code in trace output ("rename", "inc", ...).
func WireOpName(code uint8) string { return netserve.OpName(code) }
