package renaming

import (
	"net"
	"time"

	"repro/internal/load"
	"repro/internal/netserve"
	"repro/internal/wire"
)

// This file is the facade over internal/wire and internal/netserve, the
// networked serving tier: a batched, length-prefixed binary protocol
// carrying rename/counter/wave operations, a server mapping connections
// onto the sharded serving pools, and a pipelining client that keeps many
// batches in flight per connection. See doc.go ("Networked serving") for
// the model and BENCHMARKS.md ("The wire protocol") for the batch-size
// sweep; cmd/renameserve and renameload -addr are the CLI front ends.

type (
	// WireServer serves the wire protocol over one listener, mapping each
	// connection onto a LoadTarget's pools. It speaks no HTTP: MetricsText
	// and TraceText return its observability dumps, which cmd/renameserve
	// serves over HTTP.
	WireServer = netserve.Server
	// WireClient is the pipelining wire client: group-committed Do calls
	// and explicit WireBatches, many in flight per connection, correlated
	// by sequence number.
	WireClient = netserve.Client
	// WireBatch is an explicit operation batch (Send now, Wait later).
	WireBatch = netserve.Batch
	// WireOp identifies one operation kind on the wire.
	WireOp = wire.OpCode
	// WireError is a server-reported batch failure (the connection
	// survives).
	WireError = netserve.WireError
	// WireDroppedError reports a dropped connection's in-flight tail.
	WireDroppedError = netserve.DroppedError
	// RemoteTransport executes single operations against a remote serving
	// tier: Op takes a WireOp, a routing key and the op's wire argument.
	// WireClient and ClusterClient implement it (RunScenarioRemote drives
	// it).
	RemoteTransport = load.Remote
)

// Operation kinds of the wire protocol.
const (
	WireRename           = wire.OpRename
	WireInc              = wire.OpInc
	WireRead             = wire.OpRead
	WireWave             = wire.OpWave
	WirePhasedInc        = wire.OpPhasedInc
	WirePhasedRead       = wire.OpPhasedRead
	WirePhasedReadStrict = wire.OpPhasedReadStrict
)

// ListenWire listens on addr (TCP) and serves the wire protocol, and only
// the wire protocol, against tg's pools (nil builds a fresh
// NewLoadTarget(1)).
func ListenWire(addr string, tg *LoadTarget) (*WireServer, error) {
	return netserve.ListenAndServe(addr, tg)
}

// ServeWire serves the wire protocol on an existing listener.
func ServeWire(ln net.Listener, tg *LoadTarget) *WireServer {
	return netserve.NewServer(ln, tg)
}

// DialWire connects a pipelining client to a wire server, retrying for up
// to wait.
func DialWire(addr string, wait time.Duration) (*WireClient, error) {
	return netserve.Dial(addr, wait)
}

// RunScenarioRemote executes a scenario over a remote transport with the
// harness's scheduling and latency accounting unchanged — the wire
// counterpart of RunScenario. Failed remote operations fail the verdict.
func RunScenarioRemote(s Scenario, rem RemoteTransport) *LoadReport {
	return load.RunRemote(s, rem)
}

// RunScenarioWire dials a wire server, executes the scenario over the
// connection, and closes it. Fault plans are an in-process arming surface
// and do not travel over the wire; remote waves run fault-free.
func RunScenarioWire(s Scenario, addr string) (*LoadReport, error) {
	c, err := netserve.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return load.RunRemote(s, c), nil
}
