package renaming

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/load"
	"repro/internal/netserve"
)

// This file is the facade over internal/cluster, the horizontal serving
// tier: N wire servers, each owning a disjoint slice of the cluster name
// space, behind a client-side consistent-hash router with scatter-gather
// batch fan-out — plus the admission-control surface of the single-node
// tier it composes (shed-on-deadline overload protection). See doc.go
// ("Clustered serving") for the model and BENCHMARKS.md ("The cluster
// tier") for the fan-out measurements; cmd/renameserve -ring/-node and
// cmd/renameload -ring are the CLI front ends.

type (
	// ClusterRing is the static routing table of a cluster: node id →
	// address → disjoint name range, with deterministic jump-hash key
	// placement.
	ClusterRing = cluster.Ring
	// ClusterNode is one node of a ring (id, wire address, and the cluster
	// name range [Base, Base+Span) it owns).
	ClusterNode = cluster.Node
	// ClusterClient routes operations over one pipelined wire connection
	// per ring node; rename replies come back offset into the owning
	// node's range (cluster-wide names).
	ClusterClient = cluster.Client
	// ClusterNodeError scopes a cluster failure to one node (which node,
	// which name range), wrapping the underlying wire error.
	ClusterNodeError = cluster.NodeError
	// WireShedError is the server's admission control refusing a batch —
	// the one retryable wire failure (the server started nothing).
	WireShedError = netserve.ShedError
	// WireOptions configures a wire server beyond its pools (admission
	// control).
	WireOptions = netserve.Options
	// WireAdmissionConfig bounds a wire server's concurrently-executing
	// operations: PerShard slots per gate, a bounded wait queue, and
	// shed-on-deadline for ops that cannot be admitted within their
	// batch's budget. The zero value admits everything.
	WireAdmissionConfig = netserve.AdmissionConfig
)

// NewClusterRing builds a ring over addrs with uniform disjoint name
// ranges: node i owns [i*span, (i+1)*span).
func NewClusterRing(addrs []string, span uint64) (*ClusterRing, error) {
	return cluster.New(addrs, span)
}

// LoadClusterRing reads a ring file ("id addr base span" per line, '#'
// comments — renameserve -ring and renameload -ring consume the same file).
func LoadClusterRing(path string) (*ClusterRing, error) { return cluster.Load(path) }

// DialCluster connects to every node of the ring, retrying each with
// bounded backoff for up to wait; an unreachable node fails the dial with
// a *ClusterNodeError naming the node and its name range.
func DialCluster(ring *ClusterRing, wait time.Duration) (*ClusterClient, error) {
	return cluster.Dial(ring, wait)
}

// RunScenarioCluster dials every node of the ring, executes the scenario
// over the routed scatter path, and closes the connections — the cluster
// counterpart of RunScenarioWire. Admission sheds count in the report's
// Sheds field and do not fail the verdict.
func RunScenarioCluster(s Scenario, ring *ClusterRing) (*LoadReport, error) {
	c, err := cluster.Dial(ring, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return load.RunRemote(s, c), nil
}

// IsShedError reports whether an error chain carries a server admission
// shed (retryable by contract; see WireShedError).
func IsShedError(err error) bool { return load.IsShed(err) }
