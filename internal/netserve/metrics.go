package netserve

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/obs"
	"repro/internal/phase"
	"repro/internal/serve"
	"repro/internal/wire"
)

// A serving node's observability data: MetricsText (Prometheus-style
// gauges, counters and op-latency histograms, plus runtime stats) and
// TraceText (recent spans and slow-op exemplars as JSON lines). netserve
// speaks only the wire protocol; cmd/renameserve serves both dumps over
// HTTP on its wire port, and embedders serve or log them as they choose.

var opLabels = [8]string{"", "rename", "inc", "read", "wave", "phased_inc", "phased_read", "phased_read_strict"}

// OpName maps a wire op code to its metrics/trace label ("" for codes the
// protocol does not define) — the obs.OpNamer the serving tier hands to
// trace dumps.
func OpName(code uint8) string { return opLabels[code&7] }

// MetricsText returns the metrics dump. conns_open and
// conns_accepted_total count wire connections only: HTTP scrapes are
// served outside netserve.
func (s *Server) MetricsText() string {
	b := new(strings.Builder)
	// Snapshot the merged shards. The sessions' private deltas since their
	// last fold are invisible here — a scrape is a monitoring sample, not
	// a linearizable snapshot (same contract as Pool.InFlight).
	s.hmu.Lock()
	h := s.hist
	oph := s.ophist
	ops := s.ops
	s.hmu.Unlock()

	fmt.Fprintf(b, "netserve_conns_open %d\n", s.conns.Load())
	fmt.Fprintf(b, "netserve_conns_accepted_total %d\n", s.accepted.Load())
	fmt.Fprintf(b, "netserve_frames_total %d\n", s.frames.Load())
	fmt.Fprintf(b, "netserve_protocol_errors_total %d\n", s.errs.Load())
	fmt.Fprintf(b, "netserve_bytes_in_total %d\n", s.bytesIn.Load())
	fmt.Fprintf(b, "netserve_bytes_out_total %d\n", s.bytesOut.Load())
	var total uint64
	for code, n := range ops {
		if opLabels[code] == "" {
			continue
		}
		fmt.Fprintf(b, "netserve_ops_total{op=%q} %d\n", opLabels[code], n)
		total += n
	}
	fmt.Fprintf(b, "netserve_ops_total_all %d\n", total)

	// Admission control. shed_total always prints (0 with admission off) so
	// overload dashboards and CI greps never depend on server configuration;
	// the depth/limit gauges only exist when gates do.
	if s.adm != nil {
		fmt.Fprintf(b, "netserve_shed_total %d\n", s.adm.shed.Load())
		fmt.Fprintf(b, "netserve_admitted_total %d\n", s.adm.admitted.Load())
		fmt.Fprintf(b, "netserve_admit_waits_total %d\n", s.adm.waits.Load())
		fmt.Fprintf(b, "netserve_admit_queue_depth %d\n", s.adm.queueDepth())
		fmt.Fprintf(b, "netserve_admit_gates %d\n", len(s.adm.gates))
		fmt.Fprintf(b, "netserve_admit_per_shard %d\n", s.adm.cfg.PerShard)
		fmt.Fprintf(b, "netserve_admit_queue_cap %d\n", s.adm.cfg.Queue)
	} else {
		fmt.Fprintf(b, "netserve_shed_total 0\n")
	}

	writePool(b, "rename", s.tg.Rename.Stats())
	writePool(b, "counter", s.tg.Counter.Stats())

	pst := s.tg.Phased.Stats()
	mode := 0
	if pst.Mode == phase.Split {
		mode = 1
	}
	fmt.Fprintf(b, "phased_mode %d\n", mode)
	fmt.Fprintf(b, "phased_switches_total %d\n", pst.Switches)
	fmt.Fprintf(b, "phased_merges_total %d\n", pst.Merges)
	fmt.Fprintf(b, "phased_ops_total %d\n", pst.Ops)
	fmt.Fprintf(b, "phased_lease_retries_total %d\n", pst.LeaseRetries)
	fmt.Fprintf(b, "phased_inflight %d\n", pst.InFlight)
	fmt.Fprintf(b, "phased_lag %d\n", pst.Lag)

	fmt.Fprintf(b, "netserve_op_latency_ns_count %d\n", h.Count())
	if h.Count() > 0 {
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			fmt.Fprintf(b, "netserve_op_latency_ns{quantile=%q} %d\n",
				fmt.Sprintf("%g", q), h.Quantile(q))
		}
		fmt.Fprintf(b, "netserve_op_latency_ns_max %d\n", h.Max())
		fmt.Fprintf(b, "netserve_op_latency_ns_mean %.1f\n", h.Mean())
		// Cumulative buckets at power-of-two bounds, so Prometheus-style
		// scrapers can aggregate histograms across the ring's nodes (the
		// quantiles above cannot be merged; bucket counts can).
		h.Buckets(func(le, cum uint64) {
			fmt.Fprintf(b, "netserve_op_latency_ns_bucket{le=\"%d\"} %d\n", le, cum)
		})
		fmt.Fprintf(b, "netserve_op_latency_ns_bucket{le=\"+Inf\"} %d\n", h.Count())
	}
	// Per-op-code latency series with slow-op exemplar trace ids: the
	// series a dashboard drills into when one op class regresses, with the
	// trace handle to pull that op's full span chain from /trace.
	for code := range oph {
		if opLabels[code] == "" || oph[code].Count() == 0 {
			continue
		}
		oh := &oph[code]
		fmt.Fprintf(b, "netserve_op_latency_ns_count{op=%q} %d\n", opLabels[code], oh.Count())
		for _, q := range []float64{0.5, 0.99} {
			fmt.Fprintf(b, "netserve_op_latency_ns{op=%q,quantile=%q} %d\n",
				opLabels[code], fmt.Sprintf("%g", q), oh.Quantile(q))
		}
		oh.Buckets(func(le, cum uint64) {
			fmt.Fprintf(b, "netserve_op_latency_ns_bucket{op=%q,le=\"%d\"} %d\n", opLabels[code], le, cum)
		})
		fmt.Fprintf(b, "netserve_op_latency_ns_bucket{op=%q,le=\"+Inf\"} %d\n", opLabels[code], oh.Count())
		if ex := s.col.Slowest(obs.KindOp, uint8(code)); ex.Kind != 0 {
			fmt.Fprintf(b, "netserve_op_slowest_ns{op=%q,trace=\"%016x\"} %d\n", opLabels[code], ex.Trace, ex.Dur)
		}
	}
	fmt.Fprintf(b, "trace_spans_folded_total %d\n", s.col.Folded())

	// Runtime gauges: the process-health slice (goroutine count, GC pause
	// total, heap) that turns a latency spike into "the GC did it" or
	// "a goroutine leak did it" without attaching a profiler.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(b, "go_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(b, "go_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(b, "go_gc_pause_total_ns %d\n", ms.PauseTotalNs)
	fmt.Fprintf(b, "go_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(b, "go_heap_sys_bytes %d\n", ms.HeapSys)
	fmt.Fprintf(b, "go_heap_objects %d\n", ms.HeapObjects)

	fmt.Fprintf(b, "wire_max_ops_per_frame %d\n", wire.MaxOps)
	return b.String()
}

func writePool(b *strings.Builder, name string, st serve.Stats) {
	fmt.Fprintf(b, "%s_pool_shards %d\n", name, st.Shards)
	fmt.Fprintf(b, "%s_pool_instances %d\n", name, st.Instances)
	fmt.Fprintf(b, "%s_pool_hits_total %d\n", name, st.Hits)
	fmt.Fprintf(b, "%s_pool_overflows_total %d\n", name, st.Overflows)
	fmt.Fprintf(b, "%s_pool_inflight %d\n", name, st.InFlight)
	fmt.Fprintf(b, "%s_pool_retries_total %d\n", name, st.Retries)
}

// TraceText returns the trace dump: recent spans and slowest-op exemplars
// as JSON lines, closed by a "summary" line.
func (s *Server) TraceText() string {
	var b strings.Builder
	s.col.WriteTrace(&b, OpName)
	return b.String()
}
