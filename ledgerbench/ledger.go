package main

import (
	"fmt"
	"net"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/load"
	"repro/internal/netserve"
	"repro/internal/obs"
)

// ledgerRun is the state a traced run shares with the ledger passes.
type ledgerRun struct {
	workload string
	tr       *tracer
	acct     *window // check accounting of every pass
}

// row is one ledger line: the cost through a layer (ns and allocs per op)
// and the delta that layer adds over the row before it.
type row struct {
	name   string
	ns     float64
	allocs float64 // < 0: not measured
	delta  float64
}

// stack is one op stream's ledger plus the per-layer metrics it yields.
type stack struct {
	name    string
	unit    string // what one op is
	rows    []row
	metrics map[string]metric
}

// total is the cost of the full stack: the sum of the layer deltas.
func (s *stack) total() float64 {
	var t float64
	for _, r := range s.rows {
		t += r.delta
	}
	return t
}

func (s *stack) print() {
	fmt.Printf("ledger %s (per %s):\n", s.name, s.unit)
	fmt.Printf("  %-44s %12s %10s %12s\n", "layer", "ns/op", "allocs/op", "delta ns/op")
	for _, r := range s.rows {
		allocs := "-"
		if r.allocs >= 0 {
			allocs = fmt.Sprintf("%.3f", r.allocs)
		}
		fmt.Printf("  %-44s %12.1f %10s %12.1f\n", r.name, r.ns, allocs, r.delta)
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// pass times fn over ops ops and counts its allocations (process-wide, so
// a server goroutine's allocations count too).
func pass(ops int64, fn func()) (nsPerOp, allocsPerOp float64) {
	m0 := mallocs()
	t0 := time.Now()
	fn()
	el := time.Since(t0)
	m1 := mallocs()
	return float64(el) / float64(ops), float64(m1-m0) / float64(ops)
}

// gcSnap is a GC reading: cycles from runtime/metrics, the stop-the-world
// pause total from MemStats.
type gcSnap struct {
	cycles  uint64
	pauseNS uint64
}

func readGC() gcSnap {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnap{cycles: s[0].Value.Uint64(), pauseNS: ms.PauseTotalNs}
}

// since returns the GC work between o and g per million ops.
func (g gcSnap) since(o gcSnap, ops int64) map[string]metric {
	mops := float64(max(ops, 1)) / 1e6
	return map[string]metric{
		"go.gc_cycles":   {float64(g.cycles-o.cycles) / mops, "count/Mop"},
		"go.gc_pause_us": {float64(g.pauseNS-o.pauseNS) / 1e3 / mops, "us/Mop"},
	}
}

// stageMetrics turns a stage-echo delta into the netserve stage metrics,
// per frame.
func stageMetrics(st load.Stages) map[string]metric {
	if st.Frames == 0 {
		return nil
	}
	f := float64(st.Frames) * 1e3
	return map[string]metric{
		"netserve.srv_us":   {float64(st.SrvNS) / f, "us"},
		"netserve.queue_us": {float64(st.QueueNS()) / f, "us"},
		"netserve.exec_us":  {float64(st.ExecNS) / f, "us"},
		"netserve.net_us":   {float64(st.ReplyNS()) / f, "us"},
	}
}

// pipeListener is an in-memory net.Listener: each dial is a net.Pipe whose
// server end the next Accept returns. It measures netserve without the
// kernel's loopback.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		c.Close()
		s.Close()
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// single is one netserve server with one client connection, on loopback
// TCP or on a pipeListener.
type single struct {
	tg  *load.Target
	srv *netserve.Server
	cli *netserve.Client
	col *obs.Collector // stage-echo collector; nil when untraced
}

func startSingle(tg *load.Target, pipe bool) (*single, error) {
	var ln net.Listener
	var pl *pipeListener
	if pipe {
		pl = newPipeListener()
		ln = pl
	} else {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	s := &single{tg: tg, srv: netserve.NewServer(ln, tg)}
	var err error
	if pipe {
		var c net.Conn
		if c, err = pl.dial(); err == nil {
			s.cli = netserve.NewClient(c)
		}
	} else {
		s.cli, err = netserve.Dial(s.srv.Addr().String(), 5*time.Second)
	}
	if err != nil {
		s.srv.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return s, nil
}

// trace arms the client's stage echo with an unarmed collector: every
// reply carries its server stage times, no obs span is sampled.
func (s *single) trace() {
	s.col = obs.New(0)
	s.cli.SetTrace(s.col, -1)
}

func (s *single) close() {
	s.cli.Close()
	s.srv.Close()
	if s.col != nil {
		s.col.Close()
	}
}
