package main

import (
	"net"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/load"
	"repro/internal/netserve"
	"repro/internal/obs"
	"repro/internal/wire"
)

const (
	renameNodes  = 2
	ringSpan     = 1 << 20
	renameWarmup = 256 // warm-up requests per set-up
	// renameLedgerRequests replays the key table once per ledger pass.
	renameLedgerRequests = renameKeys / batchOps
	renameLedgerRounds   = 5
)

// renameEnv is a loopback ring: one netserve server per node, each over
// its own load.NewTarget, and a cluster client dialed to all of them.
type renameEnv struct {
	tgs  []*load.Target
	srvs []*netserve.Server
	cl   *cluster.Client
	col  *obs.Collector // stage-echo collector; nil when untraced
}

func startRename(nodes int, traced bool) (*renameEnv, error) {
	e := &renameEnv{}
	addrs := make([]string, 0, nodes)
	for i := 0; i < nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		tg := load.NewTarget(uint64(1 + 4*i))
		srv := netserve.NewServer(ln, tg)
		e.tgs = append(e.tgs, tg)
		e.srvs = append(e.srvs, srv)
		addrs = append(addrs, srv.Addr().String())
	}
	ring, err := cluster.New(addrs, ringSpan)
	if err == nil {
		e.cl, err = cluster.Dial(ring, 5*time.Second)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	if traced {
		// Unarmed: frames carry trace ids, so every reply echoes its stage
		// times, but no obs spans are sampled.
		e.col = obs.New(0)
		e.cl.SetTrace(e.col)
	}
	return e, nil
}

func (e *renameEnv) close() {
	if e.cl != nil {
		e.cl.Close()
	}
	for _, s := range e.srvs {
		s.Close()
	}
	if e.col != nil {
		e.col.Close()
	}
}

func (e *renameEnv) poolStats() (overflows, retries uint64) {
	for _, tg := range e.tgs {
		st := tg.Rename.Stats()
		overflows += st.Overflows
		retries += st.Retries
	}
	return overflows, retries
}

// routeTable maps each key of the table to the node ring.Route picks.
func routeTable(ring *cluster.Ring, keys []uint64) []int32 {
	route := make([]int32, len(keys))
	for i, k := range keys {
		route[i] = int32(ring.Route(k))
	}
	return route
}

// renameLoop is the cluster-rename closed loop on env: request n renames
// keys [n·64, n·64+64) of the table, and each name must lie in the range of
// the node its key routes to.
func renameLoop(env *renameEnv, in *inputs, route []int32) *loop {
	nodes := env.cl.Ring().Nodes()
	batches := make([]*cluster.Batch, inFlight)
	slots := make([]request, inFlight)
	for i := range batches {
		batches[i] = env.cl.NewBatch()
		slots[i] = batches[i]
	}
	mask := int64(len(in.keys) - 1)
	return &loop{
		slots: slots,
		layer: "cluster",
		fill: func(s int, n int64) {
			b := batches[s].Reset()
			for j := int64(0); j < batchOps; j++ {
				b.Rename(in.keys[(n*batchOps+j)&mask])
			}
		},
		check: func(w *window, s int, n int64, vals []uint64, err error) {
			w.attempted += batchOps
			if len(vals) != batchOps {
				w.failed += batchOps
				return
			}
			b := batches[s]
			for j, v := range vals {
				nd := nodes[route[(n*batchOps+int64(j))&mask]]
				if b.OpErr(j) != nil || v <= nd.Base || v >= nd.Base+nd.Span {
					w.failed++
					continue
				}
				w.ops++
			}
		},
	}
}

// renameTally sums what traced rename windows yield across set-ups: stage
// echo, pool and GC deltas.
type renameTally struct {
	stages             load.Stages
	overflows, retries uint64
	gc                 gcSnap
	ops                int64
}

// renameWindow runs the closed loop on env for d, or for requests requests
// when requests > 0, and adds the window's deltas to t.
func renameWindow(w *window, t *renameTally, env *renameEnv, in *inputs, route []int32, d time.Duration, requests int64, tr *tracer) {
	lp := renameLoop(env, in, route)
	o0, r0 := env.poolStats()
	st0 := env.cl.Stages()
	gc0 := readGC()
	ops0 := w.ops
	start := time.Now()
	w.begin(start)
	lp.run(w, func(n int64) bool {
		if requests > 0 {
			return n < requests
		}
		return n == 0 || time.Since(start) < d
	}, tr)
	end := time.Now()
	w.finish(end)
	w.elapsed += end.Sub(start)
	gc1 := readGC()
	o1, r1 := env.poolStats()
	t.stages = addStages(t.stages, env.cl.Stages().Sub(st0))
	t.overflows += o1 - o0
	t.retries += r1 - r0
	t.gc.cycles += gc1.cycles - gc0.cycles
	t.gc.pauseNS += gc1.pauseNS - gc0.pauseNS
	t.ops += w.ops - ops0
}

// layers turns the tally and the cluster spans recorded since span index
// from into the traced windows' per-layer metrics.
func (t *renameTally) layers(tr *tracer, from int) map[string]metric {
	m := t.gc.since(gcSnap{}, t.ops)
	m["serve.overflows"] = metric{float64(t.overflows), "count"}
	m["serve.retries"] = metric{float64(t.retries), "count"}
	for k, v := range stageMetrics(t.stages) {
		m[k] = v
	}
	add, nAdd := tr.sum("cluster.add", from)
	send, nSend := tr.sum("cluster.send", from)
	wait, nWait := tr.sum("cluster.wait", from)
	if nAdd > 0 && nSend > 0 && nWait > 0 {
		m["cluster.add_ns"] = metric{float64(add) / float64(nAdd*batchOps), "ns"}
		m["cluster.send_us"] = metric{us(send) / float64(nSend), "us"}
		m["cluster.wait_us"] = metric{us(wait) / float64(nWait), "us"}
	}
	return m
}

// measureRename measures each of the run's set-ups in turn, for an equal
// share of d, and pools their slices: a run then samples several pool and
// heap layouts, which move throughput by several percent from one set-up
// to the next.
func measureRename(in *inputs, d time.Duration, tr *tracer) (*window, error) {
	w := newWindow()
	w.sliceLen = d / timeSlices
	var t renameTally
	from := 0
	if tr != nil {
		from = len(tr.spans)
	}
	var route []int32
	for r := 0; r < setupRounds; r++ {
		// Collect the last set-up first, so the peak resident set does not
		// depend on when the collector last ran.
		runtime.GC()
		t0 := time.Now()
		env, err := startRename(renameNodes, tr != nil)
		if err != nil {
			return nil, err
		}
		el := time.Since(t0)
		if route == nil {
			route = routeTable(env.cl.Ring(), in.keys)
		}
		warm := &window{}
		t1 := time.Now()
		renameLoop(env, in, route).run(warm, func(n int64) bool { return n < renameWarmup }, nil)
		w.setups = append(w.setups, el+time.Since(t1))
		w.merge(warm)
		renameWindow(w, &t, env, in, route, d/setupRounds, 0, tr)
		env.close()
	}
	if tr != nil {
		w.layers = t.layers(tr, from)
	}
	return w, nil
}

// renameStack replays the key table through each layer of the rename path
// in isolation, serially: pool checkout, the native rename, the codec, a
// netserve server on net.Pipe, the same on loopback TCP, and the 2-node
// ring. Each layer's figure is the median of renameLedgerRounds rounds.
func renameStack(in *inputs, run *ledgerRun) (*stack, error) {
	keys := in.keys
	nops := int64(len(keys))
	var bad int64

	pool := load.NewTarget(1).Rename
	getput := func() {
		for _, k := range keys {
			x := pool.GetKeyed(k)
			x.Put()
		}
	}
	rename := func() {
		for _, k := range keys {
			x := pool.GetKeyed(k)
			if x.Obj.Rename(x.Proc(), 1) == 0 {
				bad++
			}
			x.Put()
		}
	}

	reqs := make([][]wire.Op, len(keys)/batchOps)
	for i := range reqs {
		for _, k := range keys[i*batchOps : (i+1)*batchOps] {
			reqs[i] = append(reqs[i], wire.Op{Code: wire.OpRename, Arg: k})
		}
	}
	var frameBytes int64
	codec := codecPass(reqs, func(op wire.Op) uint64 { return 1 + op.Arg%ringSpan }, &frameBytes, &bad)
	codecRuns := 0

	pipe, err := startSingle(load.NewTarget(1), true)
	if err != nil {
		return nil, err
	}
	defer pipe.close()
	tcp, err := startSingle(load.NewTarget(1), false)
	if err != nil {
		return nil, err
	}
	defer tcp.close()
	ring, err := startRename(renameNodes, false)
	if err != nil {
		return nil, err
	}
	defer ring.close()
	route := routeTable(ring.cl.Ring(), keys)
	nodes := ring.cl.Ring().Nodes()

	commit := func(s *single) func() {
		b := s.cli.NewBatch()
		return func() {
			for _, req := range reqs {
				b.Reset()
				for _, op := range req {
					b.Rename(op.Arg)
				}
				vals, err := b.Commit()
				if err != nil || len(vals) != batchOps {
					bad += batchOps
					continue
				}
				for _, v := range vals {
					if v < 1 || v >= ringSpan {
						bad++
					}
				}
			}
		}
	}
	cb := ring.cl.NewBatch()
	scatter := func() {
		for i, req := range reqs {
			cb.Reset()
			for _, op := range req {
				cb.Rename(op.Arg)
			}
			vals, err := cb.Commit()
			if err != nil || len(vals) != batchOps {
				bad += batchOps
				continue
			}
			for j, v := range vals {
				nd := nodes[route[i*batchOps+j]]
				if v <= nd.Base || v >= nd.Base+nd.Span {
					bad++
				}
			}
		}
	}

	layers := []struct {
		fn         func()
		ns, allocs []float64
	}{{fn: getput}, {fn: rename}, {fn: func() { codec(); codecRuns++ }}, {fn: commit(pipe)}, {fn: commit(tcp)}, {fn: scatter}}
	for round := -1; round < renameLedgerRounds; round++ {
		for i := range layers {
			l := &layers[i]
			ns, allocs := pass(nops, l.fn)
			run.acct.attempted += nops
			if round >= 0 { // round -1 warms every layer up
				l.ns = append(l.ns, ns)
				l.allocs = append(l.allocs, allocs)
			}
		}
	}
	run.acct.failed += bad
	med := func(i int) (float64, float64) { return medianF(layers[i].ns), medianF(layers[i].allocs) }
	gp, agp := med(0)
	rn, arn := med(1)
	cd, acd := med(2)
	pp, app := med(3)
	lb, alb := med(4)
	cl, acl := med(5)

	st := &stack{
		name: "cluster-rename",
		unit: "rename op",
		rows: []row{
			{"serve.getput (GetKeyed+Put)", gp, agp, gp},
			{"core.rename (+Rename)", rn, arn, rn - gp},
			{"wire.codec (+encode/decode both ways)", rn + cd, arn + acd, cd},
			{"netserve.pipe (Batch.Commit on net.Pipe)", pp, app, pp - rn - cd},
			{"netserve.loopback (Batch.Commit on TCP)", lb, alb, lb - pp},
			{"cluster.fanout (2-node ring Commit)", cl, acl, cl - lb},
		},
		metrics: map[string]metric{
			"serve.getput_ns":             {gp, "ns"},
			"core.rename_ns":              {rn - gp, "ns"},
			"wire.codec_ns_per_op":        {cd, "ns"},
			"wire.bytes_per_op":           {float64(frameBytes) / float64(nops*int64(codecRuns)), "B"},
			"netserve.pipe_ns_per_op":     {pp - rn - cd, "ns"},
			"netserve.loopback_ns_per_op": {lb - pp, "ns"},
			"cluster.fanout_ns_per_op":    {cl - lb, "ns"},
		},
	}

	// A workload that runs no ring takes the window-only rename metrics
	// (stage echo, cluster spans, pool deltas) from a traced closed-loop
	// pass over the key table.
	if run.workload != "cluster-rename" {
		env, err := startRename(renameNodes, true)
		if err != nil {
			return nil, err
		}
		defer env.close()
		route := routeTable(env.cl.Ring(), keys)
		w := &window{}
		renameLoop(env, in, route).run(w, func(n int64) bool { return n < renameWarmup }, nil)
		var t renameTally
		from := len(run.tr.spans)
		renameWindow(w, &t, env, in, route, 0, renameLedgerRequests, run.tr)
		run.acct.merge(w)
		for k, v := range t.layers(run.tr, from) {
			st.metrics[k] = v
		}
	}
	return st, nil
}

// codecPass returns a pass that encodes each request as a batch frame,
// parses it, encodes a reply whose values reply(op) computes, and parses
// that: the wire layer alone, both directions. It adds the bytes of both
// frames to *frameBytes and counts ops that do not round-trip in *bad.
func codecPass(reqs [][]wire.Op, reply func(wire.Op) uint64, frameBytes, bad *int64) func() {
	var buf, rbuf []byte
	vals := make([]uint64, batchOps)
	return func() {
		for i, req := range reqs {
			buf = wire.AppendBatch(buf[:0], uint64(i+1), 0, req)
			f, err := wire.Parse(buf[4:])
			if err != nil || f.Ops() != len(req) {
				*bad += int64(len(req))
				continue
			}
			vals = vals[:f.Ops()]
			for j := range vals {
				code, arg := f.Op(j)
				vals[j] = reply(wire.Op{Code: code, Arg: arg})
			}
			rbuf = wire.AppendReply(rbuf[:0], f.Seq, vals)
			g, err := wire.Parse(rbuf[4:])
			if err != nil || g.Ops() != len(req) {
				*bad += int64(len(req))
				continue
			}
			for j := 0; j < g.Ops(); j++ {
				if g.Val(j) != vals[j] {
					*bad++
				}
			}
			*frameBytes += int64(len(buf) + len(rbuf))
		}
	}
}
