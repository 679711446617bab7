// Command renameserve runs the networked serving tier: the batched binary
// wire protocol (internal/wire) served over TCP against the sharded
// serving pools (internal/serve, internal/phase). cmd/renameload -addr
// drives it with the full scenario catalog. The same port serves the
// observability surface over HTTP: a connection that opens with an HTTP
// method goes to net/http, every other connection to the wire server.
//
//	curl http://<addr>/metrics          # gauges, counters, op-latency histograms (also /)
//	curl http://<addr>/trace            # recent trace spans + slowest-op exemplars
//	curl http://<addr>/debug/pprof/heap # net/http/pprof: heap, allocs, profile?seconds=N, ...
//
// /metrics carries pool in-flight and retry gauges, phased-counter mode,
// admission shed counters, merged per-op latency quantiles and cumulative
// histogram buckets with slowest-op trace-id exemplars; its
// netserve_conns_open and netserve_conns_accepted_total count wire
// connections only. /trace emits the server-side spans recorded for
// sampled traced batches (renameload -trace arms the client side). HEAD is
// answered like GET, other methods on /metrics and /trace get 405, and a
// readable goroutine dump is /debug/pprof/goroutine?debug=1.
//
// With -ring the process serves one node of a cluster: the ring file
// (one "id addr base span" line per node) names every node's address and
// disjoint cluster name range, and -node selects which line this process
// is. The server itself is unchanged — cluster names are client-side
// arithmetic (cmd/renameload -ring) — so -ring only picks the listen
// address and prints the owned range.
//
// -admit arms admission control: at most N concurrently-executing ops per
// gate shard, a bounded wait queue behind them, and shed-on-deadline for
// ops that cannot be admitted within their batch's budget (clients see the
// typed retryable EShed; netserve_shed_total counts them).
//
// The process stops on SIGINT/SIGTERM: the listener and all open
// connections close, in-flight batches are abandoned (clients see their
// typed drop error), and the final metrics dump is printed.
//
// Usage:
//
//	renameserve [-addr 127.0.0.1:7411] [-seed S] [-quiet]
//	            [-ring ring.txt -node i]
//	            [-admit N] [-admit-queue N] [-admit-wait D]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"sync"
	"syscall"
	"time"

	renaming "repro"
	"repro/internal/netserve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "TCP listen address (superseded by -ring)")
	ringPath := flag.String("ring", "", "cluster ring file (one \"id addr base span\" line per node); serve the node selected by -node")
	node := flag.Int("node", 0, "this process's node id in the -ring file")
	admit := flag.Int("admit", 0, "admission control: max concurrently-executing ops per gate shard (0 = off)")
	admitShards := flag.Int("admit-shards", 0, "admission control: gate shard count (default 16; 1 = one strict global bound)")
	admitQueue := flag.Int("admit-queue", 0, "admission control: waiters per gate before shedding (default 2×-admit)")
	admitWait := flag.Duration("admit-wait", 0, "admission control: max queue wait for ops whose batch carries no deadline (default 1ms)")
	seed := flag.Uint64("seed", 1, "pool seed (derives every instance's coin streams)")
	quiet := flag.Bool("quiet", false, "skip the metrics dump on shutdown")
	flag.Parse()

	// NodeID -1 = standalone (no node attribution on trace spans); a -ring
	// node stamps its ring id on every span it records, which is what lets
	// a cross-node trace chain name the hop that hurt.
	opts := renaming.WireOptions{Admission: renaming.WireAdmissionConfig{
		PerShard: *admit,
		Shards:   *admitShards,
		Queue:    *admitQueue,
		MaxWait:  *admitWait,
	}, NodeID: -1}

	listenAddr := *addr
	var nd *renaming.ClusterNode
	if *ringPath != "" {
		ring, err := renaming.LoadClusterRing(*ringPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "renameserve:", err)
			os.Exit(2)
		}
		if *node < 0 || *node >= ring.Len() {
			fmt.Fprintf(os.Stderr, "renameserve: -node %d out of range (ring has nodes 0..%d)\n", *node, ring.Len()-1)
			os.Exit(2)
		}
		n := ring.Node(*node)
		nd = &n
		listenAddr = n.Addr
		opts.NodeID = n.ID
	}

	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renameserve:", err)
		os.Exit(1)
	}
	srv, served := serve(ln, renaming.NewLoadTarget(*seed), opts)
	if nd != nil {
		fmt.Printf("renameserve: node %d listening on %s, serving cluster names %s\n", nd.ID, srv.Addr(), nd.Range())
	} else {
		fmt.Printf("renameserve: listening on %s\n", srv.Addr())
	}
	if *admit > 0 {
		fmt.Printf("renameserve: admission control on (%d per gate shard)\n", *admit)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close() // closes the shared port, which ends the HTTP server too
	<-served
	if !*quiet {
		fmt.Print(srv.MetricsText())
	}
}

// serve shares ln between the wire server and the HTTP surface and starts
// both. Closing the returned server closes ln; served then receives the
// result of the HTTP server's Serve.
func serve(ln net.Listener, tg *renaming.LoadTarget, opts renaming.WireOptions) (srv *renaming.WireServer, served <-chan error) {
	wireLn, httpLn := split(ln)
	srv = netserve.NewServerOpts(wireLn, tg, opts)
	hs := &http.Server{
		Handler:           newMux(srv),
		ReadHeaderTimeout: 5 * time.Second,
		MaxHeaderBytes:    8 << 10,
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(httpLn) }()
	return srv, done
}

// newMux routes the HTTP surface: the node's metrics and trace dumps and
// the runtime profiles. Method-qualified patterns answer HEAD like GET and
// other methods with 405.
func newMux(srv *renaming.WireServer) *http.ServeMux {
	text := func(dump func() string) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, dump())
		}
	}
	mux := http.NewServeMux()
	mux.Handle("GET /{$}", text(srv.MetricsText))
	mux.Handle("GET /metrics", text(srv.MetricsText))
	mux.Handle("GET /trace", text(srv.TraceText))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// httpMethods are the first four bytes of every HTTP/1.x request method.
// Each reads as a little-endian wire frame length of at least 512 MiB, far
// above wire.MaxFrame, so no valid wire stream opens with one.
var httpMethods = []string{"GET ", "HEAD", "POST", "PUT ", "DELE", "OPTI", "PATC", "TRAC", "CONN"}

// port is one listener shared by two protocols: it accepts every
// connection and hands it, with its first four bytes read ahead, to the
// HTTP half or the wire half. Closing either half closes the port and
// ends both halves' Accept.
type port struct {
	net.Listener
	done      chan struct{} // closed by Close
	closeOnce sync.Once
}

// half is one protocol's listener on a shared port.
type half struct {
	*port
	conns chan net.Conn
}

// split starts routing ln's connections and returns its two halves.
func split(ln net.Listener) (wireLn, httpLn net.Listener) {
	p := &port{Listener: ln, done: make(chan struct{})}
	w := half{p, make(chan net.Conn)}
	h := half{p, make(chan net.Conn)}
	go p.route(w, h)
	return w, h
}

func (p *port) route(w, h half) {
	for {
		c, err := p.Listener.Accept()
		if err != nil {
			return
		}
		// Sniff off the accept loop: a peer that sends nothing holds only
		// its own goroutine.
		go func() {
			// bufio's smallest buffer: reads longer than it bypass it.
			r := bufio.NewReaderSize(c, 16)
			to := w.conns
			if head, _ := r.Peek(4); slices.Contains(httpMethods, string(head)) {
				to = h.conns
			}
			select {
			case to <- peeked{c, r}:
			case <-p.done:
				c.Close()
			}
		}()
	}
}

// Close closes done before the listener, so no half accepts a connection
// once Close has returned.
func (p *port) Close() error {
	p.closeOnce.Do(func() { close(p.done) })
	return p.Listener.Close()
}

func (h half) Accept() (net.Conn, error) {
	select {
	case c := <-h.conns:
		return c, nil
	case <-h.done:
		return nil, net.ErrClosed
	}
}

// peeked is a connection whose first bytes were read ahead into r.
type peeked struct {
	net.Conn
	r *bufio.Reader
}

func (c peeked) Read(b []byte) (int, error) { return c.r.Read(b) }

// CloseWrite passes the half-close through: net/http sends it before
// hanging up on a request it refused, such as an oversized header, so the
// client reads the whole refusal rather than a reset.
func (c peeked) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}
