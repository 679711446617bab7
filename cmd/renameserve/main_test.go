package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	renaming "repro"
	"repro/internal/netserve"
	"repro/internal/wire"
)

// startSurface runs the port splitter, the wire server and the HTTP mux on
// one 127.0.0.1:0 listener, as main does. stop closes the wire server,
// which closes the shared port, and returns what the HTTP server's Serve
// returned, or an error if either server is still up after 5s; the test's
// cleanup calls it too.
func startSurface(t *testing.T) (addr string, stop func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv, served := serve(ln, renaming.NewLoadTarget(1), renaming.WireOptions{NodeID: -1})
	stop = sync.OnceValue(func() error {
		closed := make(chan struct{})
		go func() { srv.Close(); close(closed) }()
		timeout := time.After(5 * time.Second)
		var err error
		select {
		case err = <-served:
		case <-timeout:
			return errors.New("the HTTP server still serves 5s after the wire server closed")
		}
		select {
		case <-closed:
			return err
		case <-timeout:
			return errors.New("the wire server's Close has not returned after 5s")
		}
	})
	t.Cleanup(func() { stop() })
	return ln.Addr().String(), stop
}

// route is one HTTP request against the surface and what it must answer.
type route struct {
	method, path string
	status       int
	body         []string
}

// checkRoutes sends each request on its own connection and checks the
// status and that the body carries every wanted string; a 200 GET must
// have a body.
func checkRoutes(t *testing.T, addr string, routes []route) {
	t.Helper()
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	for _, tc := range routes {
		req, err := http.NewRequest(tc.method, "http://"+addr+tc.path, nil)
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: reading body: %v", tc.method, tc.path, err)
		}
		body := string(raw)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s answered %d, want %d\n%s", tc.method, tc.path, resp.StatusCode, tc.status, body)
		}
		if tc.status == 200 && tc.method == "GET" && len(body) == 0 {
			t.Fatalf("%s %s: empty body", tc.method, tc.path)
		}
		for _, want := range tc.body {
			if !strings.Contains(body, want) {
				t.Fatalf("%s %s: body lacks %q:\n%s", tc.method, tc.path, want, body)
			}
		}
	}
}

// TestHTTPRouter pins the observability surface's routing: /metrics (and
// /) and /trace serve their dumps, HEAD is answered like GET, other
// methods get 405, unknown paths 404, and an oversized request head 431.
func TestHTTPRouter(t *testing.T) {
	addr, _ := startSurface(t)
	checkRoutes(t, addr, []route{
		{"GET", "/metrics", 200, []string{"netserve_frames_total", "go_goroutines", "go_heap_alloc_bytes"}},
		{"GET", "/", 200, []string{"netserve_frames_total"}},
		{"HEAD", "/metrics", 200, nil},
		{"GET", "/trace", 200, []string{`"kind":"summary"`}},
		{"POST", "/metrics", 405, nil},
		{"GET", "/nope", 404, nil},
	})

	// An oversized request head: net/http reads MaxHeaderBytes plus 4 KiB
	// of slack, so 64 KiB is well past the cap. The server stops reading
	// there, so the head is written from its own goroutine.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\nX-Pad: "+strings.Repeat("a", 64<<10)+"\r\n\r\n")
	}()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("oversized head: %v", err)
	}
	// The half-close before the server hangs up lets the whole refusal
	// arrive rather than a reset.
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatalf("oversized head: reading the refusal: %v", err)
	}
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized head answered %d, want 431", resp.StatusCode)
	}
	conn.Close()
	<-wrote
}

// TestPprofEndpoints pins the profile surface: heap, goroutine and allocs
// dumps serve 200 with bodies, unknown profiles 404.
func TestPprofEndpoints(t *testing.T) {
	addr, _ := startSurface(t)
	checkRoutes(t, addr, []route{
		{"GET", "/debug/pprof/heap", 200, nil},
		{"GET", "/debug/pprof/goroutine", 200, nil},
		{"GET", "/debug/pprof/allocs", 200, nil},
		{"GET", "/debug/pprof/bogus", 404, nil},
	})
}

// TestOnePortServesWireAndHTTP runs wire ops and a scrape on the same
// address: the ops succeed, the scrape never reaches the wire server, and
// closing the wire server ends the HTTP server.
func TestOnePortServesWireAndHTTP(t *testing.T) {
	addr, stop := startSurface(t)

	c, err := netserve.Dial(addr, time.Second)
	if err != nil {
		t.Fatalf("dial wire: %v", err)
	}
	defer c.Close()
	for _, op := range []wire.OpCode{wire.OpRename, wire.OpInc, wire.OpRead, wire.OpPhasedInc} {
		if _, err := c.Do(op, 7); err != nil {
			t.Fatalf("wire op %d on the shared port: %v", op, err)
		}
	}

	// The one wire connection above is the only one the wire server has
	// accepted: scrapes are routed to net/http before it.
	checkRoutes(t, addr, []route{
		{"GET", "/metrics", 200, []string{"netserve_conns_accepted_total 1\n"}},
	})
	if _, err := c.Do(wire.OpRead, 7); err != nil {
		t.Fatalf("wire op after a scrape: %v", err)
	}

	c.Close()
	if err := stop(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve returned %v, want net.ErrClosed", err)
	}
}
