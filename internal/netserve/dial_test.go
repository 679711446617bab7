package netserve

import (
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestDialRetriesWithBackoff pins the dial contract cluster startup leans
// on: the address is dark when Dial starts (the listener only appears
// ~100ms in), so the first attempt must fail and a backoff retry must land
// the connection — no caller-side retry loop.
func TestDialRetriesWithBackoff(t *testing.T) {
	// Reserve an address, then go dark: the port was just live, nobody is
	// accepting now.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	// The listener appears only after Dial has certainly failed at least
	// once (first attempt is immediate; 100ms spans several backoff steps).
	ready := make(chan *Server, 1)
	go func() {
		time.Sleep(100 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			ready <- nil
			return
		}
		ready <- NewServer(ln2, nil)
	}()

	start := time.Now()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial with backoff failed: %v", err)
	}
	defer c.Close()
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Fatalf("dial succeeded after %v — the listener was not up yet, so the first attempt cannot have connected", el)
	}
	srv := <-ready
	if srv == nil {
		t.Fatalf("late listener failed to bind %s", addr)
	}
	defer srv.Close()
	if _, err := c.Do(wire.OpRename, 1); err != nil {
		t.Fatalf("op after backoff dial: %v", err)
	}
}

// TestDialSingleAttempt pins the wait ≤ 0 degenerate case: exactly one
// attempt, immediate typed failure on a dark address.
func TestDialSingleAttempt(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	if _, err := Dial(addr, 0); err == nil {
		t.Fatalf("dial of a dark address with wait 0 succeeded")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("single-attempt dial took %v, want immediate failure", el)
	}
}
