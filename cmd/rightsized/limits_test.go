package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServerConnectionLimits pins the daemon's HTTP limits: header
// deadline, idle deadline and header size are set, and the whole-request
// read and write deadlines are not, so SSE streams can stay open.
func TestServerConnectionLimits(t *testing.T) {
	srv := newServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 {
		t.Fatalf("limits unset: ReadHeaderTimeout=%v IdleTimeout=%v MaxHeaderBytes=%d",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout=%v WriteTimeout=%v would cut SSE streams off", srv.ReadTimeout, srv.WriteTimeout)
	}
}

// startLimited serves h through newServer on a loopback port, with the
// header deadline shortened so the test runs in well under a second.
func startLimited(t *testing.T, h http.Handler, headerTimeout time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ln.Addr().String(), h)
	srv.ReadHeaderTimeout = headerTimeout
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestSlowlorisHeaderIsCutOff trickles a request header one byte at a
// time, never finishing it: the server must close the connection once
// the header deadline passes, however steadily the bytes keep coming.
func TestSlowlorisHeaderIsCutOff(t *testing.T) {
	const headerTimeout = 300 * time.Millisecond
	addr := startLimited(t, http.NotFoundHandler(), headerTimeout)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	closed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, conn) // returns when the server closes
		close(closed)
	}()
	start := time.Now()
	if _, err := fmt.Fprint(conn, "GET /v1/healthz HTTP/1.1\r\nHost: rightsized\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-closed:
			if el := time.Since(start); el < headerTimeout {
				t.Fatalf("connection closed after %v, before the %v header deadline", el, headerTimeout)
			}
			return
		case <-tick.C:
			if time.Since(start) > 20*headerTimeout {
				t.Fatalf("trickling client still connected after %v", time.Since(start))
			}
			conn.Write([]byte("x")) // an error here means the server hung up
		}
	}
}

// TestOversizedHeaderIsRejected sends a header beyond maxHeaderBytes and
// expects 431 rather than a server that buffers it.
func TestOversizedHeaderIsRejected(t *testing.T) {
	addr := startLimited(t, http.NotFoundHandler(), time.Second)
	req, err := http.NewRequest("GET", "http://"+addr+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Big", strings.Repeat("a", 2*maxHeaderBytes))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized header: HTTP %d, want %d", resp.StatusCode, http.StatusRequestHeaderFieldsTooLarge)
	}
}
