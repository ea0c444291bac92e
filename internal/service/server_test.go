package service

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"testing"
	"time"
)

// TestServerDropsSlowHeaders holds NewServer to its slow-client limits: a
// connection that sends half a request header is dropped once the header
// deadline passes, while a keep-alive client is served before and after
// it over one reused connection, idle pauses longer than that deadline
// included.
func TestServerDropsSlowHeaders(t *testing.T) {
	srv := NewServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout ||
		readHeaderTimeout <= 0 || idleTimeout <= readHeaderTimeout {
		t.Fatalf("server limits: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	// The fixed header limit is seconds long; a shorter one keeps the test
	// fast and exercises the same server code.
	const header = 200 * time.Millisecond
	srv.ReadHeaderTimeout = header
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String() + "/healthz"

	client := &http.Client{Transport: &http.Transport{}}
	reused := 0
	get := func(step string) {
		t.Helper()
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused++
			}
		}}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok" {
			t.Fatalf("%s: status %d, body %q, %v", step, resp.StatusCode, body, err)
		}
	}

	get("before the slow client")
	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET /healthz HTTP/1.1\r\nHost: slow\r\n"); err != nil {
		t.Fatal(err)
	}
	get("beside the slow client")

	start := time.Now()
	slow.SetReadDeadline(start.Add(10 * header))
	_, err = io.Copy(io.Discard, slow)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a half-sent header held its connection for %v", time.Since(start))
	}

	time.Sleep(2 * header) // idle longer than the header limit
	get("after the slow client was dropped")
	if reused != 2 {
		t.Fatalf("the keep-alive client reused its connection %d times of 2", reused)
	}
}
