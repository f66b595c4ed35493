package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reviews_total").Add(5)
	ds, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr()

	fetch := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	var vars struct {
		ReviewSolver map[string]float64 `json:"reviewsolver"`
	}
	if body := fetch("/debug/vars"); json.Unmarshal([]byte(body), &vars) != nil || vars.ReviewSolver["reviews_total"] != 5 {
		t.Errorf("/debug/vars does not decode to reviewsolver.reviews_total = 5:\n%s", body)
	}
	if body := fetch("/metrics"); !strings.Contains(body, "counter reviews_total 5") {
		t.Errorf("/metrics missing the counter line:\n%s", body)
	}
	if body := fetch("/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %q, want ok", body)
	}
	if body := fetch("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%s", body)
	}
}

func TestDebugServerNilClose(t *testing.T) {
	var ds *DebugServer
	if err := ds.Close(); err != nil {
		t.Errorf("nil Close() = %v", err)
	}
}

// TestShutdownHTTPDrainsInflight: a request in flight when shutdown begins
// completes (the scrape is not cut mid-body), and ShutdownHTTP reports a
// clean drain.
func TestShutdownHTTPDrainsInflight(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-gate
		io.WriteString(w, "drained")
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			body <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- string(b)
	}()
	<-started

	done := make(chan error, 1)
	go func() { done <- ShutdownHTTP(srv, 5*time.Second) }()
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("ShutdownHTTP = %v, want clean drain", err)
	}
	if got := <-body; got != "drained" {
		t.Fatalf("in-flight request body = %q, want %q", got, "drained")
	}
}

// TestShutdownHTTPTimeoutForcesClose: a request that outlasts the drain
// deadline does not hang shutdown — the server closes abruptly and
// ShutdownHTTP returns the deadline error.
func TestShutdownHTTPTimeoutForcesClose(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	defer close(gate)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-gate
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	done := make(chan error, 1)
	go func() { done <- ShutdownHTTP(srv, 50*time.Millisecond) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ShutdownHTTP = nil, want deadline error for a stuck request")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ShutdownHTTP hung past its drain deadline")
	}
}
