package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"memsnap/internal/sim"
)

// get performs one GET against the server and returns the status
// code and body.
func get(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, body
}

func TestServerEndpoints(t *testing.T) {
	clk := sim.NewClock()
	clk.Advance(1500 * time.Millisecond)
	rec := NewRecorder(64)
	rec.Span(CatShard, NameGroupCommit, ShardTrack(0), time.Millisecond, time.Millisecond, 3)
	rec.Instant(CatVM, NameTrackingFault, ShardTrack(0), 2*time.Millisecond, 7)

	srv, err := Serve("127.0.0.1:0", ServerSources{
		Metrics: func(w io.Writer) error {
			_, err := io.WriteString(w, "# HELP memsnap_up 1 when serving\n# TYPE memsnap_up gauge\nmemsnap_up 1\n")
			return err
		},
		Vars:  func() any { return map[string]int64{"commits": 42} },
		Trace: func() []Event { return rec.Drain() },
		Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.Addr(), "/metricz")
	if code != 200 || !bytes.Contains(body, []byte("memsnap_up 1")) {
		t.Errorf("/metricz = %d %q", code, body)
	}

	code, body = get(t, srv.Addr(), "/varz")
	if code != 200 {
		t.Fatalf("/varz = %d %q", code, body)
	}
	var varz struct {
		VirtualSeconds float64          `json:"virtual_now_seconds"`
		Vars           map[string]int64 `json:"vars"`
	}
	if err := json.Unmarshal(body, &varz); err != nil {
		t.Fatalf("/varz is not valid JSON: %v\n%s", err, body)
	}
	if varz.VirtualSeconds != 1.5 {
		t.Errorf("virtual_now_seconds = %v, want 1.5", varz.VirtualSeconds)
	}
	if varz.Vars["commits"] != 42 {
		t.Errorf("vars = %v, want commits:42", varz.Vars)
	}

	code, body = get(t, srv.Addr(), "/tracez")
	if code != 200 {
		t.Fatalf("/tracez = %d %q", code, body)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("/tracez is not valid JSON: %v\n%s", err, body)
	}
	// Metadata lane + span + instant.
	if len(trace.TraceEvents) != 3 {
		t.Errorf("/tracez events = %d, want 3\n%s", len(trace.TraceEvents), body)
	}
	// The drain emptied the ring: a second scrape returns a valid empty
	// trace.
	code, body = get(t, srv.Addr(), "/tracez")
	if code != 200 {
		t.Fatalf("second /tracez = %d", code)
	}
	if err := json.Unmarshal(body, &trace); err != nil || len(trace.TraceEvents) != 0 {
		t.Errorf("second /tracez = %v events (err %v), want empty valid JSON", len(trace.TraceEvents), err)
	}

	code, _ = get(t, srv.Addr(), "/nope")
	if code != 404 {
		t.Errorf("/nope = %d, want 404", code)
	}
}

func TestServerNoSources(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerSources{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := get(t, srv.Addr(), "/metricz"); code != 404 {
		t.Errorf("/metricz without source = %d, want 404", code)
	}
	code, body := get(t, srv.Addr(), "/varz")
	if code != 200 || !strings.Contains(string(body), `"virtual_now_seconds": 0`) {
		t.Errorf("/varz without sources = %d %q", code, body)
	}
	code, body = get(t, srv.Addr(), "/tracez")
	if code != 200 || !bytes.Contains(body, []byte("traceEvents")) {
		t.Errorf("/tracez without sources = %d %q", code, body)
	}
}

func TestServerBadRequest(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerSources{
		Metrics: func(w io.Writer) error {
			_, err := io.WriteString(w, "memsnap_up 1\n")
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Post("http://"+srv.Addr()+"/metricz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusMethodNotAllowed || bytes.Contains(body, []byte("memsnap_up")) {
		t.Errorf("POST /metricz = %d %q, want 405 without metrics", resp.StatusCode, body)
	}
}

// TestServerDropsStalledClient pins the read-header deadline: a
// scraper that connects and then stalls — sending nothing, or half a
// request line — is disconnected instead of holding a goroutine and a
// descriptor until Close.
func TestServerDropsStalledClient(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	srv, err := Serve("127.0.0.1:0", ServerSources{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var conns []net.Conn
	for _, sent := range []string{"", "GET /metr"} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, sent); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
	}
	deadline := time.Now().Add(readHeaderTimeout + 2*time.Second)
	for i, conn := range conns {
		conn.SetReadDeadline(deadline)
		if _, err := io.ReadAll(conn); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Errorf("stalled connection %d still open past the read-header deadline", i)
			}
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServerSources{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := net.Dial("tcp", srv.Addr()); err == nil {
		t.Error("listener still accepting after Close")
	}
}
