package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net"      //lint:allow sockio obs.Serve is the documented loopback observability boundary
	"net/http" //lint:allow sockio net/http is the obs boundary's HTTP stack
	"time"

	"memsnap/internal/sim"
)

// ServerSources supplies the live data the observability server
// exposes. All callbacks must be safe for concurrent use (they run on
// per-connection goroutines).
type ServerSources struct {
	// Metrics writes the Prometheus text exposition for /metricz.
	Metrics func(w io.Writer) error
	// Vars returns the expvar-style state marshaled as JSON for /varz
	// (typically shard stats + replication stats + pool stats).
	Vars func() any
	// Trace drains the event ring for /tracez.
	Trace func() []Event
	// Health reports readiness for /healthz: ready yields 200, a
	// draining/unready process yields 503, each with detail as the
	// body. A nil Health means /healthz always answers 200 "ok".
	Health func() (ready bool, detail string)
	// TopK returns the per-tenant attribution entries for /topz.
	TopK func() []TenantStat
	// Clock, when set, bridges virtual time at the boundary: /varz
	// responses carry the current virtual time alongside the
	// caller-supplied vars. Reads go through the clock's atomic Now —
	// the one cross-goroutine access the clock ownership rule permits
	// (internal/sim/clock.go).
	Clock *sim.Clock
}

// Connection deadlines: a scraper that stalls mid-request, stops
// reading a response or idles on a kept-alive connection is dropped
// rather than holding a goroutine and a descriptor until Close.
// readHeaderTimeout is a variable only so tests can shorten it.
var readHeaderTimeout = 5 * time.Second

const (
	writeTimeout = 30 * time.Second
	idleTimeout  = 60 * time.Second
)

// Server is the loopback observability front end: a real TCP listener
// served by net/http (HTTP/1.1 with keep-alive; non-GET methods get
// 405). It serves:
//
//	GET /metricz  Prometheus text exposition (ServerSources.Metrics)
//	GET /varz     expvar-style JSON state (ServerSources.Vars)
//	GET /tracez   Chrome trace-event JSON drained from the ring
//	GET /healthz  readiness probe: 200 ready / 503 draining
//	GET /topz     per-tenant top-K attribution as JSON
//
// Inside the simulation all timestamps are virtual; the server is the
// boundary where a wall-clock world (a scraper, a browser) observes
// them, so responses carry virtual times as plain numbers and the
// server itself never advances any clock.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	src  ServerSources
	done chan struct{} // closed when the accept loop has returned
}

// Serve starts the server on addr (e.g. "127.0.0.1:0") and begins
// accepting connections.
func Serve(addr string, src ServerSources) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, src: src, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metricz", s.metricz)
	mux.HandleFunc("GET /varz", s.varz)
	mux.HandleFunc("GET /tracez", s.tracez)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /topz", s.topz)
	mux.HandleFunc("GET /", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "not found (try /metricz, /varz, /tracez, /healthz, /topz)", http.StatusNotFound)
	})
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once Close runs
	}()
	return s, nil
}

// Addr returns the listener's address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes open connections and waits for the
// accept loop to exit. Idempotent.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// vnow is the boundary's virtual now, read once per request through
// the clock's atomic Now (the documented cross-goroutine clock access).
func (s *Server) vnow() time.Duration {
	if s.src.Clock == nil {
		return 0
	}
	return s.src.Clock.Now()
}

func reply(w http.ResponseWriter, contentType string, code int, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(code)
	w.Write(body)
}

func replyJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	reply(w, "application/json", http.StatusOK, append(data, '\n'))
}

func (s *Server) metricz(w http.ResponseWriter, r *http.Request) {
	if s.src.Metrics == nil {
		http.Error(w, "no metrics source", http.StatusNotFound)
		return
	}
	var body bytes.Buffer
	if err := s.src.Metrics(&body); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	reply(w, "text/plain; version=0.0.4; charset=utf-8", http.StatusOK, body.Bytes())
}

func (s *Server) varz(w http.ResponseWriter, r *http.Request) {
	var vars any
	if s.src.Vars != nil {
		vars = s.src.Vars()
	}
	replyJSON(w, struct {
		VirtualSeconds float64 `json:"virtual_now_seconds"`
		Vars           any     `json:"vars"`
	}{s.vnow().Seconds(), vars})
}

func (s *Server) tracez(w http.ResponseWriter, r *http.Request) {
	var events []Event
	if s.src.Trace != nil {
		events = s.src.Trace()
	}
	var body bytes.Buffer
	if err := WriteTrace(&body, events); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	reply(w, "application/json", http.StatusOK, body.Bytes())
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	ready, detail := true, "ok"
	if s.src.Health != nil {
		ready, detail = s.src.Health()
	}
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	reply(w, "text/plain; charset=utf-8", code, []byte(detail+"\n"))
}

func (s *Server) topz(w http.ResponseWriter, r *http.Request) {
	var top []TenantStat
	if s.src.TopK != nil {
		top = s.src.TopK()
	}
	replyJSON(w, struct {
		VirtualSeconds float64      `json:"virtual_now_seconds"`
		Tenants        []TenantStat `json:"tenants"`
	}{s.vnow().Seconds(), top})
}
