package netsvc

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"memsnap/internal/proto"
	"memsnap/internal/shard"
)

// countingConn counts Read and Write calls on a connection: each one is
// a syscall on a real socket, so the counts measure the wire path's
// syscall cost deterministically, without timing anything.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
	// stall, when non-nil, holds every Write until it is closed and
	// then fails it: a socket whose send side broke while its receive
	// side stays open.
	stall chan struct{}
}

var errSendBroken = errors.New("send side broken")

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.stall != nil {
		<-c.stall
		return 0, errSendBroken
	}
	return c.Conn.Write(p)
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	conns chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: nc}
	l.conns <- cc
	return cc, nil
}

// TestServerReadsBurstInOneRead: a 16-frame burst that arrives in one
// segment is decoded from one Read. The server makes at most one more,
// the Read that blocks waiting for the next burst.
func TestServerReadsBurstInOneRead(t *testing.T) {
	svc := newService(t, shard.Config{Shards: 2})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln, conns: make(chan *countingConn, 1)}
	srv := serveListener(cl, svc, Config{})
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	const burst = 16
	var frames []byte
	for i := 0; i < burst; i++ {
		q := proto.Request{ID: uint64(i + 1), Kind: proto.KindGet, Tenant: []byte("t"), Key: []byte("k")}
		if frames, err = proto.AppendRequest(frames, &q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(frames); err != nil {
		t.Fatal(err)
	}
	fr := proto.NewFrameReader(nc, 0)
	var p proto.Response
	for i := 0; i < burst; i++ {
		payload, err := fr.Next()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if err := proto.DecodeResponse(payload, &p); err != nil || p.Status != proto.StatusOK {
			t.Fatalf("response %d: %v %v", i, err, p.Status)
		}
	}
	sc := <-cl.conns
	if reads := sc.reads.Load(); reads > 2 {
		t.Fatalf("server made %d reads for a %d-frame burst, want <= 2", reads, burst)
	}
}

// pipeClient is a Client over one end of a net.Pipe. A pipe Write
// blocks until the peer reads, so the test controls exactly when a
// write is in progress.
type pipeClient struct {
	*Client
	conn *countingConn
	peer net.Conn
}

func newPipeClient(depth int) *pipeClient {
	a, b := net.Pipe()
	cc := &countingConn{Conn: a}
	return &pipeClient{Client: newClient(cc, depth), conn: cc, peer: b}
}

// newStalledClient is a pipeClient whose writes block until release is
// called and then fail, while the pipe stays open for reading.
func newStalledClient(depth int) (pc *pipeClient, release func()) {
	a, b := net.Pipe()
	cc := &countingConn{Conn: a, stall: make(chan struct{})}
	pc = &pipeClient{Client: newClient(cc, depth), conn: cc, peer: b}
	return pc, func() { close(cc.stall) }
}

// pendingLen returns the bytes queued for the next write, or -1 while
// wmu is held (a client that held it across a Write would otherwise
// hang the poll).
func (pc *pipeClient) pendingLen() int {
	if !pc.wmu.TryLock() {
		return -1
	}
	defer pc.wmu.Unlock()
	return len(pc.pending)
}

// queueBehindBlockedWrite starts n pings: the first becomes the writer
// and blocks in Write on the unread pipe, the other n-1 queue their
// frames behind it. Each call's outcome arrives on the returned
// channel.
func (pc *pipeClient) queueBehindBlockedWrite(t *testing.T, n int) <-chan error {
	t.Helper()
	results := make(chan error, n)
	ping := func() {
		var q proto.Request // KindPing
		p, err := pc.DoOnce(&q)
		if err == nil && p.Status != proto.StatusOK {
			err = errors.New(p.Status.String())
		}
		results <- err
	}
	go ping()
	waitFor(t, func() bool { return pc.conn.writes.Load() == 1 }, "first write in progress")
	frame, err := proto.AppendRequest(nil, &proto.Request{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		go ping()
	}
	waitFor(t, func() bool { return pc.pendingLen() == (n-1)*len(frame) }, "callers queued behind the write")
	return results
}

// collect waits for n outcomes, failing the test if any caller hangs.
func collect(t *testing.T, results <-chan error, n int) []error {
	t.Helper()
	deadline := time.After(5 * time.Second)
	errs := make([]error, 0, n)
	for len(errs) < n {
		select {
		case err := <-results:
			errs = append(errs, err)
		case <-deadline:
			t.Fatalf("%d of %d callers still blocked after 5s", n-len(errs), n)
		}
	}
	return errs
}

// TestClientCombinesQueuedWrites: requests that arrive while a write is
// in progress leave together in the next Write, not one Write each.
func TestClientCombinesQueuedWrites(t *testing.T) {
	const n = 16
	pc := newPipeClient(n)
	defer pc.Close()
	results := pc.queueBehindBlockedWrite(t, n)

	// Act as the server: read all n requests, answer them in one write.
	fr := proto.NewFrameReader(pc.peer, 0)
	var resps []byte
	var q proto.Request
	for i := 0; i < n; i++ {
		payload, err := fr.Next()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if err := proto.DecodeRequest(payload, &q); err != nil {
			t.Fatal(err)
		}
		resps = proto.AppendResponse(resps, &proto.Response{ID: q.ID})
	}
	if _, err := pc.peer.Write(resps); err != nil {
		t.Fatal(err)
	}
	for i, err := range collect(t, results, n) {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if w := pc.conn.writes.Load(); w != 2 {
		t.Fatalf("%d requests took %d writes, want 2 (the lone first one, then the queued batch)", n, w)
	}
}

// TestClientWriteFailureFailsQueuedCallers: when a write fails — the
// peer went away, or only the send side broke and reads would block on
// — the writer and every caller queued behind it return an error
// promptly, and later requests fail at once.
func TestClientWriteFailureFailsQueuedCallers(t *testing.T) {
	const n = 16
	t.Run("peer closed", func(t *testing.T) {
		pc := newPipeClient(n)
		defer pc.Close()
		results := pc.queueBehindBlockedWrite(t, n)
		pc.peer.Close()
		expectAllFail(t, pc, results, n)
	})
	t.Run("send side broken", func(t *testing.T) {
		pc, release := newStalledClient(n)
		defer pc.peer.Close()
		defer pc.Close()
		results := pc.queueBehindBlockedWrite(t, n)
		release()
		expectAllFail(t, pc, results, n)
	})
}

func expectAllFail(t *testing.T, pc *pipeClient, results <-chan error, n int) {
	t.Helper()
	for i, err := range collect(t, results, n) {
		if err == nil {
			t.Fatalf("caller %d succeeded on a dead connection", i)
		}
	}
	var q proto.Request
	if _, err := pc.DoOnce(&q); err == nil {
		t.Fatal("request after the write failure succeeded")
	}
}

// TestClientCloseDuringCombinedFlush: Close while a combined flush is
// blocked fails the writer and every queued caller with an error.
func TestClientCloseDuringCombinedFlush(t *testing.T) {
	const n = 16
	pc := newPipeClient(n)
	defer pc.peer.Close()
	results := pc.queueBehindBlockedWrite(t, n)
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	expectAllFail(t, pc, results, n)
}
