package netsvc

import (
	"errors"
	"net" //lint:allow sockio reference client for the real-TCP data plane
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memsnap/internal/obs"
	"memsnap/internal/proto"
)

// ErrClientClosed is returned by Do once the connection is gone.
var ErrClientClosed = errors.New("netsvc: client closed")

// Tracing configures client-side trace sampling: the Sampler decides
// which requests carry wire trace context, the Recorder receives the
// client round-trip span, and Now supplies the span timestamps (the
// client has no virtual clock, so the caller picks the timeline — a
// wall-epoch offset for standalone clients, or the service clock in
// single-process tests). Track is the client's trace lane, normally
// obs.ClientTrack(i).
type Tracing struct {
	Recorder *obs.Recorder
	Sampler  *obs.Sampler
	Now      func() time.Duration
	Track    int32
}

// clientSlot is one pipelined request slot. id is atomic because the
// reader goroutine checks it to route (and drop stale) responses; ch
// has capacity 1 so the reader never blocks; buf is the slot-owned
// encode buffer, making steady-state sends allocation-free.
type clientSlot struct {
	id  atomic.Uint64
	ch  chan proto.Response
	buf []byte
}

// Client is a pipelined protocol client: up to depth concurrent Do
// calls share one TCP connection, each owning a slot for the duration
// of its request. Request ids are slot|generation, so a late or stale
// response can never be delivered to the wrong caller. Do transparently
// retries RETRY_AFTER responses after the server's backoff hint —
// the client half of the wire backpressure contract.
//
// Writes combine: a request appends its frame to a shared pending
// buffer, and the caller that finds no write in progress becomes the
// writer and flushes everything queued, one Write per batch, until the
// queue is empty. A lone request is written at once; see send.
type Client struct {
	c     net.Conn
	slots []clientSlot
	free  chan uint32
	done  chan struct{}

	// wmu guards the write-combining state. pending collects frames
	// for the next Write; the active writer owns spare (the batch being
	// written) and swaps the two. writeErr, once set, fails every
	// later send.
	wmu      sync.Mutex
	pending  []byte
	spare    []byte
	writing  bool
	writeErr error
	// burst reports that the read loop's last read delivered more than
	// one response, so a herd of woken callers is about to send.
	burst atomic.Bool

	retries  atomic.Int64
	closed   atomic.Bool
	readErr  error // set before done is closed
	closeOne sync.Once

	trace Tracing
}

// EnableTracing installs client-side trace sampling. Call it once,
// before the first request — it is not synchronized against in-flight
// Do calls. With a nil Sampler (the default) the client passes any
// caller-set trace context through unchanged.
func (c *Client) EnableTracing(t Tracing) { c.trace = t }

// Dial connects to a netsvc server with the given pipeline depth
// (minimum 1).
func Dial(addr string, depth int) (*Client, error) {
	if depth < 1 {
		depth = 1
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(nc, depth), nil
}

// newClient runs the client protocol over an established connection.
func newClient(nc net.Conn, depth int) *Client {
	c := &Client{
		c:       nc,
		slots:   make([]clientSlot, depth),
		free:    make(chan uint32, depth),
		done:    make(chan struct{}),
		pending: make([]byte, 0, 128*depth),
		spare:   make([]byte, 0, 128*depth),
	}
	for i := range c.slots {
		c.slots[i].ch = make(chan proto.Response, 1)
		c.slots[i].buf = make([]byte, 0, 128)
		c.free <- uint32(i)
	}
	go c.readLoop()
	return c
}

// readLoop routes response frames to their slots by id.
//
//memsnap:hotpath
func (c *Client) readLoop() {
	fr := proto.NewFrameReader(c.c, 0)
	var p proto.Response
	first := true // the next frame is the first of a read
	for {
		payload, err := fr.Next()
		if err != nil {
			c.readErr = err
			close(c.done)
			return
		}
		if err := proto.DecodeResponse(payload, &p); err != nil {
			c.readErr = err
			close(c.done)
			return
		}
		// Frames still buffered behind the first one of a read mean a
		// burst: the callers it wakes will send together.
		more := fr.Buffered() > 0
		if first {
			c.burst.Store(more)
		}
		first = !more
		slot := uint32(p.ID & 0xffffffff)
		if int(slot) >= len(c.slots) {
			continue // not ours; ignore
		}
		s := &c.slots[slot]
		if s.id.Load() != p.ID {
			continue // stale generation
		}
		s.ch <- p // capacity 1, slot exclusively owned: never blocks
	}
}

// DoOnce sends one request and waits for its response without
// retrying, exposing RETRY_AFTER (and every other status) to the
// caller. q.ID is overwritten with the slot-generation id.
func (c *Client) DoOnce(q *proto.Request) (proto.Response, error) {
	var slot uint32
	select {
	case slot = <-c.free:
	case <-c.done:
		return proto.Response{}, c.closeErr()
	}
	s := &c.slots[slot]
	gen := (s.id.Load() >> 32) + 1
	id := gen<<32 | uint64(slot)
	s.id.Store(id)
	q.ID = id
	var tid uint64
	var tstart time.Duration
	if c.trace.Sampler != nil {
		q.Traced, q.TraceID = false, 0
		if tid2, ok := c.trace.Sampler.Sample(); ok {
			q.Traced, q.TraceID = true, tid2
			tid = tid2
			if c.trace.Now != nil {
				tstart = c.trace.Now()
			}
		}
	}
	var err error
	s.buf, err = proto.AppendRequest(s.buf[:0], q)
	if err != nil {
		c.free <- slot
		return proto.Response{}, err
	}
	if err := c.send(s.buf); err != nil {
		s.id.Store(0)
		c.free <- slot
		return proto.Response{}, err
	}
	select {
	case p := <-s.ch:
		c.free <- slot
		c.finishTrace(tid, tstart, q.Kind)
		return p, nil
	case <-c.done:
		// done is closed only after the read loop has exited, so any
		// response for this slot was already delivered: prefer it over
		// the close (the select above picks arbitrarily when both are
		// ready).
		select {
		case p := <-s.ch:
			c.free <- slot
			c.finishTrace(tid, tstart, q.Kind)
			return p, nil
		default:
		}
		// Mark the slot stale before freeing so nothing lands in the
		// next generation.
		s.id.Store(0)
		c.free <- slot
		return proto.Response{}, c.closeErr()
	}
}

// send queues one encoded frame and, unless another caller is already
// writing, becomes the writer: it flushes the queue one Write per batch
// until it is empty, so requests arriving during a Write leave in the
// next one. A lone request goes out at once. Only when the read loop
// just woke a burst of callers does the writer yield once before its
// first Write, letting the rest of the burst queue behind it. A failed
// Write records the error and closes the connection: queued callers
// whose frames were lost then fail through done, and later sends fail
// here.
//
//memsnap:hotpath
func (c *Client) send(frame []byte) error {
	c.wmu.Lock()
	if err := c.writeErr; err != nil {
		c.wmu.Unlock()
		return err
	}
	c.pending = append(c.pending, frame...)
	if c.writing {
		c.wmu.Unlock()
		return nil // the active writer flushes it
	}
	c.writing = true
	c.wmu.Unlock()
	if c.burst.Load() {
		runtime.Gosched()
	}
	c.wmu.Lock()
	for len(c.pending) > 0 {
		batch := c.pending
		c.pending = c.spare[:0]
		c.wmu.Unlock()
		_, err := c.c.Write(batch)
		c.wmu.Lock()
		c.spare = batch[:0]
		if err != nil {
			c.writeErr = err
			c.pending = c.pending[:0]
			c.writing = false
			c.wmu.Unlock()
			c.c.Close()
			return err
		}
	}
	c.writing = false
	c.wmu.Unlock()
	return nil
}

// finishTrace records the client round-trip span of a sampled request
// once its response has arrived. A zero tid (untraced — the common
// case) returns immediately.
func (c *Client) finishTrace(tid uint64, tstart time.Duration, kind proto.Kind) {
	if tid == 0 || !c.trace.Recorder.Enabled() {
		return
	}
	end := tstart
	if c.trace.Now != nil {
		end = c.trace.Now()
	}
	c.trace.Recorder.SpanFlow(obs.CatNet, obs.NameClientRequest, c.trace.Track,
		tstart, end-tstart, int64(kind), tid)
}

// Do sends one request and waits for a terminal response, resending
// after the server's backoff hint for as long as it answers
// RETRY_AFTER (the server guarantees a RETRY_AFTER'd request was not
// applied, so the resend is safe for non-idempotent ops too).
func (c *Client) Do(q *proto.Request) (proto.Response, error) {
	for {
		p, err := c.DoOnce(q)
		if err != nil || !p.Status.Retryable() {
			return p, err
		}
		c.retries.Add(1)
		backoff := p.RetryAfter
		if backoff <= 0 {
			backoff = 100 * time.Microsecond
		}
		time.Sleep(backoff) //lint:allow walltime wire-level retry backoff against a real server
	}
}

// Retries returns the number of RETRY_AFTER-triggered resends.
func (c *Client) Retries() int64 { return c.retries.Load() }

func (c *Client) closeErr() error {
	if c.closed.Load() {
		return ErrClientClosed
	}
	if err := c.readErr; err != nil {
		return err
	}
	return ErrClientClosed
}

// Close tears the connection down; outstanding and future Do calls
// fail. Idempotent.
func (c *Client) Close() error {
	c.closed.Store(true)
	var err error
	c.closeOne.Do(func() { err = c.c.Close() })
	return err
}
