package proto

import (
	"encoding/binary"
	"io"
)

// readBufSize is the frame reader's initial buffer: one Read pulls in
// up to this many bytes, so a pipelined burst of small frames costs one
// syscall instead of two per frame.
const readBufSize = 32 << 10

// FrameReader reads length-prefixed frames from an io.Reader through
// one reusable buffer. Each Read fills as much of the buffer as the
// source has ready, and Next hands out every complete frame it holds
// before reading again. Next returns the payload of the next frame;
// the returned slice aliases the internal buffer and is valid only
// until the following Next call. The buffer grows at most to the
// configured maximum payload size, so a hostile length prefix cannot
// force a large allocation: prefixes above the cap fail with
// ErrFrameTooLarge before any buffer grows.
type FrameReader struct {
	r   io.Reader
	buf []byte
	// buf[start:end] holds bytes read from r and not yet consumed.
	start, end int
	// err is a read error that arrived together with data; the next
	// read attempt returns it.
	err error
	max int
	// n counts payload+prefix bytes consumed from r (wire accounting
	// for the server's bytes-in stat).
	n int64
}

// NewFrameReader wraps r with a frame decoder capped at max payload
// bytes (0 or negative: MaxFrame).
func NewFrameReader(r io.Reader, max int) *FrameReader {
	if max <= 0 {
		max = MaxFrame
	}
	//lint:allow hotalloc per-connection constructor, not per frame
	return &FrameReader{r: r, buf: make([]byte, readBufSize), max: max}
}

// Next returns the payload of the next frame, reading from the source
// only when the buffer holds no complete frame. io.EOF is returned
// only on a clean boundary (no partial frame read); a connection cut
// mid-frame yields io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() ([]byte, error) {
	for fr.end-fr.start < 4 {
		if err := fr.fill(); err != nil {
			if fr.end == fr.start {
				return nil, err
			}
			if err == io.EOF {
				fr.n += 4 // partial; close enough for stats
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	n := binary.BigEndian.Uint32(fr.buf[fr.start:])
	fr.start += 4
	fr.n += 4
	if n == 0 {
		return nil, ErrTruncated
	}
	if int64(n) > int64(fr.max) {
		return nil, ErrFrameTooLarge
	}
	size := int(n)
	if size > len(fr.buf) {
		// The prefix is consumed, so the buffer only has to hold the
		// payload: growth stops at max.
		//lint:allow hotalloc frame buffer growth to the high-water payload size, amortized
		grown := make([]byte, size)
		fr.end = copy(grown, fr.buf[fr.start:fr.end])
		fr.start = 0
		fr.buf = grown
	}
	for fr.end-fr.start < size {
		if err := fr.fill(); err != nil {
			fr.n += int64(fr.end - fr.start)
			fr.start = fr.end
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	payload := fr.buf[fr.start : fr.start+size]
	fr.start += size
	fr.n += int64(size)
	return payload, nil
}

// fill makes one Read into the free tail of the buffer, first moving
// the unconsumed bytes (less than one frame) to the front. Callers
// loop until enough bytes arrived; an error that came with data is
// held back for the next call, so the data is used first.
func (fr *FrameReader) fill() error {
	if err := fr.err; err != nil {
		fr.err = nil
		return err
	}
	if fr.start > 0 {
		fr.end = copy(fr.buf, fr.buf[fr.start:fr.end])
		fr.start = 0
	}
	m, err := fr.r.Read(fr.buf[fr.end:])
	fr.end += m
	if m > 0 {
		fr.err = err
		return nil
	}
	return err
}

// Buffered returns the number of bytes read from the source but not
// yet returned as frames.
func (fr *FrameReader) Buffered() int { return fr.end - fr.start }

// BytesRead returns the total wire bytes consumed so far.
func (fr *FrameReader) BytesRead() int64 { return fr.n }
