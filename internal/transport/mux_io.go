package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
)

const (
	// muxPrefixLen is the big-endian u32 body length that starts a frame.
	muxPrefixLen = 4
	// muxReadBuffer sizes a connection's read buffer: room for a few dozen
	// typical frames; a larger body is read straight into its own slice.
	muxReadBuffer = 4 << 10
	// muxKeepBuffer is the largest outbox buffer kept between writes, so
	// one huge frame does not pin its size to the connection for good.
	muxKeepBuffer = 64 << 10
	// muxInternMax bounds a connection's table of routing strings.
	muxInternMax = 64
	// muxFrameChunk is the most of a frame body allocated ahead of the bytes
	// that fill it: a larger body's buffer starts at this size and doubles
	// as its bytes arrive, so a length prefix alone commits no more.
	muxFrameChunk = 64 << 10
)

// muxOutbox is the write half of one connection. Senders encode frames
// straight into buf under mu; whoever finds no flush in progress becomes
// the flusher and writes everything queued, one write per pass, until the
// queue is empty. A lone sender is therefore its own flusher — one write,
// no hand-off — and concurrent senders share writes.
type muxOutbox struct {
	conn   net.Conn
	mux    *TCPMux
	frames *metrics.Counter // the mux counter of frames this side writes
	client *muxConn         // the connection this is the write half of; nil on the server side

	mu       sync.Mutex
	buf      []byte // frames queued for the next write
	ends     []int  // offset in buf just past each queued frame
	flushing bool
	sent     uint64 // frames wholly written so far
	err      error  // non-nil once the connection is dead

	spareBuf  []byte // the previous batch's storage, swapped back in
	spareEnds []int

	raw muxRawWriter // the flusher's non-blocking first attempt
}

// beginFrame reserves the next frame's length prefix at the end of buf; the
// caller appends the body and calls endFrame. The caller holds mu.
func (o *muxOutbox) beginFrame() (start int) {
	start = len(o.buf)
	o.buf = append(o.buf, 0, 0, 0, 0)
	return start
}

// endFrame fills in the prefix of the frame begun at start and queues it.
func (o *muxOutbox) endFrame(start int) {
	binary.BigEndian.PutUint32(o.buf[start:], uint32(len(o.buf)-start-muxPrefixLen))
	o.ends = append(o.ends, len(o.buf))
}

// fail marks the connection dead. The caller holds mu; flush tears the
// connection down after releasing it.
func (o *muxOutbox) fail(err error) {
	if o.err == nil {
		o.err = err
		if o.client != nil {
			o.mux.poisoned.Inc()
		}
	}
}

// flush writes what is queued, unless another sender is already flushing —
// that sender picks these frames up in its next write. Called with mu held,
// it releases mu — around each write, and for good before it returns — and
// tears the connection down if it is dead by then. A failed write marks the
// connection dead with sent telling exactly which frames left whole; frames
// queued behind it stay unwritten.
//
// limit, when set, is the deadline of the call the flusher is making: no
// write of its outlasts it, and once it has passed, whatever is queued —
// other callers' frames, which a write bounded by an expired deadline would
// fail — is flushed by a goroutine instead. A caller is never held in here
// beyond its own deadline; every other caller's deadline bounds its wait
// through its timer. The clock is read only to check a caller's limit; a
// write reads it only if it would block.
func (o *muxOutbox) flush(limit time.Time) {
	if !o.flushing {
		o.flushing = true
		for len(o.ends) > 0 && o.err == nil {
			if !limit.IsZero() && !time.Now().Before(limit) {
				go func() { o.mu.Lock(); o.flush(time.Time{}) }()
				break
			}
			batch, ends := o.buf, o.ends
			o.buf, o.ends = o.spareBuf[:0], o.spareEnds[:0]
			o.mu.Unlock()
			n, err := o.write(batch, len(ends), limit)
			o.mu.Lock()
			whole := len(ends)
			if err != nil {
				for whole = 0; whole < len(ends) && ends[whole] <= n; whole++ {
				}
				o.fail(fmt.Errorf("transport: mux write: %w", err))
			}
			o.sent += uint64(whole)
			if cap(batch) > muxKeepBuffer {
				batch = nil
			}
			o.spareBuf, o.spareEnds = batch, ends
		}
		o.flushing = false
	}
	err := o.err
	o.mu.Unlock()
	switch {
	case err == nil:
	case o.client != nil:
		o.client.poison(err)
	default:
		o.conn.Close()
	}
}

// write sends one batch in one write call, to be over by CallTimeout from
// now or by limit, if set and sooner. The first attempt does not wait:
// whatever the socket takes at once, which on loopback is the whole batch,
// costs no deadline. Only a write that would block arms the socket's write
// deadline for the rest, and disarms it after, so no later attempt meets it
// expired.
func (o *muxOutbox) write(batch []byte, frames int, limit time.Time) (int, error) {
	if tear := o.mux.tearWrite; tear != nil {
		if cut := tear(batch); cut >= 0 {
			n, _ := o.conn.Write(batch[:cut])
			return n, errors.New("torn batch (injected)")
		}
	}
	o.mux.writes.Inc()
	o.frames.Add(int64(frames))
	n, err := o.raw.write(batch)
	if err != nil || n == len(batch) {
		return n, err
	}
	deadline := time.Now().Add(o.mux.callTimeout())
	if !limit.IsZero() && limit.Before(deadline) {
		deadline = limit
	}
	o.conn.SetWriteDeadline(deadline)
	rest, err := o.conn.Write(batch[n:])
	o.conn.SetWriteDeadline(time.Time{})
	return n + rest, err
}

// countedReader counts the read calls issued on a socket.
type countedReader struct {
	r io.Reader
	n *metrics.Counter
}

func (c countedReader) Read(p []byte) (int, error) {
	c.n.Inc()
	return c.r.Read(p)
}

// newMuxReader wraps a connection's read half in its buffer, so one read
// call brings in a frame and whatever is pipelined behind it.
func newMuxReader(r io.Reader, reads *metrics.Counter) *bufio.Reader {
	return bufio.NewReaderSize(countedReader{r, reads}, muxReadBuffer)
}

// readMuxFrame reads one length-prefixed frame and returns its body in a
// slice of its own (request payloads and reply payloads alias it). A body
// of up to muxFrameChunk bytes gets one allocation of its exact size; a
// larger one grows with the bytes that arrive, not the bytes its prefix
// claims.
func readMuxFrame(br *bufio.Reader) ([]byte, error) {
	prefix, err := br.Peek(muxPrefixLen)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF // io.EOF only between frames
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix)
	if n > maxMuxFrame {
		return nil, fmt.Errorf("%w: %d-byte frame", errMuxFrame, n)
	}
	br.Discard(muxPrefixLen)
	body := make([]byte, 0, min(n, muxFrameChunk))
	for len(body) < int(n) {
		if len(body) == cap(body) {
			grown := make([]byte, len(body), min(int(n), 2*cap(body)))
			copy(grown, body)
			body = grown
		}
		got, err := io.ReadFull(br, body[len(body):cap(body)])
		body = body[:len(body)+got]
		if err != nil {
			if err == io.EOF && len(body) > 0 {
				err = io.ErrUnexpectedEOF // as one read of the whole body would say
			}
			return nil, err
		}
	}
	return body, nil
}

// muxInterner is a server connection's table of the routing strings
// (from, to, service, method) its requests repeat, so decoding a request
// allocates none of them again. A nil table allocates every string.
type muxInterner map[string]string

func (m muxInterner) str(b []byte) string {
	if s, ok := m[string(b)]; ok { // no allocation: map lookup by converted key
		return s
	}
	s := string(b)
	if m != nil && len(m) < muxInternMax {
		m[s] = s
	}
	return s
}
