//go:build unix

package transport

import (
	"net"
	"os"
	"syscall"
)

// muxRawWriter makes one write(2) on a socket without waiting for room in
// it, so it neither consults nor arms the poller's write deadline. It is
// used by one flusher at a time.
type muxRawWriter struct {
	rc  syscall.RawConn
	try func(fd uintptr) bool // w.tryFD, bound once: a write allocates nothing
	b   []byte
	n   int
	err error
}

func (w *muxRawWriter) init(conn net.Conn) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return
	}
	if rc, err := sc.SyscallConn(); err == nil {
		w.rc, w.try = rc, w.tryFD
	}
}

// write reports how much of b the socket took at once; fewer bytes than
// len(b) with a nil error means the rest would block.
func (w *muxRawWriter) write(b []byte) (int, error) {
	if w.rc == nil {
		return 0, nil
	}
	w.b = b
	err := w.rc.Write(w.try)
	n, werr := w.n, w.err
	w.b, w.n, w.err = nil, 0, nil
	switch {
	case err != nil:
		return 0, err
	case werr == syscall.EAGAIN:
		return 0, nil
	case werr != nil:
		return 0, os.NewSyscallError("write", werr)
	}
	return n, nil
}

// tryFD always reports the attempt done: RawConn.Write must not wait.
func (w *muxRawWriter) tryFD(fd uintptr) bool {
	for {
		n, err := syscall.Write(int(fd), w.b)
		if err != syscall.EINTR {
			w.n, w.err = max(n, 0), err
			return true
		}
	}
}
