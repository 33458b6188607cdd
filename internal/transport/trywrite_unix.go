//go:build unix

package transport

import (
	"net"
	"syscall"
)

// tryWriter makes single non-blocking writes on a connection's file
// descriptor. It belongs to whoever holds the connection's write turn
// (Conn.writing), so its fields need no lock of their own; the callback is
// bound once so an attempt allocates nothing.
type tryWriter struct {
	rc syscall.RawConn
	fn func(fd uintptr) bool
	b  []byte
	n  int
}

// newTryWriter returns nil when nc has no descriptor to write to (the
// test doubles, a wrapped connection): such a connection is only ever
// written by the write loop.
func newTryWriter(nc net.Conn) *tryWriter {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	w := &tryWriter{rc: rc}
	w.fn = w.once
	return w
}

// once is the RawConn.Write callback: one write(2), and done whatever it
// returned, so the poller never parks the caller.
func (w *tryWriter) once(fd uintptr) bool {
	w.n, _ = syscall.Write(int(fd), w.b)
	return true
}

// try writes as much of b as the socket takes without blocking and
// returns how much that was. Zero covers everything that is the write
// loop's to deal with: a full socket buffer, a closed or failed
// connection, an expired deadline.
func (w *tryWriter) try(b []byte) int {
	w.b, w.n = b, 0
	_ = w.rc.Write(w.fn) // the write loop's blocking write finds and owns any error
	w.b = nil
	return max(w.n, 0)
}
