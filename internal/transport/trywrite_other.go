//go:build !unix

package transport

import "net"

// tryWriter is the non-blocking write attempt of trywrite_unix.go; on
// other platforms no connection has one, so every frame takes the write
// loop.
type tryWriter struct{}

func newTryWriter(net.Conn) *tryWriter { return nil }

func (*tryWriter) try([]byte) int { return 0 }
