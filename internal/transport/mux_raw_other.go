//go:build !unix

package transport

import "net"

// muxRawWriter on platforms without a raw socket write takes nothing, so
// every batch goes out under a write deadline.
type muxRawWriter struct{}

func (*muxRawWriter) init(net.Conn) {}

func (*muxRawWriter) write([]byte) (int, error) { return 0, nil }
