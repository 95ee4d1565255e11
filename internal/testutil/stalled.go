package testutil

import (
	"net"
	"sync"
	"testing"
)

// StalledListener listens on a loopback port, accepts connections and
// never reads from them: a peer whose process is alive but wedged. Writes
// to it fill the kernel buffers and then block the writing goroutine for
// good. The listener and every accepted connection close at test cleanup.
func StalledListener(t testing.TB) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	return l
}
