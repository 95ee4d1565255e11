package transport

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"actop/internal/testutil"
)

// TestTCPStalledPeerFailsFast pins Send's load-shedding contract: once a
// stalled peer's outbound queue is full, Send to it fails at once with
// ErrQueueFull instead of blocking the caller, and sends to a healthy peer
// keep flowing through their own queue.
func TestTCPStalledPeerFailsFast(t *testing.T) {
	stalled := NodeID(testutil.StalledListener(t).Addr().String())
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got atomic.Int64
	b.SetHandler(func(*Envelope) { got.Add(1) })

	// One shared payload: every queued copy aliases it, so filling the
	// queue costs envelope headers, not 1024 payloads.
	env := &Envelope{Kind: KindCall, Payload: make([]byte, 64<<10)}
	fill := func() error {
		for i := 0; i < 1<<20; i++ {
			if err := a.Send(stalled, env); err != nil {
				return err
			}
		}
		return errors.New("queue to the stalled peer never filled")
	}
	filled := make(chan error, 1)
	go func() {
		// The first fill can outrun a writer that is still draining into
		// the kernel's socket buffers; once those are full the writer
		// wedges, and a second fill leaves the queue full for good.
		if err := fill(); !errors.Is(err, ErrQueueFull) {
			filled <- err
			return
		}
		time.Sleep(100 * time.Millisecond)
		filled <- fill()
	}()
	select {
	case err := <-filled:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("Send to a stalled peer: %v, want ErrQueueFull", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Send blocked on a stalled peer's full queue")
	}
	time.Sleep(50 * time.Millisecond)
	if err := a.Send(stalled, env); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue to a wedged peer drained (Send: %v); the peer is not stalled", err)
	}
	for i := 0; i < 100; i++ {
		if err := a.Send(b.Node(), &Envelope{Kind: KindCall, ID: uint64(i)}); err != nil {
			t.Fatalf("send to healthy peer: %v", err)
		}
	}
	waitFor(t, func() bool { return got.Load() == 100 }, "healthy peer starved by a stalled one")
}
