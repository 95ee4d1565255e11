package transport

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkTCPSendThroughput measures the full send→wire→receive path over
// loopback TCP: one envelope per op, allocs/op on the sending side, and
// delivered msgs/sec as a custom metric.
func BenchmarkTCPSendThroughput(b *testing.B) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	recv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()

	var got atomic.Int64
	recv.SetHandler(func(env *Envelope) { got.Add(1) })

	payload := make([]byte, 256)
	env := &Envelope{
		Kind: KindCall, ActorType: "player", ActorKey: "p42",
		Method: "Status", Payload: payload,
	}
	// Warm the connection.
	if err := a.Send(recv.Node(), env); err != nil {
		b.Fatal(err)
	}
	for got.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	got.Store(0)

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		env.ID = uint64(i)
		if err := sendBlocking(a, recv.Node(), env); err != nil {
			b.Fatal(err)
		}
	}
	// Wait for full delivery so msgs/sec reflects the wire, not the queue.
	for got.Load() < int64(b.N) {
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "msgs/sec")
}

// sendBlocking offers env until the peer's queue takes it. Send sheds on a
// full queue rather than wait; a blast benchmark wants the backpressure
// instead, so it yields to the writer and offers the envelope again.
func sendBlocking(t *TCP, to NodeID, env *Envelope) error {
	for {
		err := t.Send(to, env)
		if !errors.Is(err, ErrQueueFull) {
			return err
		}
		runtime.Gosched()
	}
}
