package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/actor"
	"actop/internal/codec"
	"actop/internal/transport"
	"actop/internal/workload"
)

// msgplane measures the real (non-simulated) message plane: raw transport
// throughput over loopback TCP, and full System.Call round trips through
// the zero-copy local path, the serializing local path, and remote TCP.
// Unlike the figure experiments this is a runtime micro-benchmark; it
// ignores the simulation scale flags except -measure (per-case duration).

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// mpCounter is the benchmark actor: counter adds through both paths.
type mpCounter struct{ n int64 }

func (c *mpCounter) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "Add": // fast-path message (remote calls land here)
		var add workload.CounterAdd
		if err := codec.Unmarshal(args, &add); err != nil {
			return nil, err
		}
		c.n += add.Delta
	case "AddEnc": // gob-fallback message
		var add mpEncodedAdd
		if err := codec.Unmarshal(args, &add); err != nil {
			return nil, err
		}
		c.n += add.Delta
	default:
		return nil, fmt.Errorf("no method %q", method)
	}
	return codec.Marshal(workload.CounterValue{N: c.n})
}

func (c *mpCounter) ReceiveValue(ctx *actor.Context, method string, args interface{}) (interface{}, error) {
	c.n += args.(workload.CounterAdd).Delta
	return workload.CounterValue{N: c.n}, nil
}

// mpEncodedAdd is the no-methods variant that forces the gob fallback.
type mpEncodedAdd struct{ Delta int64 }

func runMsgPlane(measure time.Duration) {
	if measure <= 0 {
		measure = 2 * time.Second
	}
	fmt.Printf("message plane micro-benchmarks (%v per case, %d workers)\n\n",
		measure, runtime.GOMAXPROCS(0))

	fmt.Printf("%-28s %14s %10s\n", "case", "ops/sec", "note")
	row := func(name string, ops uint64, note string) {
		fmt.Printf("%-28s %14.0f %10s\n", name, float64(ops)/measure.Seconds(), note)
	}

	row("tcp send (256B, loopback)", runTCPBlast(measure), "1-way")
	local, encoded := runLocalCalls(measure)
	row("local call, value path", local, "RPC")
	row("local call, encoded path", encoded, "RPC")
	row("remote call (loopback tcp)", runRemoteCalls(measure), "RPC")
}

// runTCPBlast counts one-way envelope deliveries between two TCP nodes.
func runTCPBlast(measure time.Duration) uint64 {
	a, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		fatalf("msgplane: %v", err)
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		fatalf("msgplane: %v", err)
	}
	defer b.Close()
	var delivered atomic.Uint64
	b.SetHandler(func(env *transport.Envelope) { delivered.Add(1) })

	stop := make(chan struct{})
	time.AfterFunc(measure, func() { close(stop) })
	payload := make([]byte, 256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := a.Send(b.Node(), &transport.Envelope{ID: i, Payload: payload})
				if errors.Is(err, transport.ErrQueueFull) {
					runtime.Gosched() // the writer is behind; offer the next one later
					continue
				}
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	// Let queued envelopes drain before sampling the counter.
	time.Sleep(100 * time.Millisecond)
	return delivered.Load()
}

func newMsgPlaneSystem(tr transport.Transport, peers []transport.NodeID) *actor.System {
	sys, err := actor.NewSystem(actor.Config{
		Transport: tr, Peers: peers,
		Placement: actor.PlaceLocal, Seed: 1,
		CallTimeout: 10 * time.Second,
	})
	if err != nil {
		fatalf("msgplane: %v", err)
	}
	sys.RegisterType("counter", func() actor.Actor { return &mpCounter{} })
	return sys
}

// runLocalCalls counts co-located System.Call round trips through the
// value path and the serializing path.
func runLocalCalls(measure time.Duration) (value, encoded uint64) {
	net := transport.NewNetwork(0)
	sys := newMsgPlaneSystem(net.Join("solo"), []transport.NodeID{"solo"})
	defer sys.Stop()
	ref := actor.Ref{Type: "counter", Key: "local"}

	deadline := time.Now().Add(measure)
	for time.Now().Before(deadline) {
		var out workload.CounterValue
		if err := sys.Call(ref, "Add", workload.CounterAdd{Delta: 1}, &out); err != nil {
			fatalf("msgplane: local value call: %v", err)
		}
		value++
	}
	deadline = time.Now().Add(measure)
	for time.Now().Before(deadline) {
		var out workload.CounterValue
		if err := sys.Call(ref, "AddEnc", mpEncodedAdd{Delta: 1}, &out); err != nil {
			fatalf("msgplane: local encoded call: %v", err)
		}
		encoded++
	}
	return value, encoded
}

// runRemoteCalls counts cross-node System.Call round trips over loopback
// TCP (4 concurrent callers, mirroring a small frontend fan-in).
func runRemoteCalls(measure time.Duration) uint64 {
	trA, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		fatalf("msgplane: %v", err)
	}
	trB, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		fatalf("msgplane: %v", err)
	}
	peers := []transport.NodeID{trA.Node(), trB.Node()}
	sysA := newMsgPlaneSystem(trA, peers)
	defer sysA.Stop()
	sysB := newMsgPlaneSystem(trB, peers)
	defer sysB.Stop()

	// PlaceLocal pins the actor to its first caller: activate from B so
	// A's calls go over the wire.
	ref := actor.Ref{Type: "counter", Key: "remote"}
	var out workload.CounterValue
	if err := sysB.Call(ref, "Add", workload.CounterAdd{Delta: 0}, &out); err != nil {
		fatalf("msgplane: activate: %v", err)
	}

	var calls atomic.Uint64
	deadline := time.Now().Add(measure)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				var out workload.CounterValue
				if err := sysA.Call(ref, "Add", workload.CounterAdd{Delta: 1}, &out); err != nil {
					fatalf("msgplane: remote call: %v", err)
				}
				calls.Add(1)
			}
		}()
	}
	wg.Wait()
	return calls.Load()
}
