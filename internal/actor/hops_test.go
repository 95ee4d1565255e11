package actor

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"actop/internal/testutil"
	"actop/internal/transport"
)

// newTCPNode starts one counter-hosting node over a real TCP transport.
func newTCPNode(t *testing.T, tr *transport.TCP, peers []transport.NodeID, cfg Config) *System {
	t.Helper()
	cfg.Transport, cfg.Peers = tr, peers
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterType("counter", func() Actor { return &counterActor{} })
	t.Cleanup(s.Stop)
	return s
}

func listenTCP(t *testing.T) *transport.TCP {
	t.Helper()
	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// refOwnedBy finds a counter ref whose directory owner, as s sees it, is
// owner.
func refOwnedBy(t *testing.T, s *System, owner transport.NodeID, tag string) Ref {
	t.Helper()
	for i := 0; i < 1000; i++ {
		ref := Ref{Type: "counter", Key: fmt.Sprintf("%s-%d", tag, i)}
		if s.directoryOwner(ref) == owner {
			return ref
		}
	}
	t.Fatalf("no ref owned by %s", owner)
	return Ref{}
}

// TestSlowPathOffReadLoop pins which deliveries may run on the transport's
// read loop. The callee B must activate the target on demand, and
// activation re-confirms placement with the directory owner — the caller
// A. A's answer comes back over the very connection whose read loop
// delivered the call, so if activation ran on that read loop the answer
// would sit unread behind it and the call would stall for a whole
// attempt timeout (2 heartbeat intervals) before failing.
func TestSlowPathOffReadLoop(t *testing.T) {
	ta, tb := listenTCP(t), listenTCP(t)
	peers := []transport.NodeID{ta.Node(), tb.Node()}
	cfg := Config{Placement: PlaceLocal, CallTimeout: 10 * time.Second, Seed: 1}
	a := newTCPNode(t, ta, peers, cfg)
	b := newTCPNode(t, tb, peers, cfg)

	ref := refOwnedBy(t, a, a.Node(), "slowpath")
	// Register B as the host in A's directory, as B's own first call would
	// under PlaceLocal, without activating the actor anywhere.
	if n, err := a.dirLookupLocal(ref, b.Node(), true); err != nil || n != b.Node() {
		t.Fatalf("seed directory: %v %v", n, err)
	}
	if b.HostsActor(ref) || a.HostsActor(ref) {
		t.Fatal("actor active before the call")
	}
	start := time.Now()
	var out int
	if err := a.Call(ref, "Add", 5, &out); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("on-demand remote activation took %v; the slow path must not run on the read loop", d)
	}
	if out != 5 || !b.HostsActor(ref) {
		t.Fatalf("out = %d, hosted on B = %v", out, b.HostsActor(ref))
	}
}

// TestStalledPeerDoesNotStallCalls wedges one peer — it accepts
// connections and never reads — and fills the caller's outbound queue to
// it. Calls that need the wedged peer must fail within the call budget,
// and calls to a healthy peer must keep succeeding: a stuck peer's full
// queue sheds its own traffic instead of blocking the goroutines that
// send to everyone.
func TestStalledPeerDoesNotStallCalls(t *testing.T) {
	ta, tb := listenTCP(t), listenTCP(t)
	sNode := transport.NodeID(testutil.StalledListener(t).Addr().String())
	peers := []transport.NodeID{ta.Node(), tb.Node(), sNode}
	// Failover off: the detector would otherwise declare the wedged peer
	// dead mid-test and rehash its directory ranges to the healthy nodes.
	cfg := Config{Placement: PlaceLocal, CallTimeout: 3 * time.Second, DisableFailover: true, Seed: 1}
	a := newTCPNode(t, ta, peers, cfg)
	b := newTCPNode(t, tb, peers, cfg)

	// Healthy traffic: actors placed on B, directory-owned by A or B.
	var healthy []Ref
	for i := 0; len(healthy) < 8; i++ {
		ref := Ref{Type: "counter", Key: fmt.Sprintf("healthy-%d", i)}
		if a.directoryOwner(ref) == sNode {
			continue
		}
		if err := b.Call(ref, "Add", 1, nil); err != nil {
			t.Fatal(err)
		}
		healthy = append(healthy, ref)
	}

	// Fill A's queue to the wedged peer. Every queued copy aliases one
	// payload, so this holds envelope headers, not a thousand payloads.
	filled := make(chan error, 1)
	go func() {
		env := &transport.Envelope{Kind: transport.KindControl, Method: "noise", Payload: make([]byte, 64<<10)}
		for i := 0; i < 1<<20; i++ {
			if err := ta.Send(sNode, env); err != nil {
				filled <- err
				return
			}
		}
		filled <- errors.New("queue to the wedged peer never filled")
	}()
	select {
	case err := <-filled:
		if !errors.Is(err, transport.ErrQueueFull) {
			t.Fatalf("filling the wedged peer's queue: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Send blocked on a wedged peer's full queue")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 4; i++ {
		ref := refOwnedBy(t, a, sNode, fmt.Sprintf("stalled%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			err := a.Call(ref, "Add", 1, nil)
			if err == nil {
				errs <- fmt.Errorf("call needing the wedged peer succeeded")
			} else if d := time.Since(start); d > cfg.CallTimeout+500*time.Millisecond {
				errs <- fmt.Errorf("call needing the wedged peer took %v (budget %v): %v", d, cfg.CallTimeout, err)
			}
		}()
	}
	for _, ref := range healthy {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := a.Call(ref, "Add", 1, nil); err != nil {
					errs <- fmt.Errorf("healthy call %s: %w", ref, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
