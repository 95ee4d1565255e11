// Heartbeat: the §6.2 monitoring service on the real runtime — one actor
// per monitored entity, clients posting periodic status updates. ActOp's
// thread controller learns the stage parameters from live measurements and
// resizes the SEDA pools; the example prints the allocation it converges to
// and the observed latency before/after.
//
//	go run ./examples/heartbeat
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"actop/internal/actor"
	"actop/internal/codec"
	"actop/internal/core"
	"actop/internal/transport"
)

// entity keeps the latest heartbeat for one monitored client.
type entity struct {
	LastBeat int64
	Beats    int
}

func (e *entity) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "Beat":
		var at int64
		if err := codec.Unmarshal(args, &at); err != nil {
			return nil, err
		}
		e.LastBeat = at
		e.Beats++
		return nil, nil
	case "Status":
		return codec.Marshal(e.LastBeat)
	}
	return nil, fmt.Errorf("unknown method %q", method)
}

func (e *entity) Snapshot() ([]byte, error) { return codec.Marshal(*e) }
func (e *entity) Restore(b []byte) error    { return codec.Unmarshal(b, e) }

func main() {
	const entities = 200
	const loaders = 8
	const perLoader = 400

	net := transport.NewNetwork(0)
	peers := []transport.NodeID{"silo-0"}
	sys, err := actor.NewSystem(actor.Config{
		Transport: net.Join(peers[0]),
		Peers:     peers,
		// Deliberately oversubscribed default: one thread per stage per
		// "core", as the paper's baseline.
		ReceiverWorkers: 8, Workers: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys.RegisterType("entity", func() actor.Actor { return &entity{} })
	defer sys.Stop()

	run := func(label string) time.Duration {
		var mu sync.Mutex
		var lats []time.Duration
		var wg sync.WaitGroup
		for l := 0; l < loaders; l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				for i := 0; i < perLoader; i++ {
					ref := actor.Ref{Type: "entity", Key: fmt.Sprintf("e-%d", (l*perLoader+i)%entities)}
					start := time.Now()
					if err := sys.Call(ref, "Beat", time.Now().UnixNano(), nil); err != nil {
						continue
					}
					mu.Lock()
					lats = append(lats, time.Since(start))
					mu.Unlock()
				}
			}(l)
		}
		wg.Wait()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		med := lats[len(lats)/2]
		p99 := lats[len(lats)*99/100]
		fmt.Printf("%-18s median %-12v p99 %v  (%d beats)\n", label, med, p99, len(lats))
		return med
	}

	recv, work, send := sys.Stages()
	fmt.Printf("default allocation : recv=%d work=%d send=%d\n", recv.Workers(), work.Workers(), send.Workers())
	run("default threads")

	// Attach the §5 thread controller and let it observe one window.
	opts := core.DefaultOptions()
	opts.Partitioning = false
	opts.ThreadPeriod = 500 * time.Millisecond
	opts.MinSamples = 100
	opt := core.NewOptimizer(sys, opts)
	defer opt.Stop()

	run("measuring window")
	opt.Retune()
	fmt.Printf("ActOp allocation   : recv=%d work=%d send=%d\n", recv.Workers(), work.Workers(), send.Workers())
	run("tuned threads")

	// The entities kept every beat.
	var total int
	for i := 0; i < entities; i++ {
		ref := actor.Ref{Type: "entity", Key: fmt.Sprintf("e-%d", i)}
		var last int64
		if err := sys.Call(ref, "Status", nil, &last); err == nil && last > 0 {
			total++
		}
	}
	fmt.Printf("%d/%d entities reporting fresh status\n", total, entities)
}
