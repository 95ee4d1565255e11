package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"actop/internal/actor"
	"actop/internal/codec"
)

// heartbeat: a closed loop of hbCallers callers sending single-hop beats
// with tiny payloads to a flat population of hbActors sessions, randomly
// placed, so about two thirds of calls cross a node. ActOp runs fully on
// (shipped defaults). The per-call path does nearly all the work.
const (
	hbActors  = 30_000
	hbCallers = 8
	hbType    = "hb"
)

// beatMsg is a heartbeat: caller identity and sequence number.
type beatMsg struct {
	Seq    uint64
	Caller uint32
}

func (m beatMsg) AppendBinary(dst []byte) ([]byte, error) {
	return codec.AppendUvarint(codec.AppendUvarint(dst, m.Seq), uint64(m.Caller)), nil
}

func (m *beatMsg) UnmarshalBinary(b []byte) error {
	seq, b, err := codec.ReadUvarint(b)
	if err != nil {
		return err
	}
	c, _, err := codec.ReadUvarint(b)
	m.Seq, m.Caller = seq, uint32(c)
	return err
}

// countMsg carries one counter (replies, snapshots).
type countMsg struct{ N uint64 }

func (m countMsg) AppendBinary(dst []byte) ([]byte, error) { return codec.AppendUvarint(dst, m.N), nil }

func (m *countMsg) UnmarshalBinary(b []byte) error {
	n, _, err := codec.ReadUvarint(b)
	m.N = n
	return err
}

type heartbeat struct {
	seed    int64
	p       *probes
	applied []atomic.Uint32 // per session: beats applied by its turns
	done    []atomic.Uint32 // per session: beats the driver saw complete
	stale   atomic.Int64    // replies whose count went backwards
}

func newHeartbeat(seed int64) *heartbeat {
	return &heartbeat{seed: seed, applied: make([]atomic.Uint32, hbActors), done: make([]atomic.Uint32, hbActors)}
}

func (w *heartbeat) config() clusterConfig { return clusterConfig{} }
func (w *heartbeat) rootMethod() string    { return "Beat" }
func (w *heartbeat) offered() float64      { return 0 }
func (w *heartbeat) warmup() time.Duration { return time.Second }

// windows is 1: the thread controller ticks every 10 s, so only a long
// window measures the stage sizes it tunes.
func (w *heartbeat) windows() int { return 1 }

func (w *heartbeat) register(sys *actor.System, p *probes) {
	w.p = p
	sys.RegisterType(hbType, func() actor.Actor { return &hbActor{w: w, idx: -1} })
}

func hbRef(i int) actor.Ref { return actor.Ref{Type: hbType, Key: strconv.Itoa(i)} }

func (w *heartbeat) populate(c *cluster) error {
	return parallel(hbActors, 32, func(i int) error {
		return c.systems[i%nodes].Call(hbRef(i), "Ping", nil, nil)
	})
}

func (w *heartbeat) drive(c *cluster, d time.Duration, phase int64) ([]opRecord, []int64) {
	rngs := make([]*rand.Rand, hbCallers)
	last := make([][]uint64, hbCallers)
	for i := range rngs {
		rngs[i] = phaseRNG(w.seed, phase*64+int64(i))
		last[i] = make([]uint64, hbActors)
	}
	recs := closedLoop(hbCallers, d, func(caller, seq int) (int8, error) {
		k := rngs[caller].Intn(hbActors)
		node := caller % nodes
		var ack countMsg
		err := c.systems[node].Call(hbRef(k), "Beat", beatMsg{Seq: uint64(seq), Caller: uint32(caller)}, &ack)
		if err == nil {
			w.done[k].Add(1)
			// One caller's beats to one session are serial, so the
			// session's count must have grown since this caller's last.
			if ack.N <= last[caller][k] {
				w.stale.Add(1)
			}
			last[caller][k] = ack.N
		}
		return int8(node), err
	})
	return recs, nil
}

func (w *heartbeat) check(c *cluster) []string {
	var out []string
	var applied, done uint64
	bad := 0
	for i := range w.applied {
		a, d := w.applied[i].Load(), w.done[i].Load()
		applied += uint64(a)
		done += uint64(d)
		if a != d {
			bad++
		}
	}
	if applied != done || bad > 0 {
		out = append(out, fmt.Sprintf("heartbeat: %d beats applied by sessions, %d completed at the driver (%d sessions differ)", applied, done, bad))
	}
	if n := w.stale.Load(); n > 0 {
		out = append(out, fmt.Sprintf("heartbeat: %d replies carried a stale session count", n))
	}
	return out
}

// hbActor is one session: it counts the beats it absorbed.
type hbActor struct {
	w     *heartbeat
	idx   int
	count uint64
}

func (a *hbActor) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	t := a.w.p.turnStart()
	defer a.w.p.turnEnd(t)
	if a.idx < 0 {
		i, err := strconv.Atoi(ctx.Self().Key)
		if err != nil || i < 0 || i >= hbActors {
			return nil, fmt.Errorf("heartbeat: bad key %q", ctx.Self().Key)
		}
		a.idx = i
	}
	switch method {
	case "Ping":
		return nil, nil
	case "Beat":
		var m beatMsg
		if err := a.w.p.unmarshal(args, &m); err != nil {
			return nil, err
		}
		a.count++
		a.w.applied[a.idx].Add(1)
		return a.w.p.marshal(countMsg{N: a.count})
	}
	return nil, fmt.Errorf("heartbeat: unknown method %q", method)
}

func (a *hbActor) Snapshot() ([]byte, error) { return codec.Marshal(countMsg{N: a.count}) }

func (a *hbActor) Restore(b []byte) error {
	var m countMsg
	err := codec.Unmarshal(b, &m)
	a.count = m.N
	return err
}
