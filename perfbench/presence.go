package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"actop/internal/actor"
	"actop/internal/codec"
)

// presence: the Halo presence service. A status op walks console → game →
// every roster member's presence record and gathers the replies (fan-out
// and fan-in over nested synchronous calls), open loop at a fixed Poisson
// rate. Games end and restart (churn): the slot's next game is a new
// actor, activated on demand wherever placement puts it, and the
// partitioner has to find it again.
const (
	presPlayers = 1024
	presRoster  = 8
	presGames   = presPlayers / presRoster
	presRate    = 400.0 // status ops/s
	presChurn   = 2.0   // game restarts/s
	presCon     = "pcon"
	presGame    = "pgame"
	presRec     = "ppres"
)

// presStatus is a player's (static) presence status; the gather must
// return exactly these.
func presStatus(player int) uint32 { return uint32(player*2654435761>>7) % 5 }

// presExpect is the summary a status op on a console of game g returns:
// the sum of its members' statuses.
func presExpect(g int) uint64 {
	var s uint64
	for j := g * presRoster; j < (g+1)*presRoster; j++ {
		s += uint64(presStatus(j))
	}
	return s
}

// statusReply is a console's answer: how many members answered and the
// sum of their statuses.
type statusReply struct{ Members, Sum uint64 }

func (m statusReply) AppendBinary(dst []byte) ([]byte, error) {
	return codec.AppendUvarint(codec.AppendUvarint(dst, m.Members), m.Sum), nil
}

func (m *statusReply) UnmarshalBinary(b []byte) error {
	a, b, err := codec.ReadUvarint(b)
	if err != nil {
		return err
	}
	s, _, err := codec.ReadUvarint(b)
	m.Members, m.Sum = a, s
	return err
}

// rosterReply is a game's gather result: one status per member, in
// roster order.
type rosterReply struct{ Statuses []uint32 }

func (m rosterReply) AppendBinary(dst []byte) ([]byte, error) {
	dst = codec.AppendUvarint(dst, uint64(len(m.Statuses)))
	for _, s := range m.Statuses {
		dst = codec.AppendUvarint(dst, uint64(s))
	}
	return dst, nil
}

func (m *rosterReply) UnmarshalBinary(b []byte) error {
	n, b, err := codec.ReadUvarint(b)
	if err != nil || n > presRoster {
		return fmt.Errorf("presence: bad roster reply (%d members): %v", n, err)
	}
	m.Statuses = make([]uint32, n)
	for i := range m.Statuses {
		var v uint64
		if v, b, err = codec.ReadUvarint(b); err != nil {
			return err
		}
		m.Statuses[i] = uint32(v)
	}
	return nil
}

// recordReply is one presence record: whose, and its status.
type recordReply struct{ Player, Status uint64 }

func (m recordReply) AppendBinary(dst []byte) ([]byte, error) {
	return codec.AppendUvarint(codec.AppendUvarint(dst, m.Player), m.Status), nil
}

func (m *recordReply) UnmarshalBinary(b []byte) error {
	p, b, err := codec.ReadUvarint(b)
	if err != nil {
		return err
	}
	s, _, err := codec.ReadUvarint(b)
	m.Player, m.Status = p, s
	return err
}

type presence struct {
	seed       int64
	p          *probes
	gen        [presGames]atomic.Int32 // driver-side game generation per slot
	served     []atomic.Uint32         // per console: status ops its turns ran
	done       []atomic.Uint32         // per console: status ops completed at the driver
	legsSent   atomic.Int64            // nested calls issued by turns
	legsRecv   atomic.Int64            // turns that served a nested call
	badReplies atomic.Int64
}

func newPresence(seed int64) *presence {
	return &presence{seed: seed, served: make([]atomic.Uint32, presPlayers), done: make([]atomic.Uint32, presPlayers)}
}

func (w *presence) config() clusterConfig {
	return clusterConfig{
		workers:          16,
		noThreadControl:  true,
		partitionPeriod:  time.Second,
		exchangeCooldown: time.Second,
	}
}

func (w *presence) rootMethod() string    { return "Status" }
func (w *presence) offered() float64      { return presRate }
func (w *presence) warmup() time.Duration { return 5 * time.Second }

// windows is 1: churned games are re-homed by exchange rounds that run
// throughout a window.
func (w *presence) windows() int { return 1 }

func (w *presence) register(sys *actor.System, p *probes) {
	w.p = p
	sys.RegisterType(presCon, func() actor.Actor { return &consoleActor{w: w, idx: -1} })
	sys.RegisterType(presGame, func() actor.Actor { return &gameActor{w: w, slot: -1} })
	sys.RegisterType(presRec, func() actor.Actor { return &recordActor{w: w, idx: -1} })
}

func gameRef(slot int, gen int32) actor.Ref {
	return actor.Ref{Type: presGame, Key: strconv.Itoa(slot) + "." + strconv.Itoa(int(gen))}
}

func (w *presence) populate(c *cluster) error {
	return parallel(2*presPlayers+presGames, 32, func(i int) error {
		var ref actor.Ref
		switch {
		case i < presPlayers:
			ref = actor.Ref{Type: presCon, Key: strconv.Itoa(i)}
		case i < 2*presPlayers:
			ref = actor.Ref{Type: presRec, Key: strconv.Itoa(i - presPlayers)}
		default:
			ref = gameRef(i-2*presPlayers, 0)
		}
		return c.systems[i%nodes].Call(ref, "Ping", nil, nil)
	})
}

func (w *presence) drive(c *cluster, d time.Duration, phase int64) ([]opRecord, []int64) {
	rng := phaseRNG(w.seed, phase)
	sched, n := schedule(rng, d, presRate,
		func() int32 { return int32(rng.Intn(presPlayers)) },
		presChurn,
		func() int32 { return int32(rng.Intn(presGames)) })
	return openLoop(sched, n, func(op, console int) (int8, error) {
		node := op % nodes
		var r statusReply
		err := c.systems[node].Call(actor.Ref{Type: presCon, Key: strconv.Itoa(console)}, "Status", nil, &r)
		if err == nil {
			w.done[console].Add(1)
			if r.Members != presRoster || r.Sum != presExpect(console/presRoster) {
				w.badReplies.Add(1)
			}
		}
		return int8(node), err
	}, func(slot int) { w.gen[slot].Add(1) })
}

func (w *presence) check(c *cluster) []string {
	var out []string
	var served, done uint64
	bad := 0
	for i := range w.served {
		s, d := w.served[i].Load(), w.done[i].Load()
		served += uint64(s)
		done += uint64(d)
		if s != d {
			bad++
		}
	}
	if served != done || bad > 0 {
		out = append(out, fmt.Sprintf("presence: consoles ran %d status ops, driver completed %d (%d consoles differ)", served, done, bad))
	}
	sent, recv := w.legsSent.Load(), w.legsRecv.Load()
	if sent != recv {
		out = append(out, fmt.Sprintf("presence: %d fan-out legs sent, %d received", sent, recv))
	}
	if want := int64(done) * (1 + presRoster); sent != want {
		out = append(out, fmt.Sprintf("presence: %d legs for %d completed ops, want %d", sent, done, want))
	}
	if n := w.badReplies.Load(); n > 0 {
		out = append(out, fmt.Sprintf("presence: %d status replies did not match the rosters", n))
	}
	return out
}

// consoleActor is a player's console: a status op asks its current game
// for the roster's presence and summarizes it.
type consoleActor struct {
	w      *presence
	idx    int
	served uint64
}

func keyIndex(key string, limit int) (int, error) {
	i, err := strconv.Atoi(key)
	if err != nil || i < 0 || i >= limit {
		return 0, fmt.Errorf("bad key %q", key)
	}
	return i, nil
}

func (a *consoleActor) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	t := a.w.p.turnStart()
	defer a.w.p.turnEnd(t)
	if a.idx < 0 {
		i, err := keyIndex(ctx.Self().Key, presPlayers)
		if err != nil {
			return nil, err
		}
		a.idx = i
	}
	switch method {
	case "Ping":
		return nil, nil
	case "Status":
		a.served++
		a.w.served[a.idx].Add(1)
		slot := a.idx / presRoster
		var r rosterReply
		a.w.legsSent.Add(1)
		if err := a.w.p.call(ctx, gameRef(slot, a.w.gen[slot].Load()), "Gather", nil, &r); err != nil {
			return nil, err
		}
		out := statusReply{Members: uint64(len(r.Statuses))}
		for _, s := range r.Statuses {
			out.Sum += uint64(s)
		}
		return a.w.p.marshal(out)
	}
	return nil, fmt.Errorf("presence: console: unknown method %q", method)
}

func (a *consoleActor) Snapshot() ([]byte, error) { return codec.Marshal(countMsg{N: a.served}) }

func (a *consoleActor) Restore(b []byte) error {
	var m countMsg
	err := codec.Unmarshal(b, &m)
	a.served = m.N
	return err
}

// gameActor is one game session: it gathers its roster's presence records,
// asking all members at once.
type gameActor struct {
	w       *presence
	slot    int
	gathers uint64
}

func (a *gameActor) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	t := a.w.p.turnStart()
	defer a.w.p.turnEnd(t)
	if a.slot < 0 {
		s, _, _ := strings.Cut(ctx.Self().Key, ".")
		i, err := keyIndex(s, presGames)
		if err != nil {
			return nil, err
		}
		a.slot = i
	}
	switch method {
	case "Ping":
		return nil, nil
	case "Gather":
		a.w.legsRecv.Add(1)
		a.gathers++
		recs := make([]recordReply, presRoster)
		legs := make([]leg, presRoster)
		for k := range legs {
			legs[k] = leg{to: actor.Ref{Type: presRec, Key: strconv.Itoa(a.slot*presRoster + k)}, method: "Get", reply: &recs[k]}
		}
		a.w.legsSent.Add(presRoster)
		if err := a.w.p.gather(ctx, legs); err != nil {
			return nil, err
		}
		out := rosterReply{Statuses: make([]uint32, presRoster)}
		for k, r := range recs {
			if j := a.slot*presRoster + k; r.Player != uint64(j) {
				return nil, fmt.Errorf("presence: record %d answered for %d", j, r.Player)
			}
			out.Statuses[k] = uint32(r.Status)
		}
		return a.w.p.marshal(out)
	}
	return nil, fmt.Errorf("presence: game: unknown method %q", method)
}

func (a *gameActor) Snapshot() ([]byte, error) { return codec.Marshal(countMsg{N: a.gathers}) }

func (a *gameActor) Restore(b []byte) error {
	var m countMsg
	err := codec.Unmarshal(b, &m)
	a.gathers = m.N
	return err
}

// recordActor is one player's presence record. It holds no mutable state,
// so it migrates without a snapshot.
type recordActor struct {
	w   *presence
	idx int
}

func (a *recordActor) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	t := a.w.p.turnStart()
	defer a.w.p.turnEnd(t)
	if a.idx < 0 {
		i, err := keyIndex(ctx.Self().Key, presPlayers)
		if err != nil {
			return nil, err
		}
		a.idx = i
	}
	switch method {
	case "Ping":
		return nil, nil
	case "Get":
		a.w.legsRecv.Add(1)
		return a.w.p.marshal(recordReply{Player: uint64(a.idx), Status: uint64(presStatus(a.idx))})
	}
	return nil, fmt.Errorf("presence: record: unknown method %q", method)
}
