package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"actop/internal/actor"
	"actop/internal/codec"
)

// ingest: device → aggregator fan-in. Zipf-popular devices send writes of
// about 1 KiB; each device forwards to one of a few aggregators, which are
// Durable and replicate snapshots to one peer. A closed loop of
// ingCallers writers, each awaiting its ack before the next write, so at
// most ingCallers device turns ever wait on an aggregator: fewer than the
// 16 workers of a node, so the nested-call stall cannot form. Mailbox
// serialization on the hot aggregators, snapshot capture and shipping,
// and payload bytes do the work. Partitioning is off: how many hot devices
// an exchange round moved inside a run split the runs' throughput by up
// to 30% (README.md).
const (
	ingDevices  = 8192
	ingAggs     = 4
	ingCallers  = 12
	ingPayload  = 1024
	ingPayloads = 64 // distinct payloads per seed
	ingZipfS    = 1.1
	ingZipfV    = 10 // flattens the head: the hottest device takes ~2% of writes, the top 10 ~15%
	ingKeep     = 8  // payloads an aggregator keeps (its snapshot carries them)
	ingDev      = "idev"
	ingAgg      = "iagg"
)

// writeMsg is one device write.
type writeMsg struct {
	Device uint32
	Seq    uint64
	Data   []byte
}

func (m writeMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = codec.AppendUvarint(dst, uint64(m.Device))
	dst = codec.AppendUvarint(dst, m.Seq)
	return codec.AppendBytes(dst, m.Data), nil
}

func (m *writeMsg) UnmarshalBinary(b []byte) error {
	d, b, err := codec.ReadUvarint(b)
	if err != nil {
		return err
	}
	s, b, err := codec.ReadUvarint(b)
	if err != nil {
		return err
	}
	data, _, err := codec.ReadBytes(b)
	if err != nil {
		return err
	}
	m.Device, m.Seq, m.Data = uint32(d), s, append([]byte(nil), data...)
	return nil
}

// aggTotals is an aggregator's running account of what it absorbed.
type aggTotals struct{ Count, Bytes, Sum uint64 }

func (m aggTotals) AppendBinary(dst []byte) ([]byte, error) {
	return codec.AppendUvarint(codec.AppendUvarint(codec.AppendUvarint(dst, m.Count), m.Bytes), m.Sum), nil
}

func (m *aggTotals) UnmarshalBinary(b []byte) error {
	var err error
	for _, f := range []*uint64{&m.Count, &m.Bytes, &m.Sum} {
		if *f, b, err = codec.ReadUvarint(b); err != nil {
			return err
		}
	}
	return nil
}

// aggState is an aggregator's snapshot: totals plus the payloads it keeps.
type aggState struct {
	Totals aggTotals
	Recent [][]byte
}

func (m aggState) AppendBinary(dst []byte) ([]byte, error) {
	dst, _ = m.Totals.AppendBinary(dst)
	dst = codec.AppendUvarint(dst, uint64(len(m.Recent)))
	for _, r := range m.Recent {
		dst = codec.AppendBytes(dst, r)
	}
	return dst, nil
}

func (m *aggState) UnmarshalBinary(b []byte) error {
	var t aggTotals
	var err error
	for _, f := range []*uint64{&t.Count, &t.Bytes, &t.Sum} {
		if *f, b, err = codec.ReadUvarint(b); err != nil {
			return err
		}
	}
	n, b, err := codec.ReadUvarint(b)
	if err != nil || n > ingKeep {
		return fmt.Errorf("ingest: bad aggregator snapshot: %v", err)
	}
	m.Totals, m.Recent = t, make([][]byte, n)
	for i := range m.Recent {
		var r []byte
		if r, b, err = codec.ReadBytes(b); err != nil {
			return err
		}
		m.Recent[i] = append([]byte(nil), r...)
	}
	return nil
}

func payloadSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

type ingest struct {
	seed     int64
	p        *probes
	payloads [][]byte
	sums     []uint64
	perm     []int32         // Zipf rank → device
	written  []atomic.Uint32 // per device: writes its turns applied
	done     []atomic.Uint32 // per device: writes completed at the driver
	want     [ingAggs]struct{ count, bytes, sum atomic.Uint64 }
	legsSent atomic.Int64
	legsRecv atomic.Int64
}

func newIngest(seed int64) *ingest {
	w := &ingest{seed: seed, written: make([]atomic.Uint32, ingDevices), done: make([]atomic.Uint32, ingDevices)}
	rng := phaseRNG(seed, -1)
	for i := 0; i < ingPayloads; i++ {
		b := make([]byte, ingPayload-64+rng.Intn(128))
		rng.Read(b)
		w.payloads = append(w.payloads, b)
		w.sums = append(w.sums, payloadSum(b))
	}
	w.perm = make([]int32, ingDevices)
	for i, v := range rng.Perm(ingDevices) {
		w.perm[i] = int32(v)
	}
	return w
}

func (w *ingest) config() clusterConfig {
	return clusterConfig{
		workers:         16,
		noThreadControl: true,
		durableReplicas: 1,
		noPartitioning:  true,
	}
}

func (w *ingest) rootMethod() string    { return "Write" }
func (w *ingest) offered() float64      { return 0 }
func (w *ingest) warmup() time.Duration { return 3 * time.Second }

// windows is setupReps: nothing in ingest tunes itself over time, and
// single set-ups of one run differed in throughput by about 5% (random
// placement of the hot devices, host noise), so the run pools them all.
func (w *ingest) windows() int { return setupReps }

func (w *ingest) register(sys *actor.System, p *probes) {
	w.p = p
	sys.RegisterType(ingDev, func() actor.Actor { return &deviceActor{w: w, idx: -1} })
	sys.RegisterType(ingAgg, func() actor.Actor { return &aggActor{w: w} })
}

func devRef(i int) actor.Ref { return actor.Ref{Type: ingDev, Key: strconv.Itoa(i)} }
func aggRef(i int) actor.Ref { return actor.Ref{Type: ingAgg, Key: strconv.Itoa(i)} }

func (w *ingest) populate(c *cluster) error {
	return parallel(ingDevices+ingAggs, 32, func(i int) error {
		ref := devRef(i)
		if i >= ingDevices {
			ref = aggRef(i - ingDevices)
		}
		return c.systems[i%nodes].Call(ref, "Ping", nil, nil)
	})
}

func (w *ingest) drive(c *cluster, d time.Duration, phase int64) ([]opRecord, []int64) {
	zipfs := make([]*rand.Zipf, ingCallers)
	for i := range zipfs {
		zipfs[i] = rand.NewZipf(phaseRNG(w.seed, phase*64+int64(i)), ingZipfS, ingZipfV, ingDevices-1)
	}
	recs := closedLoop(ingCallers, d, func(caller, seq int) (int8, error) {
		dev := int(w.perm[zipfs[caller].Uint64()])
		node := caller % nodes
		pl := (caller + seq*ingCallers) % ingPayloads
		var ack countMsg
		err := c.systems[node].Call(devRef(dev), "Write",
			writeMsg{Device: uint32(dev), Seq: uint64(seq), Data: w.payloads[pl]}, &ack)
		if err == nil {
			w.done[dev].Add(1)
			a := &w.want[dev%ingAggs]
			a.count.Add(1)
			a.bytes.Add(uint64(len(w.payloads[pl])))
			a.sum.Add(w.sums[pl])
		}
		return int8(node), err
	})
	return recs, nil
}

func (w *ingest) check(c *cluster) []string {
	var out []string
	var written, done uint64
	bad := 0
	for i := range w.written {
		a, d := w.written[i].Load(), w.done[i].Load()
		written += uint64(a)
		done += uint64(d)
		if a != d {
			bad++
		}
	}
	if written != done || bad > 0 {
		out = append(out, fmt.Sprintf("ingest: devices applied %d writes, driver completed %d (%d devices differ)", written, done, bad))
	}
	if s, r := w.legsSent.Load(), w.legsRecv.Load(); s != r || s != int64(done) {
		out = append(out, fmt.Sprintf("ingest: %d forwards sent, %d received, %d writes completed", s, r, done))
	}
	for a := 0; a < ingAggs; a++ {
		var got aggTotals
		if err := c.systems[a%nodes].Call(aggRef(a), "Totals", nil, &got); err != nil {
			out = append(out, fmt.Sprintf("ingest: aggregator %d totals: %v", a, err))
			continue
		}
		want := aggTotals{Count: w.want[a].count.Load(), Bytes: w.want[a].bytes.Load(), Sum: w.want[a].sum.Load()}
		if got != want {
			out = append(out, fmt.Sprintf("ingest: aggregator %d holds %+v, writes sent to it total %+v", a, got, want))
		}
	}
	return out
}

// deviceActor is one device: it counts its writes and forwards each to
// its aggregator.
type deviceActor struct {
	w      *ingest
	idx    int
	writes uint64
}

func (a *deviceActor) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	t := a.w.p.turnStart()
	defer a.w.p.turnEnd(t)
	if a.idx < 0 {
		i, err := keyIndex(ctx.Self().Key, ingDevices)
		if err != nil {
			return nil, err
		}
		a.idx = i
	}
	switch method {
	case "Ping":
		return nil, nil
	case "Write":
		var m writeMsg
		if err := a.w.p.unmarshal(args, &m); err != nil {
			return nil, err
		}
		if int(m.Device) != a.idx {
			return nil, fmt.Errorf("ingest: device %d got a write for %d", a.idx, m.Device)
		}
		var ack countMsg
		a.w.legsSent.Add(1)
		if err := a.w.p.call(ctx, aggRef(a.idx%ingAggs), "Add", m, &ack); err != nil {
			return nil, err
		}
		a.writes++
		a.w.written[a.idx].Add(1)
		return a.w.p.marshal(countMsg{N: a.writes})
	}
	return nil, fmt.Errorf("ingest: device: unknown method %q", method)
}

func (a *deviceActor) Snapshot() ([]byte, error) { return codec.Marshal(countMsg{N: a.writes}) }

func (a *deviceActor) Restore(b []byte) error {
	var m countMsg
	err := codec.Unmarshal(b, &m)
	a.writes = m.N
	return err
}

// aggActor is a durable aggregator: it absorbs writes into running totals
// and keeps the latest ingKeep payloads.
type aggActor struct {
	w     *ingest
	state aggState
}

func (a *aggActor) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	t := a.w.p.turnStart()
	defer a.w.p.turnEnd(t)
	switch method {
	case "Ping":
		return nil, nil
	case "Add":
		var m writeMsg
		if err := a.w.p.unmarshal(args, &m); err != nil {
			return nil, err
		}
		a.w.legsRecv.Add(1)
		st := &a.state
		st.Totals.Count++
		st.Totals.Bytes += uint64(len(m.Data))
		st.Totals.Sum += payloadSum(m.Data)
		if len(st.Recent) < ingKeep {
			st.Recent = append(st.Recent, m.Data)
		} else {
			st.Recent[st.Totals.Count%ingKeep] = m.Data
		}
		return a.w.p.marshal(countMsg{N: st.Totals.Count})
	case "Totals":
		return a.w.p.marshal(a.state.Totals)
	}
	return nil, fmt.Errorf("ingest: aggregator: unknown method %q", method)
}

func (a *aggActor) Snapshot() ([]byte, error) { return codec.Marshal(a.state) }

func (a *aggActor) Restore(b []byte) error { return codec.Unmarshal(b, &a.state) }

// DurableActor opts aggregators into snapshot replication.
func (a *aggActor) DurableActor() {}

// CopyValue gives the runtime the cheap capture: the turn lock is held
// only for this copy; the encode runs off the turn path. Payload slices
// are never written after an Add stores them, so sharing them is safe.
func (a *aggActor) CopyValue() interface{} {
	cp := &aggActor{w: a.w, state: aggState{Totals: a.state.Totals}}
	cp.state.Recent = append([][]byte(nil), a.state.Recent...)
	return cp
}
