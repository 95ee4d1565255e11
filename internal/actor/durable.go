package actor

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"actop/internal/codec"
	"actop/internal/durable"
	"actop/internal/flight"
	"actop/internal/metrics"
	"actop/internal/transport"
)

// Actor-layer durability (ISSUE 8): Durable actors' state is captured off
// the turn path, encoded + shipped by the background snapshotter pool over
// the actop.snap control verb to K rendezvous-chosen peer replicas, and on
// failover re-activation the new owner pulls the highest-(epoch, seq)
// snapshot before admitting the first turn. The migration epoch versions
// every snapshot so a delayed ship from a pre-migration incarnation can
// never clobber a newer one — the same guard the directory updates use.

// durabilityOn reports whether this node runs the durability plane at all.
func (s *System) durabilityOn() bool { return s.cfg.DurableReplicas > 0 }

// isDurable reports whether an actor instance participates in durability:
// the plane is on and the type opted in via the Durable marker.
func (s *System) isDurable(inst Actor) bool {
	if !s.durabilityOn() {
		return false
	}
	_, ok := inst.(Durable)
	return ok
}

// Durables snapshots the node's durability counters.
func (s *System) Durables() metrics.DurableSnapshot { return s.durables.Snapshot() }

// ReplicaStore exposes the node's replica store (debug endpoints, benches).
func (s *System) ReplicaStore() *durable.Store { return s.snapStore }

// captureSnapshotLocked captures a Durable activation's state. Called from
// drain with a.turnMu held, so the only work done here is the state copy:
// actors implementing codec.Copier pay one deep copy and the gob encode
// runs on the snapshotter pool; plain Migratable actors pay Snapshot inline
// (their encode IS the copy — there is no cheaper way to isolate their
// state). No transport or codec call happens on this path. The returned job
// (nil when the capture failed) encodes and ships; the caller submits it to
// the pool AFTER releasing the turn lock and answering the caller, so even
// the pool handoff stays off the reply path.
func (s *System) captureSnapshotLocked(a *activation) func() {
	var encode func() ([]byte, error)
	if c, ok := a.actor.(codec.Copier); ok {
		if m, ok := c.CopyValue().(Migratable); ok {
			encode = m.Snapshot
		}
	}
	if encode == nil {
		m, ok := a.actor.(Migratable)
		if !ok {
			return nil
		}
		state, err := m.Snapshot()
		if err != nil {
			s.durables.CaptureErrors.Add(1)
			return nil
		}
		encode = func() ([]byte, error) { return state, nil }
	}
	a.snapSeq++
	a.dirty = 0
	a.lastSnap = time.Now()
	s.durables.Captured.Add(1)
	ref, epoch, seq := a.ref, a.epoch, a.snapSeq
	return func() {
		state, err := encode()
		if err != nil {
			s.durables.CaptureErrors.Add(1)
			return
		}
		s.shipSnapshot(ref, epoch, seq, state)
	}
}

// shipSnapshot encodes the wire record once and streams it to each replica.
// Runs on the snapshotter pool (or a SyncSnapshots caller), never under a
// turn lock.
func (s *System) shipSnapshot(ref Ref, epoch, seq uint64, state []byte) {
	payload := durable.AppendRecord(nil, durable.Record{
		Type: ref.Type, Key: ref.Key, Epoch: epoch, Seq: seq, State: state,
	})
	s.flight.Record(flight.Event{Kind: flight.KindSnapshotShip, Actor: ref.String(), N: uint64(len(payload))})
	for _, p := range s.snapReplicas(ref) {
		// A plain dead-skip is right here, unlike on the recovery path: a
		// ship withheld from a falsely-accused peer costs one interval of
		// replica freshness and the next capture repairs it, while a
		// recovery read that wrongly skips a replica is irreversible.
		if !s.cfg.DisableFailover && s.PeerStateOf(p) == PeerDead {
			continue
		}
		if err := s.controlCallRaw(p, ctlSnap, payload, s.cfg.CallTimeout); err != nil {
			s.durables.ShipErrors.Add(1)
			continue
		}
		s.durables.Shipped.Add(1)
		s.durables.ShippedBytes.Add(uint64(len(payload)))
	}
}

// snapScore is the rendezvous weight of one (peer, ref) pair. The "snap"
// salt decorrelates replica choice from directoryOwner, so losing one node
// doesn't take out an actor's directory home and its replica set together.
func snapScore(p transport.NodeID, ref Ref) uint64 {
	h := fnv.New64a()
	h.Write([]byte("snap"))
	h.Write([]byte{0})
	h.Write([]byte(p))
	h.Write([]byte{0})
	h.Write([]byte(ref.Type))
	h.Write([]byte{0})
	h.Write([]byte(ref.Key))
	return h.Sum64()
}

// topSnapPeers returns the k highest-scoring peers for ref by rendezvous
// hashing, excluding skip. Deterministic across nodes: every node computes
// the same replica set from the same membership.
func (s *System) topSnapPeers(ref Ref, k int, skip transport.NodeID) []transport.NodeID {
	type scored struct {
		n     transport.NodeID
		score uint64
	}
	cands := make([]scored, 0, len(s.peers))
	for _, p := range s.peers {
		if p == skip {
			continue
		}
		cands = append(cands, scored{n: p, score: snapScore(p, ref)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].n < cands[j].n
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]transport.NodeID, 0, k)
	for _, c := range cands[:k] {
		out = append(out, c.n)
	}
	return out
}

// snapReplicas is the replica set a snapshot of ref ships to: the top-K
// rendezvous peers excluding this node (the live activation IS the primary
// copy; replicating to self adds nothing).
func (s *System) snapReplicas(ref Ref) []transport.NodeID {
	return s.topSnapPeers(ref, s.cfg.DurableReplicas, s.Node())
}

// snapDeadGrace is how long the snapshot plane distrusts a dead verdict.
// The failure detector's false positives (heartbeats starved under a
// recovery stampede, a GC pause on the remote) are indistinguishable from
// a real death at the moment they fire, and the snapshot plane is the one
// place where acting on a wrong verdict is irreversible: skipping a live
// replica during a recovery pull resurrects the actor with amnesia. So for
// a grace period after the verdict — twice the detection time itself,
// capped so a real outage cannot stall fresh activations past half the
// call budget — dead-marked peers are still probed, and a probe failure
// counts as an unreachable replica (retry-safe refusal) rather than an
// authoritative miss. Past the grace the verdict is trusted and the peer's
// store is presumed lost.
func (s *System) snapDeadGrace() time.Duration {
	g := s.cfg.HeartbeatInterval * time.Duration(2*s.cfg.DeadAfter)
	if cap := s.cfg.CallTimeout / 2; g > cap {
		g = cap
	}
	return g
}

// recoverSnapshot pulls the best available snapshot for ref from the
// replica set (and this node's own store) ahead of a failover
// re-activation. Pulls go through the recovery semaphore so a hot dead
// node's actors don't thundering-herd the survivors. A nil record with a
// nil error means no replica holds state (fresh actor); an error means
// replicas were unreachable and the activation must NOT be admitted empty —
// the caller surfaces a retryable failure (pause, not amnesia).
func (s *System) recoverSnapshot(ref Ref) (*durable.Record, error) {
	select {
	case s.recoverySem <- struct{}{}:
	default:
		// Sem full: wait briefly, then refuse retry-safe. Pulls run on the
		// receive stage, so parking here for a full call budget eats the
		// very workers that must keep serving directory lookups and replica
		// fetches for the pulls ahead of us — a handful of slow pulls would
		// cascade into a node-wide control-plane stall. A bounded wait plus
		// a retryable refusal sheds the excess back to the caller's retry
		// loop instead (same shape as §6.1 overload handling).
		s.durables.RecoveryThrottled.Add(1)
		// Recovery throttling marks a stampede in progress — trigger a
		// black-box dump so the herd's shape (deaths, purges, pulls) is
		// preserved even if the incident self-heals.
		s.flight.Trigger(flight.KindRecoveryThrottled, ref.String())
		wait := s.cfg.HeartbeatInterval
		if w := 2 * s.cfg.RetryBackoff; w > wait {
			wait = w
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case s.recoverySem <- struct{}{}:
		case <-s.done:
			return nil, ErrStopped
		case <-t.C:
			return nil, fmt.Errorf("%w: recovery of %s throttled", errPeerDown, ref)
		}
	}
	defer func() { <-s.recoverySem }()

	s.durables.Recoveries.Add(1)
	deadline := time.Now().Add(s.cfg.CallTimeout)
	var best *durable.Record
	if rec, ok := s.snapStore.Get(ref.Type, ref.Key); ok {
		best = &rec
	}
	fails := 0
	// consult folds one replica's answer into best/fails, behind a per-peer
	// breaker: a peer whose last fetch failed within the past heartbeat
	// interval counts as unreachable without a new round trip. Fetches to an
	// unresponsive peer (killed but not yet detected, or starved) burn a
	// full attempt timeout each while parked on a receive worker, and a hot
	// ref's callers retry every few milliseconds — without the breaker those
	// retries convoy onto the receive stage and starve the control verbs
	// every other pull needs. One worker pays the timeout per cooldown; the
	// rest refuse retry-safe in microseconds. A fetch that succeeds clears
	// the breaker, so a healthy or recovered peer is never throttled.
	consult := func(p transport.NodeID) {
		s.snapProbeMu.Lock()
		cooling := time.Since(s.snapProbeFail[p]) < s.cfg.HeartbeatInterval
		s.snapProbeMu.Unlock()
		if cooling {
			fails++
			return
		}
		rec, ok, err := s.fetchSnapshot(p, ref, deadline)
		s.snapProbeMu.Lock()
		if err != nil {
			s.snapProbeFail[p] = time.Now()
		} else {
			delete(s.snapProbeFail, p)
		}
		s.snapProbeMu.Unlock()
		if err != nil {
			fails++
			return
		}
		if !ok {
			return
		}
		if best == nil || rec.Epoch > best.Epoch ||
			(rec.Epoch == best.Epoch && rec.Seq > best.Seq) {
			r := rec
			best = &r
		}
	}
	// Query the global top-(K+1) minus self: the shipper's top-K excluding
	// any single prior host is a subset of the global top-(K+1), so every
	// replica that can hold this ref's snapshots is consulted.
	var deferred []transport.NodeID
	for _, p := range s.topSnapPeers(ref, s.cfg.DurableReplicas+1, "") {
		if p == s.Node() {
			continue
		}
		if !s.cfg.DisableFailover {
			if at, dead := s.peerDeadSince(p); dead {
				if time.Since(at) < s.snapDeadGrace() {
					deferred = append(deferred, p)
				}
				continue
			}
		}
		consult(p)
	}
	// Peers under a recent dead verdict are a last resort, not part of the
	// normal query: they are probed only when no live replica held any
	// snapshot, so the cost stays confined to the amnesia-risk case. If the
	// dead verdict was a false positive the probe answers and the state is
	// saved; if the peer really is down the probe fails (or its breaker is
	// cooling) and lands in the fails accounting — refusal and retry, never
	// amnesia while a replica might still hold state. The tradeoff: within
	// the grace window a live-replica snapshot wins even if the dead-marked
	// peer holds a newer epoch (possible across migrations); the pre-grace
	// behavior skipped such peers unconditionally, so this is strictly less
	// lossy.
	if best == nil {
		for _, p := range deferred {
			consult(p)
		}
	}
	if best == nil && fails > 0 {
		// Some replica may hold state we could not reach: refusing the
		// activation keeps callers retrying instead of resurrecting the
		// actor with amnesia next to a recoverable snapshot.
		s.durables.RecoveryFailed.Add(1)
		s.flight.Record(flight.Event{Kind: flight.KindRecovery, Actor: ref.String(), Detail: "failed", N: uint64(fails)})
		return nil, fmt.Errorf("%w: %d replica(s) unreachable recovering %s", errPeerDown, fails, ref)
	}
	if best != nil {
		s.durables.RecoveredWithState.Add(1)
		s.flight.Record(flight.Event{Kind: flight.KindRecovery, Actor: ref.String(), Detail: "with_state", N: best.Epoch})
	} else {
		s.durables.RecoveryEmpty.Add(1)
		s.flight.Record(flight.Event{Kind: flight.KindRecovery, Actor: ref.String(), Detail: "empty"})
	}
	return best, nil
}

// fetchSnapshot asks one replica for its resident snapshot of ref. An empty
// reply payload means "no snapshot here" (ok=false, no error).
func (s *System) fetchSnapshot(node transport.NodeID, ref Ref, deadline time.Time) (durable.Record, bool, error) {
	req, err := codec.Marshal(dirRequest{Type: ref.Type, Key: ref.Key})
	if err != nil {
		return durable.Record{}, false, err
	}
	out, err := s.controlCallRawReply(node, ctlSnapGet, req, s.attemptTimeout(deadline))
	if err != nil {
		return durable.Record{}, false, err
	}
	if len(out) == 0 {
		return durable.Record{}, false, nil
	}
	rec, err := durable.DecodeRecord(out)
	if err != nil {
		return durable.Record{}, false, err
	}
	return rec, true, nil
}

// controlCallRaw is controlCallT for pre-encoded payloads with no reply
// decode (snapshot ships).
func (s *System) controlCallRaw(node transport.NodeID, verb string, payload []byte, timeout time.Duration) error {
	_, err := s.controlCallRawReply(node, verb, payload, timeout)
	return err
}

// controlCallRawReply performs one control round trip with a raw payload
// and returns the raw reply payload — the snapshot plane's records are
// their own wire format, not gob.
func (s *System) controlCallRawReply(node transport.NodeID, verb string, payload []byte, timeout time.Duration) ([]byte, error) {
	if node == s.Node() {
		return s.handleControlVerb(verb, payload, s.Node())
	}
	id := s.nextID.Add(1)
	ch := make(chan *transport.Envelope, 1)
	s.pendPut(id, ch)
	defer s.pendDel(id)
	env := &transport.Envelope{Kind: transport.KindControl, ID: id, Method: verb, Payload: payload}
	if _, err := s.send(node, env); err != nil {
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.Err != "" {
			return nil, fmt.Errorf("actor: control %s @%s: %w", verb, node, rehydrateWireErr(r.Err))
		}
		return r.Payload, nil
	case <-timer.C:
		return nil, fmt.Errorf("%w: control %s @%s", ErrTimeout, verb, node)
	case <-s.done:
		return nil, ErrStopped
	}
}

// handleSnapPut installs an inbound replica snapshot, subject to the
// (epoch, seq) ordering rule — the delayed pre-migration ship is counted
// and dropped here.
func (s *System) handleSnapPut(payload []byte) ([]byte, error) {
	rec, err := durable.DecodeRecord(payload)
	if err != nil {
		return nil, err
	}
	if s.snapStore.Put(rec) {
		s.durables.ReplicaAccepted.Add(1)
	} else {
		s.durables.ReplicaStale.Add(1)
	}
	return nil, nil
}

// handleSnapGet answers a recovery pull with the resident snapshot record
// (empty payload when none).
func (s *System) handleSnapGet(payload []byte) ([]byte, error) {
	var req dirRequest
	if err := codec.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	rec, ok := s.snapStore.Get(req.Type, req.Key)
	if !ok {
		return nil, nil
	}
	return durable.AppendRecord(nil, rec), nil
}

// SyncSnapshots synchronously captures and ships every dirty Durable
// activation on this node, returning the number shipped. Used as a
// graceful flush (planned drains, chaos tests establishing a known-durable
// baseline before a kill). State is captured under each turn lock; all
// shipping happens after the lock is released.
func (s *System) SyncSnapshots() int {
	if !s.durabilityOn() {
		return 0
	}
	type captured struct {
		ref        Ref
		epoch, seq uint64
		state      []byte
	}
	var caps []captured
	for i := range s.state {
		sh := &s.state[i]
		sh.mu.RLock()
		acts := make([]*activation, 0, len(sh.activations))
		for _, a := range sh.activations {
			acts = append(acts, a)
		}
		sh.mu.RUnlock()
		for _, a := range acts {
			a.turnMu.Lock()
			if !a.durable || a.dirty == 0 {
				a.turnMu.Unlock()
				continue
			}
			m, ok := a.actor.(Migratable)
			if !ok {
				a.turnMu.Unlock()
				continue
			}
			state, err := m.Snapshot()
			if err != nil {
				s.durables.CaptureErrors.Add(1)
				a.turnMu.Unlock()
				continue
			}
			a.snapSeq++
			a.dirty = 0
			a.lastSnap = time.Now()
			s.durables.Captured.Add(1)
			caps = append(caps, captured{ref: a.ref, epoch: a.epoch, seq: a.snapSeq, state: state})
			a.turnMu.Unlock()
		}
	}
	for _, c := range caps {
		s.shipSnapshot(c.ref, c.epoch, c.seq, c.state)
	}
	return len(caps)
}
