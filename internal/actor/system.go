package actor

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/codec"
	"actop/internal/durable"
	"actop/internal/flight"
	"actop/internal/graph"
	"actop/internal/hotspot"
	"actop/internal/metrics"
	"actop/internal/partition"
	"actop/internal/seda"
	"actop/internal/trace"
	"actop/internal/transport"
)

// Errors surfaced by calls.
var (
	// ErrTimeout is returned when a call's reply does not arrive in time.
	ErrTimeout = errors.New("actor: call timeout")
	// ErrUnknownType is returned when calling an unregistered actor type.
	ErrUnknownType = errors.New("actor: unknown actor type")
	// ErrOverloaded is returned when a stage queue rejects work.
	ErrOverloaded = errors.New("actor: node overloaded")
	// ErrStopped is returned after Stop.
	ErrStopped = errors.New("actor: system stopped")
	// ErrPeerDown is the retry-safe pause: a peer whose cooperation the
	// call needs — the target host, a directory owner, or a snapshot
	// replica holding a durable actor's state — is currently unreachable.
	// The runtime retries it within the call budget rather than, say,
	// resurrecting a durable actor with amnesia; callers that can wait
	// longer than one budget should classify on this and resubmit.
	ErrPeerDown = errors.New("actor: peer down")
)

const redirectPrefix = "__redirect:"

// control verbs (KindControl envelopes).
const (
	ctlDirLookup   = "dir.lookup"
	ctlDirUpdate   = "dir.update"
	ctlDirRemove   = "dir.remove"
	ctlMigratePut  = "migrate.put"
	ctlMigrateDrop = "migrate.drop"
	ctlExchange    = "actop.exchange"
	ctlPing        = "actop.ping"
	ctlTraces      = "actop.traces"
	ctlSnap        = "actop.snap"
	ctlSnapGet     = "actop.snapget"
	ctlHotspots    = "actop.hotspots"
	ctlPlacementOK = "ok"
)

// errPeerDown marks a call attempt that failed because its target is (or
// just turned) suspect/dead — the retryable class of failures, alongside
// transport.ErrUnreachable.
var errPeerDown = ErrPeerDown

// errRedirectChase marks a dispatch that exhausted its redirect budget: the
// actor moved again at every hop of the chase. Retryable — each hop already
// refreshed the local cache, so the next attempt starts from the freshest
// route and the outer retry loop bounds the whole pursuit by the call
// deadline. Terminal only when the deadline runs out.
var errRedirectChase = errors.New("actor: too many redirects")

// System is one node of the distributed actor runtime.
type System struct {
	cfg   Config
	tr    transport.Transport
	peers []transport.NodeID // sorted, includes self

	// The three stages of the paper's server pipeline (Fig. 2). Each remote
	// call takes one goroutine hop per stage. Receive runs inline on the
	// transport's read loop for calls to active actors (onCall); only
	// deliveries that may block — activation, resolution, recovery — wait
	// in recvStage's pool. The turn runs on workStage's pool. Send runs
	// inline on the sending goroutine (send), and the transport's per-peer
	// writer does the socket I/O, so sendStage's pool runs nothing: the
	// stage exists to account send work for the thread controller.
	recvStage *seda.Stage
	workStage *seda.Stage
	sendStage *seda.Stage
	// ctlStage serves inbound control verbs (directory, snapshots, pings)
	// on workers of its own. Control verbs are all local and bounded —
	// shard-lock reads and writes, never a remote call — while receive
	// workers park in synchronous cross-node lookups (handleCall's routed
	// re-confirm). Sharing one stage livelocks under a retry storm: every
	// receive worker on each survivor parks waiting for a dir.lookup the
	// other survivor's parked workers can't serve, each wait times out,
	// every caller retries, and the cluster's control plane stays dark for
	// whole call budgets. The split also keeps heartbeats honest under
	// load — pings answered from saturated nodes stop the failure detector
	// from declaring livelocked-but-live peers dead.
	ctlStage *seda.Stage

	// mu guards only the cold-path registration state: the type registry
	// and the stopped flag. The hot-path maps live in the sharded state
	// plane below (shard.go).
	mu      sync.RWMutex
	types   map[string]Factory
	stopped bool

	// state is the lock-striped routing/directory plane: activations, owned
	// directory entries, the location cache (clock-evicted), and the
	// vertex↔ref index, sharded by ref hash so operations on distinct refs
	// never contend (see shard.go).
	state [stateShardCount]stateShard

	// pend is the striped pending-reply table (call id → reply channel).
	pend   [pendShardCount]pendShard
	nextID atomic.Uint64

	// Location-cache counters (atomic; mirrored to the registry and Stats).
	locHits, locMisses, locEvicts atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	monMu   sync.Mutex
	monitor *partition.Monitor

	// Failure detector state (failure.go): per-peer membership records and
	// change watchers.
	fdMu     sync.Mutex
	members  map[transport.NodeID]*memberEntry
	watchers []func(transport.NodeID, PeerState)

	// Reply dedup window: recently answered remote calls, keyed by the
	// caller's (node, call id), so a retried call resends the recorded
	// reply instead of executing the turn again. Striped by caller identity
	// so concurrent deliveries from different callers never contend.
	dedupShards [dedupShardCount]dedupShard

	// done closes on Stop; background loops (heartbeats, retries, orphan
	// drops) gate on it and are tracked in bg so Stop can wait them out.
	done chan struct{}
	bg   sync.WaitGroup

	failures metrics.FailureCounters
	durables metrics.DurableCounters

	// Durability plane (durable.go): the replica store holding peers'
	// snapshots (always non-nil — this node serves as a replica whether or
	// not its own actors are durable), the background snapshotter pool, and
	// the recovery-stampede semaphore (both nil unless DurableReplicas > 0).
	snapStore   *durable.Store
	snapPool    *durable.Pool
	recoverySem chan struct{}

	// Per-peer fetch breaker for recovery pulls (durable.go): after a
	// failed snapshot fetch, further pulls treat that peer as unreachable
	// without a new round trip until a heartbeat interval has passed — one
	// receive worker pays the timeout per cooldown instead of a convoy of
	// them (an undetected-dead or starved peer would otherwise park every
	// worker that pulls a ref replicated there).
	snapProbeMu   sync.Mutex
	snapProbeFail map[transport.NodeID]time.Time

	// Tracing plane: the root-call sampling decision, the completed-span
	// ring, and (when a registry is configured) the per-method latency
	// series. sampler and spans are always non-nil; the family handles are
	// nil without a registry, costing one pointer check per call.
	sampler  *trace.Sampler
	spans    *trace.Ring
	callDur  *metrics.SummaryFamily
	callComp *metrics.SummaryFamily
	srvDur   *metrics.SummaryFamily

	// Observability plane (obs.go): the per-actor hot-spot profiler (nil
	// when disabled — one pointer check per drain batch), the always-on
	// flight recorder, and the SLO watcher's rolling latency window (nil
	// unless SLOTarget is set).
	prof   *hotspot.Profiler
	flight *flight.Recorder
	sloWin *metrics.ConcurrentHistogram

	// Counters (atomic; exported via Stats).
	callsLocal, callsRemote, migrationsIn, migrationsOut, redirects atomic.Uint64
}

// NewSystem starts a node. The transport's handler is installed here; do
// not share a transport between systems.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	peers := append([]transport.NodeID(nil), cfg.Peers...)
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	s := &System{
		cfg:     cfg,
		tr:      cfg.Transport,
		peers:   peers,
		types:   make(map[string]Factory),
		rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(hashNode(cfg.Transport.Node())))),
		monitor: partition.NewMonitor(cfg.MonitorCapacity),
		members: make(map[transport.NodeID]*memberEntry, len(peers)),
		done:    make(chan struct{}),
		sampler: trace.NewSampler(cfg.TraceSampleRate),
		spans:   trace.NewRing(cfg.TraceRingSize),
		// The replica store always exists: this node stores snapshots on
		// behalf of peers even if none of its own types are durable.
		snapStore: durable.NewStore(),
	}
	s.flight = flight.NewRecorder(cfg.FlightRingSize, cfg.FlightDebounce)
	if !cfg.DisableHotspots {
		s.prof = hotspot.New(cfg.HotspotK)
	}
	if cfg.SLOTarget > 0 {
		s.sloWin = &metrics.ConcurrentHistogram{}
	}
	if cfg.DurableReplicas > 0 {
		s.snapPool = durable.NewPool(cfg.SnapshotWorkers, 1024)
		s.recoverySem = make(chan struct{}, cfg.RecoveryConcurrency)
		s.snapProbeFail = make(map[transport.NodeID]time.Time)
	}
	s.initShards(cfg.LocCacheSize)
	s.sampler.Seed(hashNode(cfg.Transport.Node()))
	if cfg.Metrics != nil {
		s.callDur = cfg.Metrics.Summary("actop_call_duration_seconds",
			"actor call round-trip latency by method", "method")
		s.callComp = cfg.Metrics.Summary("actop_call_component_seconds",
			"traced call latency decomposition by method and component", "method", "component")
		s.srvDur = cfg.Metrics.Summary("actop_served_call_duration_seconds",
			"inbound call latency by method, receive to reply enqueue (callee side)", "method")
		s.registerShardMetrics()
		s.registerObsMetrics()
	}
	for _, p := range peers {
		if p != s.Node() {
			m := &memberEntry{state: PeerAlive}
			m.healthy.Store(true)
			s.members[p] = m
		}
	}
	s.recvStage = seda.NewStage("receiver", cfg.QueueCap, cfg.ReceiverWorkers)
	s.workStage = seda.NewStage("worker", cfg.QueueCap, cfg.Workers)
	s.sendStage = seda.NewStage("sender", 1, 1)
	// Fixed-size and outside the thread controller: the control plane must
	// keep its workers precisely when every adaptive stage is starved.
	s.ctlStage = seda.NewStage("control", cfg.QueueCap, ctlStageWorkers(cfg.ReceiverWorkers))
	s.tr.SetHandler(s.onEnvelope)
	if !cfg.DisableFailover && len(peers) > 1 {
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			s.heartbeatLoop()
		}()
	}
	if s.prof != nil || s.sloWin != nil {
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			s.obsLoop()
		}()
	}
	return s, nil
}

// trackGo runs fn on a tracked goroutine unless the system has stopped.
// Stop waits for every tracked goroutine, so fn must gate any waiting on
// s.done. Returns false (fn not run) after Stop.
func (s *System) trackGo(fn func()) bool {
	s.mu.RLock()
	if s.stopped {
		s.mu.RUnlock()
		return false
	}
	s.bg.Add(1)
	s.mu.RUnlock()
	go func() {
		defer s.bg.Done()
		fn()
	}()
	return true
}

// ctlStageWorkers sizes the control stage: a quarter of the receive pool,
// at least two so one long verb (a migration-state install) can't delay a
// heartbeat behind it.
func ctlStageWorkers(receiverWorkers int) int {
	if w := receiverWorkers / 4; w > 2 {
		return w
	}
	return 2
}

func hashNode(n transport.NodeID) uint64 {
	h := fnv.New64a()
	h.Write([]byte(n))
	return h.Sum64()
}

// Node reports this node's id.
func (s *System) Node() transport.NodeID { return s.tr.Node() }

// Peers reports the cluster membership (sorted, includes self).
func (s *System) Peers() []transport.NodeID {
	out := make([]transport.NodeID, len(s.peers))
	copy(out, s.peers)
	return out
}

// RegisterType installs the factory for an actor type. Register the same
// types on every node before traffic starts.
func (s *System) RegisterType(name string, f Factory) {
	s.mu.Lock()
	s.types[name] = f
	s.mu.Unlock()
}

// Stages exposes the SEDA stages (receive, work, send) for the thread
// controller. The receive and send stages also count the work their callers
// run inline (seda.Stage.RunInline), so their windows cover every delivery
// and every send, not just the ones that went through a pool.
func (s *System) Stages() (recv, work, send *seda.Stage) {
	return s.recvStage, s.workStage, s.sendStage
}

// Config returns a copy of the node's (filled) configuration, so attached
// controllers can honor DisableThreadControl / ThreadControlInterval.
func (s *System) Config() Config { return s.cfg }

// Stop shuts the node down: background loops (heartbeats, retry/cleanup
// goroutines) are signalled and awaited, stages drain, the transport
// closes.
func (s *System) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.done)
	s.tr.Close()
	s.recvStage.Close()
	s.workStage.Close()
	s.sendStage.Close()
	s.ctlStage.Close()
	if s.snapPool != nil {
		s.snapPool.Close()
	}
	s.bg.Wait()
}

// Stats is a snapshot of node counters.
type Stats struct {
	Node           transport.NodeID
	Activations    int
	CallsLocal     uint64
	CallsRemote    uint64
	MigrationsIn   uint64
	MigrationsOut  uint64
	Redirects      uint64
	MonitoredEdges int
}

// Stats snapshots the node counters.
func (s *System) Stats() Stats {
	n := s.activationsLen()
	s.monMu.Lock()
	edges := s.monitor.EdgeCount()
	s.monMu.Unlock()
	return Stats{
		Node:           s.Node(),
		Activations:    n,
		CallsLocal:     s.callsLocal.Load(),
		CallsRemote:    s.callsRemote.Load(),
		MigrationsIn:   s.migrationsIn.Load(),
		MigrationsOut:  s.migrationsOut.Load(),
		Redirects:      s.redirects.Load(),
		MonitoredEdges: edges,
	}
}

// Call invokes an actor from outside any actor (a frontend/client call).
// This is where trace sampling is decided: a sampled call carries its trace
// context on every hop it causes.
func (s *System) Call(to Ref, method string, args, reply interface{}) error {
	return s.call(nil, nil, to, method, args, reply)
}

// call is the shared invocation path. from is non-nil for actor→actor
// calls (monitored as communication edges); parent is non-nil when the
// caller's turn is itself traced, so the nested call joins that trace.
func (s *System) call(from *Ref, parent *traceCtx, to Ref, method string, args, reply interface{}) error {
	s.mu.RLock()
	stopped := s.stopped
	_, known := s.types[to.Type]
	s.mu.RUnlock()
	if stopped {
		return ErrStopped
	}
	if !known {
		return fmt.Errorf("%w: %s", ErrUnknownType, to.Type)
	}
	if from != nil {
		s.observeEdge(*from, to)
	}
	tctx := parent
	if tctx == nil && s.sampler.Sample() {
		tctx = &traceCtx{traceID: s.sampler.ID()}
	}
	var start time.Time
	if tctx != nil || s.callDur != nil || s.sloWin != nil {
		start = time.Now()
	}
	var sp *trace.Span
	if tctx != nil {
		sp = &trace.Span{
			TraceID: tctx.traceID, SpanID: s.sampler.ID(), ParentID: tctx.parentID,
			Node: string(s.Node()), Kind: "client", Actor: to.String(), Method: method,
			Start: start,
		}
	}
	// Zero-copy local fast path: no serialization when the callee is
	// co-located and both sides opt in (ValueReceiver + codec.Copier).
	if handled, err := s.callLocalValue(sp, to, method, args, reply); handled {
		if s.prof != nil && from != nil {
			s.prof.ObserveOut(refHash(*from), 1, 0) // value call: no wire bytes
		}
		s.finishCall(sp, start, method, err)
		return err
	}
	var data []byte
	if args != nil {
		var err error
		ms := start
		if sp != nil {
			ms = time.Now()
		}
		data, err = codec.MarshalAppend(codec.GetBuffer(), args)
		if err != nil {
			return err
		}
		if sp != nil {
			sp.Serialize = time.Since(ms)
		}
	}
	if s.prof != nil && from != nil {
		s.prof.ObserveOut(refHash(*from), 1, uint64(len(data)))
	}
	result, err, recyclable := s.dispatchRetry(to, method, data, sp)
	if data != nil && recyclable {
		// The callee's turn is over (reply received, or the call was
		// rejected before delivery), so no reference to the args buffer
		// survives and it can return to the pool. When an attempt timed
		// out or was retried, a stale send may still be reading it — leak
		// it to the GC instead.
		codec.PutBuffer(data)
	}
	if err != nil {
		s.finishCall(sp, start, method, err)
		return err
	}
	var derr error
	if reply != nil {
		ms := start
		if sp != nil {
			ms = time.Now()
		}
		derr = codec.Unmarshal(result, reply)
		if sp != nil {
			sp.Serialize += time.Since(ms)
		}
	}
	if result != nil {
		codec.PutBuffer(result)
	}
	s.finishCall(sp, start, method, derr)
	return derr
}

// marshalArgs encodes call arguments (nil stays nil).
func marshalArgs(args interface{}) ([]byte, error) {
	if args == nil {
		return nil, nil
	}
	return codec.Marshal(args)
}

// callLocalValue attempts the zero-copy local call: when the callee is
// activated on this node, its actor implements ValueReceiver, and the
// arguments travel by CopyValue, the invocation performs no serialization
// at all — one deep copy in, one deep copy out, isolation preserved (§2).
// handled=false falls back to the encoded path (remote callee, missing
// interfaces, or a placement race — all handled there). A traced call marks
// sp as a "local" span and measures its mailbox wait and execution through
// the turn timing.
func (s *System) callLocalValue(sp *trace.Span, to Ref, method string, args, reply interface{}) (bool, error) {
	var argsCopy interface{}
	if args != nil {
		c, ok := args.(codec.Copier)
		if !ok {
			return false, nil
		}
		argsCopy = c.CopyValue()
	}
	act, err := s.activationFor(to, true, false)
	if err != nil || act == nil {
		return false, nil
	}
	if _, ok := act.actor.(ValueReceiver); !ok {
		return false, nil
	}
	s.callsLocal.Add(1)
	var trc *turnTiming
	if sp != nil {
		sp.Kind = "local"
		trc = &turnTiming{traceID: sp.TraceID, spanID: sp.SpanID, enqueuedAt: time.Now()}
	}
	type outcome struct {
		data []byte
		val  interface{}
		err  error
	}
	ch := make(chan outcome, 1)
	act.enqueue(invocation{
		method:  method,
		argsVal: argsCopy,
		isVal:   true,
		trc:     trc,
		respond: func(data []byte, val interface{}, err error) {
			ch <- outcome{data: data, val: val, err: err}
		},
	}, s)
	select {
	case out := <-ch:
		if sp != nil {
			sp.WorkQueue, sp.Exec, sp.Epoch = trc.workQueue, trc.exec, trc.epoch
			sp.Snapshot = trc.snapshot
		}
		switch {
		case out.err != nil:
			return true, out.err
		case reply == nil:
			return true, nil
		case out.val != nil:
			return true, codec.Assign(reply, out.val)
		case out.data != nil:
			return true, codec.Unmarshal(out.data, reply)
		}
		return true, nil
	case <-time.After(s.cfg.CallTimeout):
		// Do not read trc here: the turn may still be running and writing
		// it. The span keeps zero components and records the timeout.
		return true, fmt.Errorf("%w: %s.%s", ErrTimeout, to, method)
	}
}

// dispatchRetry is the fault-tolerant invocation driver: it runs dispatch
// attempts under the single CallTimeout budget, retrying retryable failures
// (unreachable peers, suspect/dead-node timeouts, plain timeouts — the
// reply dedup window on the callee makes re-sends safe) with capped
// exponential backoff plus jitter. The call id is fixed across attempts so
// the callee can recognize re-sends. recyclable reports whether the args
// buffer is provably unreferenced (single attempt, no timeout) and may
// return to the pool.
func (s *System) dispatchRetry(to Ref, method string, args []byte, sp *trace.Span) (res []byte, err error, recyclable bool) {
	deadline := time.Now().Add(s.cfg.CallTimeout)
	callID := s.nextID.Add(1)
	if s.cfg.DisableFailover {
		res, err = s.dispatch(to, method, args, 0, callID, deadline, "", sp)
		return res, err, !errors.Is(err, ErrTimeout)
	}
	backoff := s.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		start := time.Now()
		res, err = s.dispatch(to, method, args, 0, callID, deadline, "", sp)
		if err == nil {
			return res, nil, attempt == 0
		}
		if !retryable(err) {
			return res, err, attempt == 0 && !errors.Is(err, ErrTimeout)
		}
		if errors.Is(err, transport.ErrUnreachable) || errors.Is(err, errPeerDown) {
			// The target node itself is gone (or distrusted): the cache
			// entry that routed us there is poison, so re-resolve through
			// the directory next attempt. A plain timeout must NOT purge
			// the cache — after a migration whose directory update is
			// still in flight, the source's forwarding tombstone (mirrored
			// into caches by its redirects) is the only correct route, and
			// the directory is the staler of the two; re-resolving through
			// it would re-place the actor on a node that already handed it
			// off (split brain).
			s.cacheDel(to)
		}
		wait := s.jitter(backoff)
		if backoff < s.cfg.RetryBackoff*16 {
			backoff *= 2
		}
		if time.Since(start) > wait {
			wait = 0 // the attempt itself already waited (a timeout)
		}
		if time.Until(deadline) <= wait+time.Millisecond {
			return nil, err, false // budget exhausted
		}
		s.failures.Retries.Add(1)
		if sp != nil {
			sp.Retries++
		}
		if wait > 0 {
			select {
			case <-time.After(wait):
			case <-s.done:
				return nil, ErrStopped, false
			}
		}
	}
}

// rehydrateWireErr restores sentinel identity to an error string received
// off the wire. Envelope.Err carries only text, so without this a sentinel
// raised on a remote hop arrives as an opaque error and the origin
// misclassifies it. A redirect-chase, peer-down, or timeout the remote hit
// against a dying third node is a transient — the origin's retry loop must
// keep going (the callee's dedup window keeps re-sends at-most-once), not
// surface it as terminal. Overload keeps its identity too, though it stays
// non-retryable in dispatchRetry (§6.1 load shedding: the runtime must not
// amplify a saturated node's queue with automatic retries) — identity lets
// the caller classify it and back off deliberately.
func rehydrateWireErr(msg string) error {
	for _, sentinel := range []error{errRedirectChase, errPeerDown, ErrTimeout, ErrOverloaded} {
		if pfx := sentinel.Error(); strings.HasPrefix(msg, pfx) {
			return fmt.Errorf("%w%s", sentinel, strings.TrimPrefix(msg, pfx))
		}
	}
	return errors.New(msg)
}

// retryable classifies call failures: transport-level unreachability and
// timeouts may be re-sent (the dedup window guarantees at-most-once
// execution per activation); application errors, overload rejections, and
// routing errors are returned to the caller as-is.
func retryable(err error) bool {
	return errors.Is(err, transport.ErrUnreachable) ||
		errors.Is(err, errPeerDown) ||
		errors.Is(err, ErrTimeout) ||
		errors.Is(err, errRedirectChase)
}

// jitter spreads a backoff delay over [0.5d, 1.5d) so retry storms from
// many callers decorrelate.
func (s *System) jitter(d time.Duration) time.Duration {
	s.rngMu.Lock()
	f := 0.5 + s.rng.Float64()
	s.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// attemptTimeout bounds one remote attempt so a mid-call node failure can
// be retried within the budget: long enough for the detector to have an
// opinion (two heartbeat intervals), never longer than the remaining
// budget. Slow turns are not penalized — a timed-out attempt re-sends with
// the same call id, and the retry either adopts the still-running turn's
// reply or gets the deduped recorded one.
func (s *System) attemptTimeout(deadline time.Time) time.Duration {
	remaining := time.Until(deadline)
	if s.cfg.DisableFailover {
		return remaining
	}
	cap := 2 * s.cfg.HeartbeatInterval
	if floor := 4 * s.cfg.RetryBackoff; cap < floor {
		cap = floor
	}
	if remaining < cap {
		return remaining
	}
	return cap
}

// dispatch routes one encoded invocation, following redirects. hint, when
// non-empty, names the next hop directly (a redirect target from the
// previous hop) and overrides local resolution: the redirecting node's
// knowledge is strictly fresher than anything held here, and re-resolving
// locally could bounce the chase back through a stale route of our own (a
// not-yet-expired forwarding tombstone from an old outbound migration
// outranks the cache, so without the hint every hop re-resolved to the
// same stale target and the chase never advanced).
func (s *System) dispatch(to Ref, method string, args []byte, depth int, callID uint64, deadline time.Time, hint transport.NodeID, sp *trace.Span) ([]byte, error) {
	if depth > 3 {
		return nil, fmt.Errorf("%w for %s", errRedirectChase, to)
	}
	node := hint
	if node == "" {
		var err error
		node, err = s.locate(to, true, deadline)
		if err != nil {
			return nil, err
		}
	}
	var res []byte
	var err error
	if node == s.Node() {
		s.callsLocal.Add(1)
		res, err = s.invokeLocal(to, method, args, deadline, sp)
	} else {
		if !s.cfg.DisableFailover && s.PeerStateOf(node) == PeerDead {
			// Fail fast instead of waiting out a timeout against a node the
			// detector already declared dead; the retry re-resolves through
			// the (purged) directory to a live host.
			return nil, fmt.Errorf("%w: %s is dead", errPeerDown, node)
		}
		s.callsRemote.Add(1)
		res, err = s.remoteCall(node, to, method, args, callID, s.attemptTimeout(deadline), sp)
	}
	if err != nil {
		// A redirect continues the chase whether the hop was remote or local:
		// a hinted hop can land back on this node (the redirecting peer
		// believed the actor returned here) and invokeLocal answers with a
		// redirect of its own when it is not the host.
		var redir redirectError
		if errors.As(err, &redir) {
			s.redirects.Add(1)
			if sp != nil {
				sp.Redirects++
			}
			s.cachePut(to, redir.node)
			return s.dispatch(to, method, args, depth+1, callID, deadline, redir.node, sp)
		}
		if errors.Is(err, ErrTimeout) && node != s.Node() && s.PeerStateOf(node) != PeerAlive {
			return nil, fmt.Errorf("%w: %w", errPeerDown, err)
		}
		return nil, err
	}
	return res, nil
}

type redirectError struct{ node transport.NodeID }

func (e redirectError) Error() string { return "actor: redirected to " + string(e.node) }

// invokeLocal runs the invocation on the local activation (activating on
// demand), synchronously from the caller's perspective. The wait runs to
// the caller's full deadline — local execution has no lost-message failure
// mode, so chunked attempts would only risk double-enqueueing the turn.
func (s *System) invokeLocal(to Ref, method string, args []byte, deadline time.Time, sp *trace.Span) ([]byte, error) {
	act, err := s.activationFor(to, true, true)
	if err != nil {
		return nil, err
	}
	if act == nil {
		// We are not (or no longer) the host: redirect with the routed
		// resolution's answer (tombstone or directory — see locateDir).
		node, err := s.locateDir(to, false, deadline)
		if err != nil {
			return nil, err
		}
		if node == s.Node() {
			return nil, fmt.Errorf("actor: routing loop for %s", to)
		}
		return nil, redirectError{node: node}
	}
	var trc *turnTiming
	if sp != nil {
		sp.Kind = "local"
		trc = &turnTiming{traceID: sp.TraceID, spanID: sp.SpanID, enqueuedAt: time.Now()}
	}
	type outcome struct {
		data []byte
		err  error
	}
	ch := make(chan outcome, 1)
	act.enqueue(invocation{
		method: method,
		args:   args,
		trc:    trc,
		respond: func(data []byte, _ interface{}, err error) {
			ch <- outcome{data: data, err: err}
		},
	}, s)
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case out := <-ch:
		if sp != nil {
			sp.WorkQueue, sp.Exec, sp.Epoch = trc.workQueue, trc.exec, trc.epoch
			sp.Snapshot = trc.snapshot
		}
		return out.data, out.err
	case <-timer.C:
		// trc stays unread: the turn may still be running and writing it.
		return nil, fmt.Errorf("%w: %s.%s", ErrTimeout, to, method)
	case <-s.done:
		return nil, ErrStopped
	}
}

// remoteCall performs one RPC attempt and waits up to timeout for the
// correlated reply. The envelope goes straight to the transport's per-peer
// writer from this goroutine (see send). The id is owned by the caller so
// retries of one logical call share it (the callee's dedup window keys on
// it); concurrent attempts cannot overlap because attempts are sequential
// within dispatchRetry.
func (s *System) remoteCall(node transport.NodeID, to Ref, method string, args []byte, id uint64, timeout time.Duration, sp *trace.Span) ([]byte, error) {
	ch := make(chan *transport.Envelope, 1)
	s.pendPut(id, ch)
	defer s.pendDel(id)

	env := &transport.Envelope{
		Kind: transport.KindCall, ID: id,
		ActorType: to.Type, ActorKey: to.Key,
		Method: method, Payload: args,
	}
	if sp != nil {
		env.Trace = &transport.Trace{TraceID: sp.TraceID, SpanID: sp.SpanID, ParentID: sp.ParentID}
	}
	d, err := s.send(node, env)
	if err != nil {
		// Surface transport failures (ErrUnreachable on a dead peer's
		// address, a full peer queue) instead of waiting out the timeout.
		return nil, err
	}
	if sp != nil {
		sp.SendQueue = d
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case reply := <-ch:
		if sp != nil {
			if rt := reply.Trace; rt != nil {
				sp.RecvQueue = time.Duration(rt.RecvQueueNs)
				sp.WorkQueue = time.Duration(rt.WorkQueueNs)
				sp.Exec = time.Duration(rt.ExecNs)
				sp.Epoch = rt.Epoch
				if rt.Flags&transport.TraceFlagDedupHit != 0 {
					sp.DedupHit = true
				}
				if rt.Flags&transport.TraceFlagSnapshot != 0 {
					sp.Snapshot = true
				}
			}
		}
		if reply.Err != "" {
			if strings.HasPrefix(reply.Err, redirectPrefix) {
				return nil, redirectError{node: transport.NodeID(strings.TrimPrefix(reply.Err, redirectPrefix))}
			}
			return nil, rehydrateWireErr(reply.Err)
		}
		return reply.Payload, nil
	case <-timer.C:
		return nil, fmt.Errorf("%w: %s.%s @%s", ErrTimeout, to, method, node)
	case <-s.done:
		return nil, ErrStopped
	}
}

// send is the send stage (Fig. 2): it hands env to the transport on the
// calling goroutine — a caller, a turn's reply continuation, a control
// worker — and returns the time spent in Send. The transport's per-peer
// writer does the socket I/O, so a pool hop in front of it would add a
// hand-off and no parallelism; RunInline still counts the send for the
// thread controller. A full peer queue is load shedding and is classified
// ErrOverloaded, like a full stage queue.
func (s *System) send(to transport.NodeID, env *transport.Envelope) (time.Duration, error) {
	var err error
	d := s.sendStage.RunInline(func() { err = s.tr.Send(to, env) })
	if errors.Is(err, transport.ErrQueueFull) {
		err = fmt.Errorf("%w: %w", ErrOverloaded, err)
	}
	return d, err
}

// onEnvelope is the transport inbound handler. On TCP it runs on the
// connection's read loop, which has just decoded the frame — the receive
// stage's deserialization (Fig. 2) — so it must never block: replies are
// demuxed inline (a striped map lookup plus a non-blocking channel send),
// control verbs go to ctlStage, and calls go through onCall. A blocked read
// loop stalls every later envelope on its connection, including the reply
// to whatever it is waiting for.
func (s *System) onEnvelope(e *transport.Envelope) {
	// Any inbound envelope is proof of life for its sender: passive failure
	// detection on top of the active ping loop. Under load the active loop
	// false-positives — pings starve while real traffic still flows — and a
	// node wrongly marked dead stops being consulted for snapshot recovery
	// and directory ownership, which turns a detector hiccup into lost
	// state. Resetting on every received envelope heals the verdict at the
	// next message from the peer. (A half-partitioned peer that can send
	// but not receive reads as alive — the classic passive-detection
	// tradeoff; the active loop still degrades it once its replies stop.)
	if e.From != "" {
		s.markPeerAlive(e.From)
	}
	switch e.Kind {
	case transport.KindReply:
		if ch := s.pendGet(e.ID); ch != nil {
			select {
			case ch <- e:
			default:
			}
		}
	case transport.KindControl:
		// Control verbs ride their own stage (see ctlStage): they are the
		// dependencies the parked receive workers wait on, so they must
		// stay serviceable when the receive pool is saturated.
		if err := s.ctlStage.Submit(func() { s.handleControl(e) }); err != nil {
			s.replyErr(e, ErrOverloaded.Error())
		}
	case transport.KindCall:
		s.onCall(e)
	}
}

// onCall delivers an inbound call. A call to an actor already active here
// needs only a dedup claim and a mailbox enqueue, neither of which blocks,
// so it is delivered on the calling goroutine and the turn is the next hop.
// Everything that can block — on-demand activation, directory resolution,
// durable recovery, forwarding — waits in the receive pool; a full pool
// rejects the call (§6.1 saturation).
func (s *System) onCall(env *transport.Envelope) {
	ref := Ref{Type: env.ActorType, Key: env.ActorKey}
	sh := s.shardOf(ref)
	sh.mu.RLock()
	act := sh.activations[ref]
	sh.mu.RUnlock()
	if act != nil {
		s.recvStage.RunInline(func() { s.handleCall(env, act, 0) })
		return
	}
	if err := s.recvStage.SubmitTimed(func(wait time.Duration) { s.handleCall(env, nil, wait) }); err != nil {
		s.replyErr(env, ErrOverloaded.Error())
	}
}

// --- reply dedup window (at-most-once turns under call retries) ---

// dedupKey identifies one logical call: the caller's node plus its call id
// (stable across that call's retry attempts).
type dedupKey struct {
	from transport.NodeID
	id   uint64
}

// dedupEntry records a call's outcome. While the turn is still running the
// entry is pending (done=false) and duplicate deliveries are simply
// dropped — the running turn's reply carries the same id the retrying
// caller is waiting on. Once done, duplicates are answered from the record.
// canceled marks a delivery that resolved without a turn (see dedupCancel);
// the next delivery of the key runs as if it were the first.
type dedupEntry struct {
	done     bool
	canceled bool
	payload  []byte
	errStr   string
}

// dedupWindow bounds the recorded-reply window (FIFO eviction, split
// evenly across dedupShardCount stripes). Entries only need to outlive one
// call's retry schedule, which the CallTimeout budget bounds; 8192
// in-flight-or-recent remote calls per node is far beyond that horizon at
// any load the queues admit.
const dedupWindow = 8192

// dedupShard is one stripe of the reply-dedup window, with its own FIFO
// order ring (head-indexed so eviction never leaks the backing array).
type dedupShard struct {
	mu    sync.Mutex
	m     map[dedupKey]*dedupEntry
	order []dedupKey
	head  int
}

// dedupShardOf stripes by caller identity XOR call id: one caller's
// consecutive calls spread across stripes, and distinct callers never
// collide on a stripe systematically.
func (s *System) dedupShardOf(key dedupKey) *dedupShard {
	return &s.dedupShards[(strHash(string(key.from))^key.id)&(dedupShardCount-1)]
}

// dedupBegin claims the dedup slot for a call delivery. It returns
// proceed=true exactly once per key while the entry is resident — the
// caller must finish with dedupResolve. Duplicate deliveries return the
// recorded entry (nil while the original is still executing).
func (s *System) dedupBegin(key dedupKey) (proceed bool, prior *dedupEntry) {
	d := s.dedupShardOf(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.m[key]; ok {
		if e.canceled {
			// A prior delivery answered with routing control flow, not a
			// turn; revive the slot so this delivery resolves fresh.
			*e = dedupEntry{}
			return true, nil
		}
		if !e.done {
			return false, nil
		}
		return false, e
	}
	d.m[key] = &dedupEntry{}
	d.order = append(d.order, key)
	if len(d.order)-d.head > dedupWindow/dedupShardCount {
		delete(d.m, d.order[d.head])
		d.order[d.head] = dedupKey{}
		d.head++
		if d.head >= len(d.order)/2 && d.head > 64 {
			d.order = append(d.order[:0], d.order[d.head:]...)
			d.head = 0
		}
	}
	return true, nil
}

// dedupResolve records a call's reply so later duplicate deliveries resend
// it instead of re-executing. The payload is copied: the original slice is
// recycled by the caller once its reply round trip completes.
func (s *System) dedupResolve(key dedupKey, payload []byte, errStr string) {
	var cp []byte
	if len(payload) > 0 {
		cp = append(make([]byte, 0, len(payload)), payload...)
	}
	d := s.dedupShardOf(key)
	d.mu.Lock()
	if e, ok := d.m[key]; ok {
		e.done = true
		e.payload = cp
		e.errStr = errStr
	}
	d.mu.Unlock()
}

// dedupCancel releases a pending dedup entry whose delivery resolved
// without executing a turn (a redirect or a routing dead end). Those
// outcomes describe the routing plane at one instant, not the call: a
// retried id must re-consult routing, not replay a recorded redirect —
// recording one pins every retry of that call to a stale route for the
// rest of the window (the actor has often arrived here by then). The entry
// is marked rather than deleted so its slot in the eviction order stays
// unique; dedupBegin revives it as pending on the next delivery.
func (s *System) dedupCancel(key dedupKey) {
	d := s.dedupShardOf(key)
	d.mu.Lock()
	if e, ok := d.m[key]; ok {
		e.canceled = true
	}
	d.mu.Unlock()
}

// handleCall delivers a remote invocation to the local activation, or
// redirects the caller if the actor lives elsewhere now. Deliveries are
// funneled through the dedup window so a retried call never executes a
// second turn on this node. act is the activation onCall found active, or
// nil when the delivery must resolve (and possibly activate) the target,
// which may block. recvWait is the envelope's receive-pool wait (zero for
// inline deliveries); a traced call builds the server span here and ships
// its measured components back on the reply as pure durations, so
// cross-node clock skew never enters the decomposition.
func (s *System) handleCall(env *transport.Envelope, act *activation, recvWait time.Duration) {
	to := Ref{Type: env.ActorType, Key: env.ActorKey}
	from := env.From
	id := env.ID
	key := dedupKey{from: from, id: id}
	tr := env.Trace
	var sp *trace.Span
	var trc *turnTiming
	if tr != nil {
		sp = &trace.Span{
			TraceID: tr.TraceID, SpanID: tr.SpanID, ParentID: tr.ParentID,
			Node: string(s.Node()), Kind: "server", Actor: to.String(), Method: env.Method,
			Start: time.Now(), RecvQueue: recvWait,
		}
		trc = &turnTiming{traceID: tr.TraceID, spanID: tr.SpanID}
	}
	if !s.cfg.DisableFailover {
		proceed, prior := s.dedupBegin(key)
		if !proceed {
			s.failures.DedupHits.Add(1)
			if prior != nil {
				var rt *transport.Trace
				if tr != nil {
					sp.DedupHit = true
					rt = &transport.Trace{
						TraceID: tr.TraceID, SpanID: tr.SpanID, ParentID: tr.ParentID,
						RecvQueueNs: uint64(recvWait), Flags: transport.TraceFlagDedupHit,
					}
				}
				s.sendReply(from, id, prior.payload, prior.errStr, rt, sp)
			}
			// Still executing: drop the duplicate; the running turn's
			// reply answers the caller's current attempt (same id).
			return
		}
	}
	var srvStart time.Time
	if s.srvDur != nil {
		srvStart = time.Now()
	}
	// preTurn is true until the delivery is handed to an activation: errors
	// before that point (activation failures — e.g. a durable recovery pull
	// against a dying replica) describe the infrastructure at one instant,
	// not the call, and must not be recorded against the call id.
	preTurn := true
	respond := func(data []byte, _ interface{}, err error) {
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		if s.srvDur != nil {
			s.srvDur.Observe(time.Since(srvStart), env.Method)
		}
		if !s.cfg.DisableFailover {
			// Redirects and routing dead ends are answers about where the
			// actor was, not what its turn returned. Recording them would
			// replay a stale route to every retry of this call id for the
			// rest of the window — a retried chase could orbit the cluster
			// on echoes long after the actor settled. Release the slot so
			// the retry re-resolves; only executed turns (and real
			// application errors) are deduplicated. Pre-turn failures are
			// the same kind of transient: no turn ran, so a retry must
			// re-attempt the activation, not replay this snapshot of it.
			if strings.HasPrefix(errStr, redirectPrefix) ||
				strings.HasPrefix(errStr, "actor: cannot route") ||
				(preTurn && errStr != "") {
				s.dedupCancel(key)
			} else {
				s.dedupResolve(key, data, errStr)
			}
		}
		var rt *transport.Trace
		if tr != nil {
			// The turn (if any) has completed: trc's timings are ordered
			// before this callback by the respond channel send.
			sp.WorkQueue, sp.Exec, sp.Epoch = trc.workQueue, trc.exec, trc.epoch
			sp.Snapshot = trc.snapshot
			sp.Err = errStr
			rt = &transport.Trace{
				TraceID: tr.TraceID, SpanID: tr.SpanID, ParentID: tr.ParentID,
				RecvQueueNs: uint64(recvWait), WorkQueueNs: uint64(trc.workQueue),
				ExecNs: uint64(trc.exec), Epoch: trc.epoch,
			}
			if trc.snapshot {
				rt.Flags |= transport.TraceFlagSnapshot
			}
		}
		s.sendReply(from, id, data, errStr, rt, sp)
	}
	for attempt := 0; act == nil; attempt++ {
		var err error
		act, err = s.activationFor(to, true, true)
		if err != nil {
			respond(nil, nil, err)
			return
		}
		if act != nil {
			break
		}
		node, lerr := s.locateDir(to, false, time.Now().Add(s.cfg.CallTimeout))
		if lerr == nil && node == s.Node() && attempt < 2 {
			// activationFor routed the actor elsewhere, but by now the
			// location plane says it lives here — a migration landed (or a
			// stale cached route was invalidated) between the two checks.
			// Re-resolve instead of bouncing the caller with a dead end.
			continue
		}
		if lerr != nil || node == s.Node() {
			respond(nil, nil, fmt.Errorf("actor: cannot route %s", to))
			return
		}
		respond(nil, nil, errors.New(redirectPrefix+string(node)))
		return
	}
	if trc != nil {
		trc.enqueuedAt = time.Now()
	}
	preTurn = false
	act.enqueue(invocation{method: env.Method, args: env.Payload, trc: trc, respond: respond}, s)
}

// sendReply ships one reply envelope from the goroutine that produced it.
// For traced calls the reply carries the callee's hop-timing record (rt),
// and sendReply completes the server span with its own send time before
// publishing it — the span is owned by exactly one goroutine at every
// point, so no turn-side write can race a ring reader.
func (s *System) sendReply(to transport.NodeID, id uint64, payload []byte, errStr string, rt *transport.Trace, sp *trace.Span) {
	d, _ := s.send(to, &transport.Envelope{Kind: transport.KindReply, ID: id, Payload: payload, Err: errStr, Trace: rt})
	if sp != nil {
		sp.ReplySend = d
		sp.Total = time.Since(sp.Start)
		s.spans.Put(sp)
	}
}

func (s *System) replyErr(env *transport.Envelope, msg string) {
	_, _ = s.send(env.From, &transport.Envelope{Kind: transport.KindReply, ID: env.ID, Err: msg})
}

// --- placement directory (hash-homed entries + per-node location cache) ---
//
// directoryOwner (failure.go) homes each ref on its hash-modulo peer; when
// that peer is declared dead its ranges — and only its ranges — rehash to
// survivors by rendezvous hashing.

// locate resolves ref's hosting node for a CALLER-SIDE first hop: local
// activation wins, then a live forwarding tombstone (authoritative — the
// actor just migrated off this node), then the location cache, then the
// directory owner (placing the actor on a node according to the placement
// policy when unregistered and place is true). The local checks share one
// shard read-lock — the per-call fast path is a single striped acquisition.
// The directory RPC is bounded by the caller's deadline so a mid-lookup
// owner failure surfaces in time to retry against the rehashed owner.
func (s *System) locate(ref Ref, place bool, deadline time.Time) (transport.NodeID, error) {
	sh := s.shardOf(ref)
	sh.mu.RLock()
	if _, ok := sh.activations[ref]; ok {
		sh.mu.RUnlock()
		return s.Node(), nil
	}
	if f, ok := sh.forwards[ref]; ok && time.Now().Before(f.expires) {
		sh.mu.RUnlock()
		return f.node, nil
	}
	if e, ok := sh.locCache[ref]; ok {
		n := e.node
		if !e.used.Load() { // avoid dirtying the line on every repeat hit
			e.used.Store(true)
		}
		sh.mu.RUnlock()
		s.locHits.Add(1)
		return n, nil
	}
	sh.mu.RUnlock()
	s.locMisses.Add(1)
	return s.locateDir(ref, place, deadline)
}

// locateDir resolves ref for ROUTED deliveries (a call some caller already
// steered here) and for locate's cache-miss path: local activation, then a
// live forwarding tombstone, then directory authority — never the location
// cache. Both skips matter. Skipping the cache breaks stale-route cycles: a
// deactivated actor's leftover routes can point a ring of non-hosts at each
// other, and if each bounced callers with its cached guess, nobody would
// ever consult the owner and the directory-designated home would never
// activate — the actor stays unreachable until the routes happen to evict.
// Honoring the tombstone covers the opposite window: right after a
// migration the directory may still name this node (its update retries in
// the background under loss), and following it would re-instantiate an
// actor whose state just left. The tombstone is the migration's own
// authoritative forward, so it outranks the lagging directory.
func (s *System) locateDir(ref Ref, place bool, deadline time.Time) (transport.NodeID, error) {
	sh := s.shardOf(ref)
	sh.mu.RLock()
	_, active := sh.activations[ref]
	fwd, haveFwd := sh.forwards[ref]
	sh.mu.RUnlock()
	if active {
		return s.Node(), nil
	}
	if haveFwd && time.Now().Before(fwd.expires) {
		return fwd.node, nil
	}
	owner := s.directoryOwner(ref)
	if owner == s.Node() {
		n, err := s.dirLookupLocal(ref, s.Node(), place)
		if err != nil {
			return "", err
		}
		s.cachePut(ref, n)
		return n, nil
	}
	// Remote directory lookup (control RPC).
	var node string
	err := s.controlCallT(owner, ctlDirLookup, dirRequest{
		Type: ref.Type, Key: ref.Key, Suggest: string(s.Node()), Place: place,
	}, &node, s.attemptTimeout(deadline))
	if err != nil {
		if errors.Is(err, ErrTimeout) && !s.cfg.DisableFailover && s.PeerStateOf(owner) != PeerAlive {
			return "", fmt.Errorf("%w: directory owner %s: %w", errPeerDown, owner, err)
		}
		return "", err
	}
	n := transport.NodeID(node)
	s.cachePut(ref, n)
	return n, nil
}

// dirLookupLocal consults/updates this node's owned directory entries. A
// recorded placement homed on a node now declared dead is expunged and
// re-placed among live peers — the failover path for entries created (or
// re-learned) after the death purge.
func (s *System) dirLookupLocal(ref Ref, suggest transport.NodeID, place bool) (transport.NodeID, error) {
	dead := func(n transport.NodeID) bool {
		return !s.cfg.DisableFailover && s.PeerStateOf(n) == PeerDead
	}
	sh := s.shardOf(ref)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.dirEntries[ref]; ok {
		if !dead(e.node) {
			return e.node, nil
		}
		delete(sh.dirEntries, ref)
		delete(sh.locCache, ref)
		s.failures.FailoverPurged.Add(1)
	}
	if !place {
		return "", fmt.Errorf("actor: %s not registered", ref)
	}
	var n transport.NodeID
	if s.cfg.Placement == PlaceLocal && !dead(suggest) {
		n = suggest
	} else {
		live := s.livePeers()
		s.rngMu.Lock()
		n = live[s.rng.Intn(len(live))]
		s.rngMu.Unlock()
	}
	sh.dirEntries[ref] = dirEntry{node: n}
	return n, nil
}

// dirEntry is one owned directory record: where the actor lives, and the
// migration epoch of the incarnation that registered it. Updates carry the
// epoch so a delayed retry of an older migration's update loses to the
// newer state it races with (background retries make updates arrive out of
// order under loss).
type dirEntry struct {
	node  transport.NodeID
	epoch uint64
}

// dirRequest is the directory control payload.
type dirRequest struct {
	Type, Key string
	Suggest   string
	Place     bool
	NewNode   string // for updates
	Epoch     uint64 // migration epoch of the update's incarnation
}

// controlCall is a generic request/response over KindControl envelopes,
// bounded by the configured CallTimeout.
func (s *System) controlCall(node transport.NodeID, verb string, args, reply interface{}) error {
	return s.controlCallT(node, verb, args, reply, s.cfg.CallTimeout)
}

// controlCallT is controlCall with an explicit timeout (heartbeat pings and
// deadline-bounded directory lookups use shorter budgets).
func (s *System) controlCallT(node transport.NodeID, verb string, args, reply interface{}, timeout time.Duration) error {
	data, err := codec.Marshal(args)
	if err != nil {
		return err
	}
	if node == s.Node() {
		out, cerr := s.handleControlVerb(verb, data, s.Node())
		if cerr != nil {
			return cerr
		}
		if reply != nil {
			return codec.Unmarshal(out, reply)
		}
		return nil
	}
	id := s.nextID.Add(1)
	ch := make(chan *transport.Envelope, 1)
	s.pendPut(id, ch)
	defer s.pendDel(id)
	env := &transport.Envelope{Kind: transport.KindControl, ID: id, Method: verb, Payload: data}
	if _, err := s.send(node, env); err != nil {
		return err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.Err != "" {
			return rehydrateWireErr(r.Err)
		}
		if reply != nil {
			return codec.Unmarshal(r.Payload, reply)
		}
		return nil
	case <-timer.C:
		return fmt.Errorf("%w: control %s @%s", ErrTimeout, verb, node)
	case <-s.done:
		return ErrStopped
	}
}

func (s *System) handleControl(env *transport.Envelope) {
	out, err := s.handleControlVerb(env.Method, env.Payload, env.From)
	reply := &transport.Envelope{Kind: transport.KindReply, ID: env.ID, Payload: out}
	if err != nil {
		reply.Err = err.Error()
	}
	_, _ = s.send(env.From, reply)
}

func (s *System) handleControlVerb(verb string, payload []byte, from transport.NodeID) ([]byte, error) {
	switch verb {
	case ctlDirLookup:
		var req dirRequest
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		node, err := s.dirLookupLocal(Ref{Type: req.Type, Key: req.Key}, transport.NodeID(req.Suggest), req.Place)
		if err != nil {
			return nil, err
		}
		return codec.Marshal(string(node))
	case ctlDirUpdate:
		var req dirRequest
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		ref := Ref{Type: req.Type, Key: req.Key}
		sh := s.shardOf(ref)
		sh.mu.Lock()
		// Epoch guard: updates arrive out of order (lost ones are retried in
		// the background for seconds), so a stale retry from an older
		// migration must not rewind a newer entry — nor stomp the owner's
		// location cache with a pointer the actor already left behind.
		if cur, ok := sh.dirEntries[ref]; !ok || req.Epoch >= cur.epoch {
			sh.dirEntries[ref] = dirEntry{node: transport.NodeID(req.NewNode), epoch: req.Epoch}
			s.cacheInsertLocked(sh, ref, transport.NodeID(req.NewNode))
		}
		sh.mu.Unlock()
		return codec.Marshal(ctlPlacementOK)
	case ctlDirRemove:
		var req dirRequest
		if err := codec.Unmarshal(payload, &req); err != nil {
			return nil, err
		}
		ref := Ref{Type: req.Type, Key: req.Key}
		sh := s.shardOf(ref)
		sh.mu.Lock()
		delete(sh.dirEntries, ref)
		delete(sh.locCache, ref)
		sh.mu.Unlock()
		return codec.Marshal(ctlPlacementOK)
	case ctlMigratePut:
		return s.handleMigratePut(payload)
	case ctlMigrateDrop:
		return s.handleMigrateDrop(payload)
	case ctlSnap:
		return s.handleSnapPut(payload)
	case ctlSnapGet:
		return s.handleSnapGet(payload)
	case ctlExchange:
		return s.handleExchange(payload, from)
	case ctlTraces:
		var traceID uint64
		if err := codec.Unmarshal(payload, &traceID); err != nil {
			return nil, err
		}
		return codec.Marshal(s.spans.ForTrace(traceID))
	case ctlHotspots:
		var n int
		if err := codec.Unmarshal(payload, &n); err != nil {
			return nil, err
		}
		return codec.Marshal(s.LocalHotspots(n))
	case ctlPing:
		var sender string
		if err := codec.Unmarshal(payload, &sender); err != nil {
			return nil, err
		}
		// Receiving a ping is proof of life for the sender, whatever our
		// own pings to it have been doing (asymmetric partitions heal both
		// views faster this way).
		s.markPeerAlive(transport.NodeID(sender))
		return codec.Marshal(ctlPlacementOK)
	default:
		return nil, fmt.Errorf("actor: unknown control verb %q", verb)
	}
}

// observeEdge feeds the communication monitor (§4.3) and remembers the
// vertex↔ref mapping for migration decisions. The two vertex entries may
// land in different shards; they are taken one at a time (never nested), so
// no lock ordering is induced.
func (s *System) observeEdge(from, to Ref) {
	fh, th := refHash(from), refHash(to)
	sh := s.shardOfVertex(fh)
	sh.mu.Lock()
	sh.vertexRefs[fh] = from
	sh.mu.Unlock()
	sh = s.shardOfVertex(th)
	sh.mu.Lock()
	sh.vertexRefs[th] = to
	sh.mu.Unlock()
	s.monMu.Lock()
	s.monitor.ObserveMessage(graph.Vertex(fh), graph.Vertex(th), 1)
	s.monMu.Unlock()
}

// refOf maps a monitored vertex back to its ref.
func (s *System) refOf(v uint64) (Ref, bool) {
	sh := s.shardOfVertex(v)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.vertexRefs[v]
	return r, ok
}
