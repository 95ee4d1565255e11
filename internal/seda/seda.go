// Package seda is a real (goroutine-backed) staged event-driven executor:
// each Stage owns a bounded task queue and a dynamically resizable worker
// pool, with the per-event instrumentation (arrival counts, queue lengths,
// wall times) that ActOp's thread controller consumes (§5).
//
// It is the runtime analogue of the simulator's stage model. The actor
// runtime (internal/actor) measures receive → execute → send as three
// stages, as Fig. 2 shows; receive and send mostly run inline on goroutines
// that already exist (RunInline), and only work that may block waits in a
// pool.
package seda

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/metrics"
)

// Task is one unit of stage work.
type Task func()

// TimedTask is stage work that wants its own queue-residence time. The
// worker already measures the wait for the stage's estimator histograms, so
// handing it to the task costs nothing extra — this is how the tracing
// plane attributes per-hop queue waits without a second clock read.
type TimedTask func(wait time.Duration)

// ErrQueueFull is returned by Submit when the stage queue is at capacity —
// the backpressure signal (overloaded servers reject, §6.1).
var ErrQueueFull = errors.New("seda: stage queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("seda: stage closed")

// Stats is a snapshot of a stage's counters since the previous snapshot.
type Stats struct {
	Name      string
	Arrivals  uint64        // tasks submitted in the window
	Processed uint64        // tasks completed in the window
	BusyTime  time.Duration // summed task execution wall time
	QueueWait time.Duration // summed queue residence time
	QueueLen  int           // instantaneous queue length
	Workers   int           // current worker count

	// Wait and Busy are latency-distribution summaries (count, mean, p50,
	// p95, p99, max) of per-task queue-residence and execution wall time in
	// the window — the thread controller's raw measurements (§5.4) and the
	// /debug/actop payload.
	Wait metrics.Summary
	Busy metrics.Summary
}

type queued struct {
	task  Task
	timed TimedTask // set instead of task for SubmitTimed work
	at    time.Time
}

// Stage is one SEDA stage. Create with NewStage; resize with SetWorkers.
type Stage struct {
	name string

	// closeMu serializes Submit against Close: submitters hold it shared
	// (cheap, uncontended on the hot path), Close holds it exclusively
	// while closing the queue channel, so a task can never be sent on a
	// closed channel. The closed flag is atomic so Submit's fast path
	// takes no exclusive lock at all.
	closeMu sync.RWMutex
	closed  atomic.Bool
	queue   chan queued

	mu      sync.Mutex
	stops   []chan struct{} // one per live worker
	workers int

	// window counters (atomics so task paths don't take the lock)
	arrivals  atomic.Uint64
	processed atomic.Uint64
	busyNanos atomic.Int64
	waitNanos atomic.Int64

	// window latency distributions. Histograms record in O(1) but are not
	// concurrency-safe, so workers take obsMu for the two Record calls per
	// completed task; the critical section is a handful of array increments,
	// far below the channel-receive cost already on this path.
	obsMu    sync.Mutex
	waitHist metrics.Histogram
	busyHist metrics.Histogram

	wg sync.WaitGroup
}

// NewStage creates a stage with the given queue capacity and initial worker
// count (minimum 1 each).
func NewStage(name string, queueCap, workers int) *Stage {
	if queueCap < 1 {
		queueCap = 1
	}
	if workers < 1 {
		workers = 1
	}
	s := &Stage{name: name, queue: make(chan queued, queueCap)}
	s.mu.Lock()
	s.grow(workers)
	s.mu.Unlock()
	return s
}

// Name reports the stage name.
func (s *Stage) Name() string { return s.name }

// Submit enqueues a task. It never blocks: a full queue returns
// ErrQueueFull so callers can shed load. The hot path takes only a shared
// lock, so concurrent submitters do not serialize behind each other.
func (s *Stage) Submit(t Task) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	select {
	case s.queue <- queued{task: t, at: time.Now()}:
		s.arrivals.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// SubmitTimed enqueues a task that receives its measured queue wait. Same
// semantics as Submit otherwise.
func (s *Stage) SubmitTimed(t TimedTask) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	select {
	case s.queue <- queued{timed: t, at: time.Now()}:
		s.arrivals.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// RunInline runs t on the calling goroutine as one event of this stage and
// returns its execution time. It is for stage work whose natural home is a
// goroutine that already exists — a transport read loop that deserializes
// and delivers, a caller that hands a frame to its peer's writer — where a
// pool hop would add a hand-off and no parallelism. The event counts toward
// the window exactly like a pooled one (arrival, completion, busy time),
// with zero queue wait, so the thread controller's λ and service-time
// estimates keep covering all of the stage's work.
func (s *Stage) RunInline(t Task) time.Duration {
	s.arrivals.Add(1)
	start := time.Now()
	t()
	busy := time.Since(start)
	s.record(0, busy)
	return busy
}

// record accounts one completed event's queue wait and execution time.
func (s *Stage) record(wait, busy time.Duration) {
	s.waitNanos.Add(int64(wait))
	s.busyNanos.Add(int64(busy))
	s.processed.Add(1)
	s.obsMu.Lock()
	s.waitHist.Record(wait)
	s.busyHist.Record(busy)
	s.obsMu.Unlock()
}

// worker drains the queue until its stop channel fires.
func (s *Stage) worker(stop chan struct{}) {
	defer s.wg.Done()
	for {
		select {
		case <-stop:
			return
		case q, ok := <-s.queue:
			if !ok {
				return
			}
			start := time.Now()
			wait := start.Sub(q.at)
			if q.task != nil {
				q.task()
			} else {
				q.timed(wait)
			}
			s.record(wait, time.Since(start))
		}
	}
}

// grow starts n additional workers. Caller holds mu.
func (s *Stage) grow(n int) {
	for i := 0; i < n; i++ {
		stop := make(chan struct{})
		s.stops = append(s.stops, stop)
		s.wg.Add(1)
		go s.worker(stop)
	}
	s.workers += n
}

// SetWorkers resizes the pool to n (minimum 1). Shrinking signals surplus
// workers to exit after their current task.
func (s *Stage) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return
	}
	switch {
	case n > s.workers:
		s.grow(n - s.workers)
	case n < s.workers:
		for i := 0; i < s.workers-n; i++ {
			stop := s.stops[len(s.stops)-1]
			s.stops = s.stops[:len(s.stops)-1]
			close(stop)
		}
		s.workers = n
	}
}

// Workers reports the current worker count.
func (s *Stage) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// QueueLen reports the instantaneous queue length.
func (s *Stage) QueueLen() int { return len(s.queue) }

// Snapshot returns the window counters and resets them.
func (s *Stage) Snapshot() Stats {
	s.obsMu.Lock()
	wait := s.waitHist.Summarize()
	busy := s.busyHist.Summarize()
	s.waitHist.Reset()
	s.busyHist.Reset()
	s.obsMu.Unlock()
	return Stats{
		Name:      s.name,
		Arrivals:  s.arrivals.Swap(0),
		Processed: s.processed.Swap(0),
		BusyTime:  time.Duration(s.busyNanos.Swap(0)),
		QueueWait: time.Duration(s.waitNanos.Swap(0)),
		QueueLen:  s.QueueLen(),
		Workers:   s.Workers(),
		Wait:      wait,
		Busy:      busy,
	}
}

// Close stops all workers after the queued tasks drain and rejects further
// submissions. It blocks until workers exit.
func (s *Stage) Close() {
	s.closeMu.Lock()
	if s.closed.Swap(true) {
		s.closeMu.Unlock()
		s.wg.Wait()
		return
	}
	// Release workers blocked on the queue by closing it; drain semantics:
	// workers finish whatever is buffered first. The exclusive lock
	// guarantees no Submit is mid-send on the channel.
	close(s.queue)
	s.closeMu.Unlock()
	s.mu.Lock()
	s.stops = nil // workers exit via the closed queue; stop channels are moot
	s.mu.Unlock()
	s.wg.Wait()
}

// String describes the stage.
func (s *Stage) String() string {
	return fmt.Sprintf("stage(%s workers=%d queued=%d)", s.name, s.Workers(), s.QueueLen())
}
