package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// opRecord is one client op's timing, in nanoseconds since the run epoch.
// due is the scheduled instant (open loop) or the send instant (closed
// loop); start is when the driver entered System.Call; end is completion.
type opRecord struct {
	due, start, end int64
	node            int8
	err             error
}

// event is one entry of an open-loop schedule: at its offset the pacer
// either fires client op op (op >= 0) or runs a driver-side action such as
// game churn (op < 0, handled by the workload's onEvent).
type event struct {
	at     time.Duration
	op     int32
	target int32
}

// runEpoch anchors every opRecord timestamp.
var runEpoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(runEpoch)) }

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK option.
const prSetTimerSlack = 29

// openLoop drives a schedule against wall time and returns the op records
// (indexed by the events' op numbers) and the pacer's lateness per op.
//
// The pacer is one goroutine locked to its OS thread with a 1 ns timer
// slack, sleeping in nanosleep(2): its wake-up lateness does not depend on
// how idle the rest of the process is, unlike time.Sleep's. Every op runs
// on its own goroutine, so a stalled reply never delays a later send, and
// is timed from its due instant, so a stall's backlog counts against the
// run. openLoop returns when every op has completed or failed; each op is
// bounded by the runtime's call timeout.
func openLoop(sched []event, nOps int, fire func(op, target int) (int8, error), onEvent func(target int)) ([]opRecord, []int64) {
	recs := make([]opRecord, nOps)
	late := make([]int64, 0, nOps)
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		// Best effort: without it the kernel's default 50µs slack applies.
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		base := time.Now()
		for _, ev := range sched {
			due := base.Add(ev.at)
			for {
				d := time.Until(due)
				if d <= 0 {
					break
				}
				ts := syscall.NsecToTimespec(int64(d))
				_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
			}
			if ev.op < 0 {
				onEvent(int(ev.target))
				continue
			}
			now := time.Now()
			late = append(late, int64(now.Sub(due)))
			rec := &recs[ev.op]
			rec.due = int64(due.Sub(runEpoch))
			op, target := int(ev.op), int(ev.target)
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec.start = sinceEpoch()
				node, err := fire(op, target)
				rec.end = sinceEpoch()
				rec.node, rec.err = node, err
			}()
		}
	}()
	<-done
	wg.Wait()
	return recs, late
}

// closedLoop runs callers goroutines, each sending its next op only after
// the previous one completed, until d has passed. Ops are timed from their
// send. next(caller, seq) performs one op.
func closedLoop(callers int, d time.Duration, next func(caller, seq int) (int8, error)) []opRecord {
	per := make([][]opRecord, callers)
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]opRecord, 0, 1<<16)
			for seq := 0; time.Now().Before(stop); seq++ {
				r := opRecord{due: sinceEpoch()}
				r.start = r.due
				node, err := next(c, seq)
				r.end = sinceEpoch()
				r.node, r.err = node, err
				out = append(out, r)
			}
			per[c] = out
		}()
	}
	wg.Wait()
	var all []opRecord
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// latencies summarizes a measured window. Failed ops count as missing
// every latency limit: they sit above every successful op in the order.
type latencies struct {
	sorted   []int64 // successful ops, ascending ns
	failed   int
	firstErr error
}

func summarize(recs []opRecord) latencies {
	var l latencies
	l.sorted = make([]int64, 0, len(recs))
	for i := range recs {
		if recs[i].err == nil {
			l.sorted = append(l.sorted, recs[i].end-recs[i].due)
			continue
		}
		if l.failed == 0 {
			l.firstErr = recs[i].err
		}
		l.failed++
	}
	sort.Slice(l.sorted, func(i, j int) bool { return l.sorted[i] < l.sorted[j] })
	return l
}

func (l latencies) n() int { return len(l.sorted) + l.failed }

// quantile is the nearest-rank q-quantile in µs (+Inf past the successes).
func (l latencies) quantile(q float64) float64 {
	return quantileNs(l.sorted, l.n(), q) / 1e3
}

// beyond counts the samples strictly above the nearest-rank q-quantile.
func (l latencies) beyond(q float64) int {
	return l.n() - rank(l.n(), q)
}

func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

func quantileNs(sorted []int64, n int, q float64) float64 {
	if n == 0 {
		return 0
	}
	r := rank(n, q)
	if r > len(sorted) {
		return math.Inf(1)
	}
	return float64(sorted[r-1])
}

func lateQuantileUs(late []int64, q float64) float64 {
	s := append([]int64(nil), late...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantileNs(s, len(s), q) / 1e3
}

// Chunking for the tail: p99 is reported as the median of the p99s of
// consecutive chunks of the window's ops (by due instant), each chunk at
// least chunkOps ops so that at least ten samples lie beyond its p99, and
// at most maxChunks chunks. A burst of host stalls (on a virtualized 2-core
// host an idle process's nanosleep wake-ups are already 3 ms late at p99)
// then moves one chunk's p99 instead of the whole run's. Failed ops still
// count as missing every limit within their chunk.
const (
	chunkOps  = 1000
	maxChunks = 50
)

// chunkedP99 returns the median chunk p99 in µs and the chunk count.
func chunkedP99(recs []opRecord) (float64, int) {
	byDue := append([]opRecord(nil), recs...)
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].due < byDue[j].due })
	k := len(byDue) / chunkOps
	if k > maxChunks {
		k = maxChunks
	}
	if k < 1 {
		k = 1
	}
	p99s := make([]float64, k)
	for c := 0; c < k; c++ {
		p99s[c] = summarize(byDue[c*len(byDue)/k : (c+1)*len(byDue)/k]).quantile(0.99)
	}
	return median(p99s), k
}

// median of a few floats (set-up repetitions).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
