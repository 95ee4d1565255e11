package main

import (
	"errors"
	"math/rand"
	"sort"
	"time"

	"actop/internal/actor"
)

// workload is one traffic mix. A fresh instance backs each cluster the
// benchmark sets up; its inputs derive only from the seed.
type workload interface {
	config() clusterConfig
	// register installs the workload's actor types on one node; p is nil
	// in untraced runs.
	register(sys *actor.System, p *probes)
	// populate activates the whole population.
	populate(c *cluster) error
	// drive offers load for d. It returns the op records and, for open
	// loops, the pacer's lateness per op (ns).
	drive(c *cluster, d time.Duration, phase int64) ([]opRecord, []int64)
	// check audits the actors' outputs against what the driver saw
	// complete, after all load has drained; it returns every violation.
	check(c *cluster) []string
	// rootMethod names the driver's call, for picking root spans.
	rootMethod() string
	// offered is the open-loop rate in ops/s, 0 for a closed loop.
	offered() float64
	// warmup is how long set-up drives load before the first timed op.
	warmup() time.Duration
	// windows is how many of an untraced run's set-ups are measured (the
	// last ones, at most setupReps), each for an equal share of the run.
	windows() int
}

func newWorkload(name string, seed int64) workload {
	switch name {
	case "heartbeat":
		return newHeartbeat(seed)
	case "presence":
		return newPresence(seed)
	case "ingest":
		return newIngest(seed)
	}
	return nil
}

var workloadNames = []string{"heartbeat", "presence", "ingest"}

// phaseRNG seeds one phase's input stream from the run seed.
func phaseRNG(seed, phase int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + phase))
}

// poisson returns the arrival offsets of a Poisson process over d.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	if rate <= 0 {
		return out
	}
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// schedule merges client ops (targets from pickOp) and driver actions
// (op -1, targets from pickAct) into one time-ordered open-loop schedule.
func schedule(rng *rand.Rand, d time.Duration, rate float64, pickOp func() int32, actRate float64, pickAct func() int32) ([]event, int) {
	var sched []event
	ops := poisson(rng, rate, d)
	for i, at := range ops {
		sched = append(sched, event{at: at, op: int32(i), target: pickOp()})
	}
	for _, at := range poisson(rng, actRate, d) {
		sched = append(sched, event{at: at, op: -1, target: pickAct()})
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].at < sched[j].at })
	return sched, len(ops)
}

func isTimeout(err error) bool { return errors.Is(err, actor.ErrTimeout) }
