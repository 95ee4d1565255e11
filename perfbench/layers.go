package main

import (
	"fmt"
	"time"

	"actop/internal/actor"
	"actop/internal/metrics"
	"actop/internal/seda"
	"actop/internal/trace"
)

// layerSnap is every layer counter the benchmark differences over a
// measured window, read from outside the runtime.
type layerSnap struct {
	cpu   time.Duration
	gor   goCounters
	stats []actor.Stats
	fails []metrics.FailureSnapshot
	durs  []metrics.DurableSnapshot

	rounds, moved, retunes int

	msgs, bytes                int64
	sendN, sendNs, delN, delNs int64
	turnN, turnNs, encN, encNs int64
	decN, decNs, nestN, nestNs int64
	codecBytes, nestedTimeouts int64
	covered                    int64
}

func takeSnap(c *cluster, p *probes) layerSnap {
	s := layerSnap{cpu: cpuTime(), gor: readGo()}
	for i, sys := range c.systems {
		s.stats = append(s.stats, sys.Stats())
		s.fails = append(s.fails, sys.Failures())
		s.durs = append(s.durs, sys.Durables())
		r, m, t := c.opts[i].Counters()
		s.rounds += r
		s.moved += m
		s.retunes += t
	}
	for _, t := range c.taps {
		s.msgs += t.msgs.Load()
		s.bytes += t.bytes.Load()
		n, ns := t.send.load()
		s.sendN, s.sendNs = s.sendN+n, s.sendNs+ns
		n, ns = t.deliver.load()
		s.delN, s.delNs = s.delN+n, s.delNs+ns
	}
	if p != nil {
		s.turnN, s.turnNs = p.turn.load()
		s.encN, s.encNs = p.encode.load()
		s.decN, s.decNs = p.decode.load()
		s.nestN, s.nestNs = p.nested.load()
		s.codecBytes = p.codecBytes.Load()
		s.nestedTimeouts = p.nestedTimeouts.Load()
		s.covered = p.covered.Load()
	}
	return s
}

// metricSet is an ordered name → (value, unit) list.
type metricSet struct {
	names []string
	vals  map[string]metricVal
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) set(name string, v float64, unit string) {
	if m.vals == nil {
		m.vals = make(map[string]metricVal)
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metricVal{Value: v, Unit: unit}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills the layer metrics of one traced window. ops is the number
// of client ops completed in it.
func perLayer(m *metricSet, c *cluster, b, a layerSnap, ops float64, dur time.Duration, stageWin []seda.Stats) {
	m.set("transport.msgs_per_op", ratio(float64(a.msgs-b.msgs), ops), "msgs/op")
	m.set("transport.bytes_per_op", ratio(float64(a.bytes-b.bytes), ops), "B/op")
	m.set("transport.send_us", ratio(float64(a.sendNs-b.sendNs), float64(a.sendN-b.sendN))/1e3, "us")
	m.set("transport.deliver_us", ratio(float64(a.delNs-b.delNs), float64(a.delN-b.delN))/1e3, "us")

	encN, decN := float64(a.encN-b.encN), float64(a.decN-b.decN)
	m.set("codec.encode_us", ratio(float64(a.encNs-b.encNs), encN)/1e3, "us")
	m.set("codec.decode_us", ratio(float64(a.decNs-b.decNs), decN)/1e3, "us")
	m.set("codec.bytes_per_msg", ratio(float64(a.codecBytes-b.codecBytes), encN+decN), "B")

	stageMetrics(m, c, dur, stageWin)

	// A turn's self time is its span minus what its codec and nested-call
	// spans cover; every such span of the benchmark's actors runs inside a
	// turn.
	self := float64(a.turnNs-b.turnNs) - float64(a.covered-b.covered)
	m.set("actor.turn_self_us", ratio(self, float64(a.turnN-b.turnN))/1e3, "us")
	m.set("actor.nested_call_us", ratio(float64(a.nestNs-b.nestNs), float64(a.nestN-b.nestN))/1e3, "us")

	var local, remote, redirects, migrations, retries, snaps, shipped float64
	acts := 0
	for i := range a.stats {
		local += float64(a.stats[i].CallsLocal - b.stats[i].CallsLocal)
		remote += float64(a.stats[i].CallsRemote - b.stats[i].CallsRemote)
		redirects += float64(a.stats[i].Redirects - b.stats[i].Redirects)
		migrations += float64(a.stats[i].MigrationsOut - b.stats[i].MigrationsOut)
		acts += a.stats[i].Activations - b.stats[i].Activations
		retries += float64(a.fails[i].Retries - b.fails[i].Retries)
		snaps += float64(a.durs[i].Captured - b.durs[i].Captured)
		shipped += float64(a.durs[i].ShippedBytes - b.durs[i].ShippedBytes)
	}
	m.set("actor.remote_frac", ratio(remote, local+remote), "ratio")
	m.set("actor.activations_per_op", ratio(float64(acts), ops), "1/op")
	m.set("actor.redirects", redirects, "count")
	m.set("actor.retries", retries, "count")
	m.set("actor.migrations", migrations, "count")
	m.set("core.exchange_rounds", float64(a.rounds-b.rounds), "count")
	m.set("core.actors_moved", float64(a.moved-b.moved), "count")
	m.set("core.retunes", float64(a.retunes-b.retunes), "count")
	m.set("durable.snapshots_per_op", ratio(snaps, ops), "1/op")
	m.set("durable.shipped_bytes_per_op", ratio(shipped, ops), "B/op")

	m.set("go.allocs_per_op", ratio(float64(a.gor.allocs-b.gor.allocs), ops), "1/op")
	m.set("go.gc_cpu_frac", ratio(a.gor.gcCPU-b.gor.gcCPU, a.gor.total-b.gor.total), "ratio")
}

var stageNames = [3]struct{ key, label string }{
	{"recv", "receiver"}, {"work", "worker"}, {"send", "sender"},
}

// stageMetrics reports each SEDA stage's median queue wait and busy time
// per task, averaged over the nodes, and the work stage's pool size and
// mean busy workers per node. With the thread controller running, a
// Stage.Snapshot would reset the window the controller reads, so the
// numbers come from the gauges the controller publishes after each tick;
// otherwise from the window snapshots in stageWin (nodes × 3 stages).
func stageMetrics(m *metricSet, c *cluster, dur time.Duration, stageWin []seda.Stats) {
	n := float64(len(c.systems))
	for si, st := range stageNames {
		var wait, busy, workers, busyWorkers float64
		for i := range c.systems {
			if stageWin == nil {
				w, _ := c.gauge(i, fmt.Sprintf(`actop_stage_wait_seconds{stage=%q,quantile="0.5"}`, st.label))
				bz, _ := c.gauge(i, fmt.Sprintf(`actop_stage_busy_seconds{stage=%q,quantile="0.5"}`, st.label))
				wk, _ := c.gauge(i, fmt.Sprintf(`actop_stage_workers{stage=%q}`, st.label))
				u, _ := c.gauge(i, fmt.Sprintf(`actop_stage_utilization{stage=%q}`, st.label))
				wait, busy, workers, busyWorkers = wait+w*1e6, busy+bz*1e6, workers+wk, busyWorkers+u*wk
				continue
			}
			s := stageWin[i*3+si]
			wait += float64(s.Wait.Median) / 1e3
			busy += float64(s.Busy.Median) / 1e3
			workers += float64(s.Workers)
			busyWorkers += ratio(float64(s.BusyTime), float64(dur))
		}
		m.set("seda."+st.key+".wait_us", wait/n, "us")
		m.set("seda."+st.key+".busy_us", busy/n, "us")
		if st.key == "work" {
			m.set("seda.work.workers", workers/n, "threads")
			m.set("seda.work.busy_workers", busyWorkers/n, "threads")
		}
	}
}

// snapStages snapshots (and so resets) every stage window, nodes × 3.
func snapStages(c *cluster) []seda.Stats {
	var out []seda.Stats
	for _, sys := range c.systems {
		r, w, s := sys.Stages()
		out = append(out, r.Snapshot(), w.Snapshot(), s.Snapshot())
	}
	return out
}

// ladder is the traced run's latency decomposition of root ops: the
// runtime's span components (trace.*), the driver's own share before the
// call (due instant to System.Call), and the driver-measured latency they
// must add up to.
type ladder struct {
	comps    map[string]float64 // µs, mean over root spans
	residual float64            // µs, mean driver share
	latency  float64            // µs, mean driver-measured op latency
	roots    int
}

// closure is the ladder's relative gap to the measured latency.
func (l ladder) closure() float64 {
	sum := l.residual
	for _, v := range l.comps {
		sum += v
	}
	return ratio(sum-l.latency, l.latency)
}

// traceLadder matches root spans from every node's trace ring against the
// driver's records of ops sent through that node. Rings wrap on busy
// workloads, so each node only contributes ops that started after the
// oldest span it still holds had finished.
func traceLadder(c *cluster, method string, recs []opRecord, winStart, winEnd int64) ladder {
	var roots []trace.Span
	var lat, resid float64
	matched := 0
	for i, sys := range c.systems {
		ring := sys.TraceRing()
		spans := ring.Snapshot(0)
		cut := winStart
		if ring.Overwritten() > 0 && len(spans) > 0 {
			old := spans[len(spans)-1]
			if f := int64(old.Start.Add(old.Total).Sub(runEpoch)); f > cut {
				cut = f
			}
		}
		for _, sp := range spans {
			at := int64(sp.Start.Sub(runEpoch))
			if sp.ParentID != 0 || sp.Method != method || at < cut || at >= winEnd || sp.Err != "" {
				continue
			}
			if sp.Kind == "client" || sp.Kind == "local" {
				roots = append(roots, sp)
			}
		}
		for _, r := range recs {
			if int(r.node) != i || r.err != nil || r.start < cut || r.start >= winEnd {
				continue
			}
			lat += float64(r.end - r.due)
			resid += float64(r.start - r.due)
			matched++
		}
	}
	l := ladder{comps: make(map[string]float64), roots: len(roots)}
	d := trace.Decompose(roots)
	for _, comp := range trace.Components {
		l.comps[comp] = float64(d.ComponentHistogram(comp).Mean()) / 1e3
	}
	l.latency = ratio(lat, float64(matched)) / 1e3
	l.residual = ratio(resid, float64(matched)) / 1e3
	return l
}
