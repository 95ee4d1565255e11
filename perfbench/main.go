// Command perfbench is actop's end-to-end benchmark. It starts a 3-node
// loopback-TCP actor.System cluster inside one process, drives one of
// three workloads (heartbeat, presence, ingest) against it for a fixed
// time, checks the actors' outputs, and prints every metric by name with
// its unit. The last stdout line is the JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a traced run, and the tracing
// overhead against an untraced run of the same workload and seed.
// --workload all runs the three in turn. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"actop/internal/actor"
	"actop/internal/seda"
	"actop/internal/trace"
)

// Validity bounds. A run outside them is reported as incorrect (exit 1)
// rather than scored.
const (
	// closureBound is how far the traced ladder may miss the measured mean
	// op latency, as a fraction of it.
	closureBound = 0.10
	// lateShareBound caps the pacer's median lateness as a share of the
	// median op latency it is part of. Its p99 is reported, not bounded:
	// on a virtualized host an idle process's nanosleep already wakes
	// milliseconds late at p99, and that stall delays the ops alike.
	lateShareBound = 0.20
	// minBeyondP99 is how many samples must lie beyond the reported p99.
	minBeyondP99 = 10
)

// setupReps is how many times an untraced run sets the cluster up;
// setup_s and heap_bytes_per_actor are the medians over the set-ups. The
// last windows() of them are measured, each for an equal share of the
// run, and the other metrics pool those windows.
const setupReps = 5

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`

	names      []string
	violations []string
}

// fail ends a run that could not be measured: it counts as one failed op.
func (r *result) fail(err error) result {
	r.violations = append(r.violations, err.Error())
	r.Attempted = max(r.Attempted, 1)
	r.Failed = max(r.Failed, 1)
	return *r
}

func (r *result) add(prefix string, m metricSet) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metricVal)
	}
	for _, n := range m.names {
		r.Metrics[prefix+n] = m.vals[n]
		r.names = append(r.names, prefix+n)
	}
}

func main() { os.Exit(run()) }

// run is the command; it returns the exit code.
func run() int {
	var (
		name   = flag.String("workload", "", "heartbeat, presence, ingest, or all")
		seed   = flag.Int64("seed", 1, "input seed")
		secs   = flag.Int("seconds", 30, "measured seconds per run")
		traced = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		outDir = flag.String("out", ".bench_build", "directory for the runs.jsonl host and result log")
	)
	flag.Parse()
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if newWorkload(n, 0) == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want heartbeat, presence, ingest or all)\n", n)
			return 2
		}
	}
	if *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		return 2
	}

	final := result{Correct: true, Metrics: map[string]metricVal{}}
	for _, n := range names {
		host := readHost()
		host.Workload, host.Seed, host.Trace = n, *seed, *traced == 1
		hj, _ := json.Marshal(host)
		fmt.Fprintf(os.Stderr, "host: %s\n", hj)

		d := time.Duration(*secs) * time.Second
		var r result
		if *traced == 1 {
			r = runTraced(n, *seed, d)
		} else {
			r = runUntraced(n, *seed, d)
		}
		for _, v := range r.violations {
			fmt.Printf("%s: VIOLATION: %s\n", n, v)
		}
		fmt.Printf("%s: attempted %d, failed %d, correct %v\n", n, r.Attempted, r.Failed, r.Correct)
		for _, m := range r.names {
			fmt.Printf("%s: %-30s %14.4f %s\n", n, m, r.Metrics[m].Value, r.Metrics[m].Unit)
		}
		logRun(*outDir, host, r)

		prefix := ""
		if len(names) > 1 {
			prefix = n + "/"
		}
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		final.add(prefix, metricSet{names: r.names, vals: r.Metrics})
	}
	js, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(js))
	if !final.Correct {
		return 1
	}
	return 0
}

// logRun appends the run's host record and result to runs.jsonl, so drift
// between runs stays visible next to the numbers.
func logRun(dir string, host hostInfo, r result) {
	line, err := json.Marshal(struct {
		Host       hostInfo             `json:"host"`
		Correct    bool                 `json:"correct"`
		Attempted  int                  `json:"attempted"`
		Failed     int                  `json:"failed"`
		Metrics    map[string]metricVal `json:"metrics"`
		Violations []string             `json:"violations,omitempty"`
	}{host, r.Correct, r.Attempted, r.Failed, r.Metrics, r.violations})
	if err != nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run log: %v\n", err)
		return
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run log: %v\n", err)
		return
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run log: %v\n", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run log: %v\n", err)
	}
}

// setUp starts a cluster for a fresh workload instance, activates the
// population and warms up: the set-up a user pays before the first timed
// op. Warm-up failures are violations.
func setUp(name string, seed int64, p *probes) (workload, *cluster, time.Duration, []string, error) {
	t0 := time.Now()
	w := newWorkload(name, seed)
	c, err := startCluster(w.config(), seed, p != nil, func(sys *actor.System) { w.register(sys, p) })
	if err != nil {
		return nil, nil, 0, nil, err
	}
	if err := w.populate(c); err != nil {
		c.stop()
		return nil, nil, 0, nil, fmt.Errorf("populate: %w", err)
	}
	recs, _ := w.drive(c, w.warmup(), 0)
	setup := time.Since(t0)
	var viol []string
	if l := summarize(recs); l.failed > 0 {
		viol = append(viol, fmt.Sprintf("warm-up: %d of %d ops failed, first: %v", l.failed, l.n(), l.firstErr))
	}
	return w, c, setup, viol, nil
}

// window is one measured stretch of load on a set-up cluster.
type window struct {
	recs             []opRecord
	late             []int64
	winStart, winEnd int64
	before, after    layerSnap
	stages           []seda.Stats // traced runs without the thread controller
}

func measure(c *cluster, w workload, d time.Duration, phase int64, p *probes) window {
	var m window
	if p != nil && c.cfg.noThreadControl {
		snapStages(c) // opens the stage windows
	}
	m.before = takeSnap(c, p)
	m.winStart = sinceEpoch()
	m.recs, m.late = w.drive(c, d, phase)
	m.winEnd = sinceEpoch()
	m.after = takeSnap(c, p)
	if p != nil && c.cfg.noThreadControl {
		m.stages = snapStages(c)
	}
	return m
}

// pool joins windows measured on successive set-ups into one: their ops
// and pacer lateness are concatenated, and their measured time (winEnd,
// from a winStart of 0) and CPU (after.cpu, from a before.cpu of 0) add up.
func pool(wins []window) window {
	var p window
	for _, w := range wins {
		p.recs = append(p.recs, w.recs...)
		p.late = append(p.late, w.late...)
		p.winEnd += w.winEnd - w.winStart
		p.after.cpu += w.after.cpu - w.before.cpu
	}
	return p
}

// endToEnd fills the user-visible metrics of a window and returns the
// latency summary.
func endToEnd(m *metricSet, win window) latencies {
	lat := summarize(win.recs)
	done := float64(len(lat.sorted))
	m.set("ops_s", ratio(done, float64(win.winEnd-win.winStart)/1e9), "1/s")
	m.set("p50_us", finite(lat.quantile(0.50)), "us")
	p99, _ := chunkedP99(win.recs)
	m.set("p99_us", finite(p99), "us")
	m.set("cpu_us_per_op", ratio(float64(win.after.cpu-win.before.cpu)/1e3, done), "us")
	return lat
}

// finite maps the +Inf of a quantile that falls on failed ops to the
// largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// validity returns the reasons a window cannot be scored.
func validity(w workload, win window, lat latencies) []string {
	var out []string
	if _, k := chunkedP99(win.recs); lat.beyond(0.99) < minBeyondP99*k {
		out = append(out, fmt.Sprintf("only %d samples beyond p99 over %d chunks (need %d per chunk)", lat.beyond(0.99), k, minBeyondP99))
	}
	if lat.failed > 0 {
		out = append(out, fmt.Sprintf("%d of %d measured ops failed, first: %v", lat.failed, lat.n(), lat.firstErr))
	}
	if w.offered() > 0 && len(win.late) > 0 {
		p50 := lat.quantile(0.50)
		if l := lateQuantileUs(win.late, 0.50); l > lateShareBound*p50 {
			out = append(out, fmt.Sprintf("pacer median lateness %.1fµs exceeds %.0f%% of p50 %.1fµs", l, 100*lateShareBound, p50))
		}
	}
	return out
}

func runUntraced(name string, seed int64, d time.Duration) result {
	var r result
	var (
		setupS, heaps []float64
		wins          []window
		w             workload
	)
	n := newWorkload(name, seed).windows()
	for i := 0; i < setupReps; i++ {
		var (
			c     *cluster
			setup time.Duration
			viol  []string
			err   error
		)
		// The heap the set-up adds, so that the op records of earlier
		// windows, still held for pooling, do not count.
		base := liveHeap()
		w, c, setup, viol, err = setUp(name, seed, nil)
		if err != nil {
			return r.fail(err)
		}
		r.violations = append(r.violations, viol...)
		setupS = append(setupS, setup.Seconds())
		heap, acts := float64(liveHeap())-float64(base), c.activations()
		heaps = append(heaps, ratio(heap, float64(acts)))
		fmt.Fprintf(os.Stderr, "%s: set-up %d took %.3fs, %d activations, %.0f B live heap added\n", name, i+1, setup.Seconds(), acts, heap)
		if i >= setupReps-n {
			win := measure(c, w, d/time.Duration(n), int64(i+1), nil)
			wins = append(wins, win)
			fmt.Fprintf(os.Stderr, "%s: window on set-up %d: %.0f ops/s, p50 %.1fµs, %.1fµs CPU per op\n", name, i+1,
				ratio(float64(len(win.recs)), float64(win.winEnd-win.winStart)/1e9), summarize(win.recs).quantile(0.5),
				ratio(float64(win.after.cpu-win.before.cpu)/1e3, float64(len(win.recs))))
		}
		r.violations = append(r.violations, w.check(c)...)
		c.stop()
	}
	win := pool(wins)

	var m metricSet
	m.set("setup_s", median(setupS), "s")
	lat := endToEnd(&m, win)
	m.set("heap_bytes_per_actor", median(heaps), "B")
	r.violations = append(r.violations, validity(w, win, lat)...)
	if len(win.late) > 0 {
		fmt.Fprintf(os.Stderr, "%s: pacer lateness p50 %.1fµs p99 %.1fµs\n", name, lateQuantileUs(win.late, 0.5), lateQuantileUs(win.late, 0.99))
	}
	_, chunks := chunkedP99(win.recs)
	fmt.Fprintf(os.Stderr, "%s: %d samples, %d beyond the pooled p99, p99 over %d chunks\n",
		name, lat.n(), lat.beyond(0.99), chunks)
	r.Attempted, r.Failed = lat.n(), lat.failed
	r.Correct = len(r.violations) == 0
	r.add("", m)
	return r
}

// runTraced measures an untraced reference window, then a traced one on a
// fresh cluster with the same inputs, and reports the traced window's
// per-layer metrics plus the tracing overhead between the two.
func runTraced(name string, seed int64, d time.Duration) result {
	var r result
	// Untraced reference.
	w, c, _, viol, err := setUp(name, seed, nil)
	if err != nil {
		return r.fail(err)
	}
	r.violations = append(r.violations, viol...)
	runtime.GC()
	ref := measure(c, w, d, 1, nil)
	r.violations = append(r.violations, w.check(c)...)
	c.stop()
	var refM metricSet
	refLat := endToEnd(&refM, ref)

	// Traced run.
	p := &probes{}
	w, c, _, viol, err = setUp(name, seed, p)
	if err != nil {
		return r.fail(err)
	}
	r.violations = append(r.violations, viol...)
	runtime.GC()
	win := measure(c, w, d, 1, p)
	var e2e, m metricSet
	lat := endToEnd(&e2e, win)
	ops := float64(len(lat.sorted))
	perLayer(&m, c, win.before, win.after, ops, time.Duration(win.winEnd-win.winStart), win.stages)
	timeouts := win.after.nestedTimeouts - win.before.nestedTimeouts
	for _, rec := range win.recs {
		if isTimeout(rec.err) {
			timeouts++
		}
	}
	m.set("actor.timeouts", float64(timeouts), "count")

	l := traceLadder(c, w.rootMethod(), win.recs, win.winStart, win.winEnd)
	for _, comp := range trace.Components {
		m.set("trace."+comp+"_us", l.comps[comp], "us")
	}
	m.set("driver.residual_us", l.residual, "us")
	m.set("trace.closure_frac", l.closure(), "ratio")
	m.set("trace.root_spans", float64(l.roots), "count")
	// Closed loops have no schedule: their lateness reads 0.
	m.set("driver.late_p50_us", lateQuantileUs(win.late, 0.50), "us")
	m.set("driver.late_p99_us", lateQuantileUs(win.late, 0.99), "us")
	refP50, refCPU := refM.vals["p50_us"].Value, refM.vals["cpu_us_per_op"].Value
	m.set("trace.overhead_p50_frac", ratio(e2e.vals["p50_us"].Value-refP50, refP50), "ratio")
	m.set("trace.overhead_cpu_frac", ratio(e2e.vals["cpu_us_per_op"].Value-refCPU, refCPU), "ratio")
	r.violations = append(r.violations, w.check(c)...)
	c.stop()

	if math.Abs(l.closure()) > closureBound || l.roots == 0 {
		r.violations = append(r.violations, fmt.Sprintf(
			"trace ladder does not close: %.1fµs driver + spans over %d root spans vs %.1fµs measured (%+.1f%%, bound %.0f%%)",
			l.latency*(1+l.closure()), l.roots, l.latency, 100*l.closure(), 100*closureBound))
	}
	r.violations = append(r.violations, validity(w, win, lat)...)
	r.violations = append(r.violations, validity(w, ref, refLat)...)
	fmt.Fprintf(os.Stderr, "%s: traced p50 %.1fµs cpu %.1fµs/op; untraced p50 %.1fµs cpu %.1fµs/op\n",
		name, e2e.vals["p50_us"].Value, e2e.vals["cpu_us_per_op"].Value, refP50, refCPU)
	r.Attempted, r.Failed = lat.n(), lat.failed
	r.Correct = len(r.violations) == 0
	r.add("", m)
	return r
}
