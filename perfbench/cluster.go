package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"actop/internal/actor"
	"actop/internal/core"
	"actop/internal/metrics"
	"actop/internal/transport"
)

const nodes = 3

// clusterConfig is where a workload departs from what actopd ships
// (actor.Config defaults, TraceSampleRate 0.01, hot-spot profiler on, a
// core.Optimizer with DefaultOptions attached). Zero values keep the
// shipped setting; README.md gives the reason for each departure.
type clusterConfig struct {
	workers          int           // actor.Config.Workers
	noThreadControl  bool          // actor.Config.DisableThreadControl
	partitionPeriod  time.Duration // core.Options.PartitionPeriod
	exchangeCooldown time.Duration // both sides' exchange reject windows
	durableReplicas  int           // actor.Config.DurableReplicas
	noPartitioning   bool          // core.Options.Partitioning off
}

// cluster is three actor.System nodes in this process, linked only by
// their loopback-TCP peer connections.
type cluster struct {
	systems []*actor.System
	opts    []*core.Optimizer
	regs    []*metrics.Registry
	taps    []*tap // traced runs only
	cfg     clusterConfig
}

// startCluster brings up the nodes, registers the workload's actor types
// on each, and attaches and starts an optimizer per node. traced switches
// on the runtime's spans for every root call and the transport tap.
func startCluster(cfg clusterConfig, seed int64, traced bool, register func(*actor.System)) (*cluster, error) {
	c := &cluster{cfg: cfg}
	trs := make([]transport.Transport, nodes)
	peers := make([]transport.NodeID, nodes)
	for i := range trs {
		tr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			for _, t := range trs[:i] {
				t.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		trs[i], peers[i] = tr, tr.Node()
		if traced {
			tp := &tap{Transport: tr}
			c.taps = append(c.taps, tp)
			trs[i] = tp
		}
	}
	for i := range trs {
		ac := actor.Config{
			Transport:            trs[i],
			Peers:                peers,
			Workers:              cfg.workers,
			DisableThreadControl: cfg.noThreadControl,
			ExchangeRejectWindow: cfg.exchangeCooldown,
			DurableReplicas:      cfg.durableReplicas,
			TraceSampleRate:      0.01,
			Seed:                 seed*31 + int64(i),
		}
		if traced {
			ac.TraceSampleRate = 1
			ac.TraceRingSize = 1 << 16
		}
		reg := metrics.NewRegistry()
		ac.Metrics = reg
		sys, err := actor.NewSystem(ac)
		if err != nil {
			c.stop()
			for _, t := range trs[i:] {
				t.Close()
			}
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		register(sys)
		c.systems = append(c.systems, sys)
		c.regs = append(c.regs, reg)
	}
	for i, sys := range c.systems {
		o := core.DefaultOptions()
		o.Metrics = c.regs[i]
		o.Flight = sys.FlightRecorder()
		o.Partitioning = !cfg.noPartitioning
		if cfg.partitionPeriod > 0 {
			o.PartitionPeriod = cfg.partitionPeriod
		}
		if cfg.exchangeCooldown > 0 {
			o.RejectWindow = cfg.exchangeCooldown
		}
		opt := core.NewOptimizer(sys, o)
		opt.Start()
		c.opts = append(c.opts, opt)
	}
	return c, nil
}

func (c *cluster) stop() {
	for _, o := range c.opts {
		o.Stop()
	}
	var wg sync.WaitGroup
	for _, s := range c.systems {
		wg.Add(1)
		go func(s *actor.System) {
			defer wg.Done()
			s.Stop()
		}(s)
	}
	wg.Wait()
}

// activations is the cluster's live activation count.
func (c *cluster) activations() int {
	n := 0
	for _, s := range c.systems {
		n += s.Stats().Activations
	}
	return n
}

// gauge reads one series of a node's registry from its text exposition,
// e.g. gauge(0, `actop_stage_workers{stage="worker"}`). ok is false when
// the series has not been published yet.
func (c *cluster) gauge(node int, series string) (float64, bool) {
	var buf bytes.Buffer
	c.regs[node].Write(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// parallel runs fn(0..n-1) on up to width goroutines and returns the first
// error.
func parallel(n, width int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}
