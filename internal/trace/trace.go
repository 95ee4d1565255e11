// Package trace implements the runtime's end-to-end latency decomposition:
// per-call spans whose components attribute wall time to serialization, the
// SEDA stage queues, execution, and the network (the paper's Fig. 4 view,
// measured on a live cluster instead of the simulator).
//
// The capture path is built not to perturb the hot path: sampling is decided
// once at the root call, unsampled calls carry no trace state at all, and
// completed spans land in a fixed-size lock-free ring (Ring) that readers
// snapshot without stopping writers.
//
// Goroutine safety: Ring and Sampler are safe for concurrent use. A Span is
// built single-threaded along its call path and must be treated as immutable
// once handed to Ring.Put.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"actop/internal/metrics"
)

// Span is one traced hop of a call tree. A remote invocation produces two
// spans sharing a SpanID: the caller's "client" span (total round trip plus
// the caller-side and residual components) and the callee's "server" span
// (the callee-side stage components). Local calls produce a single "local"
// span. ParentID links nested actor→actor calls to the server span of the
// call that issued them.
type Span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`

	Node   string `json:"node"`
	Kind   string `json:"kind"` // "client", "server", or "local"
	Actor  string `json:"actor"`
	Method string `json:"method"`

	Start time.Time     `json:"start"`
	Total time.Duration `json:"total_ns"`

	// Latency components (the decomposition). On a client span every field
	// can be set: callee-side components arrive in the reply's hop-timing
	// record and Network is the residual (wire both ways plus framing). A
	// server span carries only the callee-side four.
	Serialize time.Duration `json:"serialize_ns,omitempty"`  // arg marshal + reply unmarshal (caller)
	SendQueue time.Duration `json:"send_queue_ns,omitempty"` // caller time in Transport.Send, handing the call to the peer writer
	Network   time.Duration `json:"network_ns,omitempty"`    // residual: wire + framing, both directions
	RecvQueue time.Duration `json:"recv_queue_ns,omitempty"` // callee receive-pool wait; 0 when delivered inline on the read loop
	WorkQueue time.Duration `json:"work_queue_ns,omitempty"` // callee activation mailbox wait
	Exec      time.Duration `json:"exec_ns,omitempty"`       // callee turn execution
	ReplySend time.Duration `json:"reply_send_ns,omitempty"` // callee time in Transport.Send for the reply

	// Annotations from the fault-tolerance machinery (PR 3).
	Retries   uint32 `json:"retries,omitempty"`
	Redirects uint32 `json:"redirects,omitempty"`
	DedupHit  bool   `json:"dedup_hit,omitempty"`
	Snapshot  bool   `json:"snapshot,omitempty"` // turn triggered a durable snapshot capture
	Epoch     uint64 `json:"epoch,omitempty"`    // callee activation's migration epoch
	Err       string `json:"err,omitempty"`
}

// Components, in decomposition display order.
var Components = []string{
	"serialize", "send_queue", "network", "recv_queue", "work_queue", "exec", "reply_send",
}

// Component returns the named component's duration.
func (s *Span) Component(name string) time.Duration {
	switch name {
	case "serialize":
		return s.Serialize
	case "send_queue":
		return s.SendQueue
	case "network":
		return s.Network
	case "recv_queue":
		return s.RecvQueue
	case "work_queue":
		return s.WorkQueue
	case "exec":
		return s.Exec
	case "reply_send":
		return s.ReplySend
	}
	return 0
}

// ComponentSum is the sum of all components — on a client span it should
// match Total to within measurement noise (Network is computed as the
// residual, so any mismatch is clamping of a negative residual).
func (s *Span) ComponentSum() time.Duration {
	var sum time.Duration
	for _, c := range Components {
		sum += s.Component(c)
	}
	return sum
}

// --- call-tree assembly ---

// TreeNode is one call of an assembled cross-node call tree: the client and
// server views of a span id (either may be missing when its node's ring has
// wrapped or its spans were not collected) plus the calls it issued.
type TreeNode struct {
	SpanID   uint64      `json:"span_id"`
	Client   *Span       `json:"client,omitempty"`
	Server   *Span       `json:"server,omitempty"`
	Children []*TreeNode `json:"children,omitempty"`
}

// Assemble builds call trees from a bag of spans (any order, any mix of
// traces): client/server spans pair up by SpanID and children attach to
// their ParentID's node. Roots (ParentID 0 or unknown) are returned sorted
// by start time.
func Assemble(spans []Span) []*TreeNode {
	nodes := make(map[uint64]*TreeNode)
	node := func(id uint64) *TreeNode {
		n, ok := nodes[id]
		if !ok {
			n = &TreeNode{SpanID: id}
			nodes[id] = n
		}
		return n
	}
	for i := range spans {
		sp := spans[i]
		n := node(sp.SpanID)
		switch sp.Kind {
		case "server":
			if n.Server == nil {
				n.Server = &sp
			}
		default: // client and local spans are the caller's view
			if n.Client == nil {
				n.Client = &sp
			}
		}
	}
	var roots []*TreeNode
	for _, n := range nodes {
		parent := uint64(0)
		if n.Client != nil {
			parent = n.Client.ParentID
		} else if n.Server != nil {
			parent = n.Server.ParentID
		}
		if p, ok := nodes[parent]; ok && parent != 0 && parent != n.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	start := func(n *TreeNode) time.Time {
		if n.Client != nil {
			return n.Client.Start
		}
		if n.Server != nil {
			return n.Server.Start
		}
		return time.Time{}
	}
	sort.Slice(roots, func(i, j int) bool { return start(roots[i]).Before(start(roots[j])) })
	for _, n := range nodes {
		children := n.Children
		sort.Slice(children, func(i, j int) bool { return start(children[i]).Before(start(children[j])) })
	}
	return roots
}

// --- aggregate decomposition ---

// Decomposition aggregates spans into per-component latency distributions —
// the paper's figure-style breakdown table, computed from live spans.
type Decomposition struct {
	hists map[string]*metrics.Histogram
	total metrics.Histogram
	sum   metrics.Histogram // per-span component sums, for the closure check
	n     int
}

// Decompose aggregates the given spans (callers usually filter to one Kind
// first — client spans for the end-to-end view).
func Decompose(spans []Span) *Decomposition {
	d := &Decomposition{hists: make(map[string]*metrics.Histogram, len(Components))}
	for _, c := range Components {
		d.hists[c] = &metrics.Histogram{}
	}
	for i := range spans {
		sp := &spans[i]
		d.n++
		d.total.Record(sp.Total)
		d.sum.Record(sp.ComponentSum())
		for _, c := range Components {
			d.hists[c].Record(sp.Component(c))
		}
	}
	return d
}

// Count reports the number of spans aggregated.
func (d *Decomposition) Count() int { return d.n }

// Total reports the distribution of span totals.
func (d *Decomposition) Total() *metrics.Histogram { return &d.total }

// ComponentHistogram returns the named component's distribution.
func (d *Decomposition) ComponentHistogram(name string) *metrics.Histogram { return d.hists[name] }

// SumMean reports the mean per-span component sum — compare against
// Total().Mean() to verify the decomposition closes.
func (d *Decomposition) SumMean() time.Duration { return d.sum.Mean() }

// Table renders the decomposition as an aligned component table: median and
// p99 per component plus each component's share of the summed mean.
func (d *Decomposition) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %7s\n", "component", "p50", "p99", "mean", "share")
	var meanSum float64
	for _, c := range Components {
		meanSum += float64(d.hists[c].Mean())
	}
	for _, c := range Components {
		h := d.hists[c]
		share := 0.0
		if meanSum > 0 {
			share = 100 * float64(h.Mean()) / meanSum
		}
		fmt.Fprintf(&b, "%-12s %12s %12s %12s %6.1f%%\n",
			c, round(h.Quantile(0.5)), round(h.Quantile(0.99)), round(h.Mean()), share)
	}
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %7s\n",
		"total", round(d.total.Quantile(0.5)), round(d.total.Quantile(0.99)), round(d.total.Mean()), "")
	fmt.Fprintf(&b, "component sum / total (mean): %s / %s (%.1f%%)\n",
		round(d.sum.Mean()), round(d.total.Mean()), 100*closure(d.sum.Mean(), d.total.Mean()))
	return b.String()
}

func closure(sum, total time.Duration) float64 {
	if total == 0 {
		return 0
	}
	return float64(sum) / float64(total)
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond)
	}
	return d
}
