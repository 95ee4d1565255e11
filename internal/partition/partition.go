// Package partition implements ActOp's locality-aware actor partitioning
// (§4): the balanced graph-partitioning objective, per-vertex transfer
// scores, candidate-set selection, the pairwise coordination protocol
// (Algorithm 1) with its greedy two-heap exchange-subset procedure, and the
// baselines the paper compares against (random/one-sided/Ja-Be-Ja-style/
// centralized multilevel).
//
// The protocol pieces are pure functions over explicit request/response
// values so that the same code drives the discrete-event cluster simulator,
// the real actor runtime, and the unit tests.
package partition

import (
	"sort"

	"actop/internal/graph"
)

// Options configures the partitioning algorithm.
type Options struct {
	// CandidateSetSize is k — the maximum number of vertices offered in one
	// exchange. Bounding k bounds migration churn per round (§4.1).
	CandidateSetSize int
	// ImbalanceTolerance is δ — the allowed difference in vertex population
	// between any two servers (§4.1).
	ImbalanceTolerance int
	// MinScore is the minimum positive transfer score for a vertex to be
	// considered for migration. Slightly above zero avoids ping-ponging
	// vertices with near-zero benefit under a sampled, drifting graph.
	MinScore float64
	// SizeAware enables the §4.2 extension: transfer scores are divided by
	// the actor's size so that cheap-to-move actors migrate first, and the
	// balance constraint is interpreted over total size.
	SizeAware bool
	// Sizes reports an actor's size when SizeAware is set; nil means size 1.
	Sizes func(v graph.Vertex) float64
}

// DefaultOptions mirror the prototype's configuration: small candidate sets,
// a loose-but-bounded balance tolerance.
func DefaultOptions() Options {
	return Options{
		CandidateSetSize:   64,
		ImbalanceTolerance: 16,
		MinScore:           1e-9,
	}
}

func (o Options) size(v graph.Vertex) float64 {
	if !o.SizeAware || o.Sizes == nil {
		return 1
	}
	return o.Sizes(v)
}

// EdgeView exposes the (possibly sampled, possibly stale) communication
// edges known to one server. Both the Space-Saving monitor and the oracle
// full graph implement it.
type EdgeView interface {
	// VertexEdges calls fn with every known edge incident to v.
	VertexEdges(v graph.Vertex, fn func(u graph.Vertex, w float64))
}

// Locator answers which server hosts a vertex. graph.Assignment implements
// it; the runtime's placement directory implements it too.
type Locator interface {
	Server(v graph.Vertex) (graph.ServerID, bool)
}

// Candidate is one vertex offered for migration, with enough of its sampled
// edge list for the receiving server to (re)score it and to run the pairwise
// update steps of the greedy exchange.
type Candidate struct {
	V graph.Vertex
	// Edges is the sampled heavy-edge list incident to V, as known by the
	// offering server.
	Edges map[graph.Vertex]float64
	// HomeWeight is Σ w(V,u) over u currently on the offering server.
	HomeWeight float64
	// TargetWeight is Σ w(V,u) over u on the target server, per the
	// offering server's sample. The receiver recomputes this from its own
	// view when possible.
	TargetWeight float64
	// Size is the actor's size (1 unless Options.SizeAware).
	Size float64
}

// Score is the transfer score R_{p,q}(v) of the candidate: the cost
// reduction expected from migrating V from its home to the target
// (§4.2, "Determining the candidate set").
func (c Candidate) Score() float64 { return c.TargetWeight - c.HomeWeight }

// TransferScore computes R_{p,q}(v) = Σ_{u∈Vq} w(v,u) − Σ_{u∈Vp} w(v,u)
// using view for edges and loc for membership. p is v's home server and q
// the candidate target.
func TransferScore(view EdgeView, loc Locator, v graph.Vertex, p, q graph.ServerID) float64 {
	var toQ, toP float64
	view.VertexEdges(v, func(u graph.Vertex, w float64) {
		s, ok := loc.Server(u)
		if !ok {
			return
		}
		switch s {
		case q:
			toQ += w
		case p:
			toP += w
		}
	})
	return toQ - toP
}

// Proposal is the outcome of candidate selection at server p: the best
// target server and the candidate set S to offer it.
type Proposal struct {
	From, To   graph.ServerID
	Candidates []Candidate
	// TotalScore is the summed transfer score of Candidates — p's
	// anticipated cost reduction (used to rank target servers).
	TotalScore float64
	// FromPopulation is |Vp| at proposal time, so the receiver can evaluate
	// the balance constraint.
	FromPopulation int
}

// targetRank accumulates, per remote server, the best candidates found.
type targetRank struct {
	candidates []Candidate
	total      float64
}

// SelectCandidates scans p's local vertices and computes, for every remote
// server q, the top-k candidate set by transfer score; it returns proposals
// for every server with positive total score, best first. localVertices
// must be the vertices currently homed on p.
func SelectCandidates(opts Options, view EdgeView, loc Locator, p graph.ServerID,
	localVertices []graph.Vertex, population int) []Proposal {

	perTarget := make(map[graph.ServerID]*targetRank)
	var nbrs []graph.Vertex
	for _, v := range localVertices {
		// One pass over v's edges accumulates weight per remote server and
		// the local weight — O(deg(v)) instead of O(n·deg(v)) — in sorted
		// neighbor order, so the same graph gives the same scores, ranking
		// and tie-breaks every run.
		edges := make(map[graph.Vertex]float64)
		view.VertexEdges(v, func(u graph.Vertex, w float64) { edges[u] = w })
		nbrs = sortedNeighbors(edges, nbrs)
		var toHome float64
		toRemote := make(map[graph.ServerID]float64)
		for _, u := range nbrs {
			s, ok := loc.Server(u)
			if !ok {
				continue
			}
			if s == p {
				toHome += edges[u]
			} else {
				toRemote[s] += edges[u]
			}
		}
		for q, toQ := range toRemote {
			score := toQ - toHome
			size := opts.size(v)
			if opts.SizeAware && size > 0 {
				score /= size
			}
			if score <= opts.MinScore {
				continue
			}
			tr := perTarget[q]
			if tr == nil {
				tr = &targetRank{}
				perTarget[q] = tr
			}
			tr.candidates = append(tr.candidates, Candidate{
				V: v, Edges: edges, HomeWeight: toHome, TargetWeight: toQ, Size: size,
			})
		}
	}

	// adjScore is the ranking score: size-normalized when SizeAware.
	adjScore := func(c Candidate) float64 {
		s := c.Score()
		if opts.SizeAware && c.Size > 0 {
			s /= c.Size
		}
		return s
	}
	proposals := make([]Proposal, 0, len(perTarget))
	for q, tr := range perTarget {
		// Keep the k best by score.
		sort.Slice(tr.candidates, func(i, j int) bool {
			si, sj := adjScore(tr.candidates[i]), adjScore(tr.candidates[j])
			if si != sj {
				return si > sj
			}
			return tr.candidates[i].V < tr.candidates[j].V // deterministic tie-break
		})
		if len(tr.candidates) > opts.CandidateSetSize {
			tr.candidates = tr.candidates[:opts.CandidateSetSize]
		}
		tr.total = 0
		for _, c := range tr.candidates {
			tr.total += c.Score()
		}
		proposals = append(proposals, Proposal{
			From: p, To: q, Candidates: tr.candidates,
			TotalScore: tr.total, FromPopulation: population,
		})
	}
	sort.Slice(proposals, func(i, j int) bool {
		if proposals[i].TotalScore != proposals[j].TotalScore {
			return proposals[i].TotalScore > proposals[j].TotalScore
		}
		return proposals[i].To < proposals[j].To
	})
	return proposals
}

// sortedNeighbors returns the keys of edges in ascending order, reusing
// buf. Weight sums over an edge list run in this order: float addition is
// not associative, so summing in map order would make the same graph score
// differently from run to run.
func sortedNeighbors(edges map[graph.Vertex]float64, buf []graph.Vertex) []graph.Vertex {
	buf = buf[:0]
	for u := range edges {
		buf = append(buf, u)
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf
}

// GraphView adapts a full *graph.Graph to the EdgeView interface — the
// oracle view used by tests and by the centralized baselines.
type GraphView struct{ G *graph.Graph }

// VertexEdges implements EdgeView.
func (gv GraphView) VertexEdges(v graph.Vertex, fn func(u graph.Vertex, w float64)) {
	gv.G.Neighbors(v, fn)
}
