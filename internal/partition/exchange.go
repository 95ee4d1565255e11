package partition

import (
	"container/heap"

	"actop/internal/graph"
)

// ExchangeRequest is the message server p sends to server q to initiate the
// pairwise coordination protocol (Algorithm 1, step 1).
type ExchangeRequest struct {
	From, To graph.ServerID
	// Candidates is the set S of actors p offers to q.
	Candidates []Candidate
	// FromPopulation is |Vp| when the request was formed.
	FromPopulation int
}

// ExchangeResponse is q's decision (Algorithm 1, steps 2–4).
type ExchangeResponse struct {
	// Rejected is set when q refused the whole exchange (it exchanged too
	// recently, Algorithm 1's cooldown).
	Rejected bool
	// Accepted is S0 ⊆ S: the offered actors q agrees to host.
	Accepted []graph.Vertex
	// Counter is T0: q's own actors to be transferred to p.
	Counter []graph.Vertex
}

// scoredVertex is a heap element of the greedy exchange-subset procedure.
type scoredVertex struct {
	cand  Candidate
	score float64
	index int
}

type scoreHeap []*scoredVertex

func (h scoreHeap) Len() int           { return len(h) }
func (h scoreHeap) Less(i, j int) bool { return h[i].score > h[j].score } // max-heap
func (h scoreHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *scoreHeap) Push(x interface{}) {
	sv := x.(*scoredVertex)
	sv.index = len(*h)
	*h = append(*h, sv)
}
func (h *scoreHeap) Pop() interface{} {
	old := *h
	n := len(old)
	sv := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return sv
}

// DecideExchange runs steps 2–3 of Algorithm 1 at the receiving server q:
// it forms q's own candidate set T toward p, then jointly determines the
// accepted subset S0 ⊆ S and the counter-subset T0 ⊆ T with the iterative
// greedy two-heap procedure, honoring the balance constraint
// ||Vp| − |Vq|| ≤ δ after every individual move.
//
// view/loc are q's local edge sample and membership knowledge;
// qVertices are the vertices currently homed on q; qPopulation is |Vq|.
func DecideExchange(opts Options, view EdgeView, loc Locator,
	req ExchangeRequest, qVertices []graph.Vertex, qPopulation int) ExchangeResponse {

	p, q := req.From, req.To

	// Step 2: q determines its own candidate set T toward p, ignoring (for
	// now) the consequences of accepting S.
	var tCands []Candidate
	for _, prop := range SelectCandidates(opts, view, loc, q, qVertices, qPopulation) {
		if prop.To == p {
			tCands = prop.Candidates
			break
		}
	}

	// Re-score S with q's own knowledge: q recomputes the weight to Vq from
	// its own view of membership (the offer's TargetWeight may be stale or
	// built from a partial sample). The weight internal to p is only known
	// to p, so the carried HomeWeight is used as-is.
	sHeap := &scoreHeap{}
	var nbrs []graph.Vertex
	for _, c := range req.Candidates {
		var toQ float64
		nbrs = sortedNeighbors(c.Edges, nbrs)
		for _, u := range nbrs {
			if s, ok := loc.Server(u); ok && s == q {
				toQ += c.Edges[u]
			}
		}
		c.TargetWeight = toQ
		score := c.Score()
		if opts.SizeAware && c.Size > 0 {
			score /= c.Size
		}
		heap.Push(sHeap, &scoredVertex{cand: c, score: score})
	}
	tHeap := &scoreHeap{}
	for _, c := range tCands {
		score := c.Score()
		if opts.SizeAware && c.Size > 0 {
			score /= c.Size
		}
		heap.Push(tHeap, &scoredVertex{cand: c, score: score})
	}

	// Step 3: iterative greedy selection. Accepting s∈S moves a vertex
	// p→q; accepting t∈T moves a vertex q→p. After each selection the
	// remaining scores are updated to reflect the migration:
	//   same-direction peers of a moved vertex gain 2·w(peer,v)
	//   opposite-direction peers lose 2·w(peer,v).
	sizeP := float64(req.FromPopulation)
	sizeQ := float64(qPopulation)
	if opts.SizeAware {
		// Interpret populations as total size; callers pass size-weighted
		// populations in that mode.
		sizeP = float64(req.FromPopulation)
		sizeQ = float64(qPopulation)
	}
	delta := float64(opts.ImbalanceTolerance)

	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	// A move is admissible if it keeps |sizeP−sizeQ| ≤ δ, or strictly
	// reduces an imbalance that already exceeds δ.
	admissible := func(newP, newQ float64) bool {
		newDiff := abs(newP - newQ)
		return newDiff <= delta || newDiff < abs(sizeP-sizeQ)
	}

	var resp ExchangeResponse
	accepted := make(map[graph.Vertex]bool)
	countered := make(map[graph.Vertex]bool)

	// update adjusts remaining heap scores after vertex v migrated.
	// sameDir is the heap whose candidates move in the same direction as v.
	update := func(sameDir, oppDir *scoreHeap, v graph.Vertex) {
		for _, sv := range *sameDir {
			if w, ok := edgeWeight(sv.cand, v); ok {
				sv.score += 2 * w / sizeOr1(opts, sv.cand)
			}
		}
		for _, sv := range *oppDir {
			if w, ok := edgeWeight(sv.cand, v); ok {
				sv.score -= 2 * w / sizeOr1(opts, sv.cand)
			}
		}
		heap.Init(sameDir)
		heap.Init(oppDir)
	}

	for sHeap.Len() > 0 || tHeap.Len() > 0 {
		// Pick the highest-scoring vertex across both heaps.
		var fromS bool
		switch {
		case sHeap.Len() == 0:
			fromS = false
		case tHeap.Len() == 0:
			fromS = true
		default:
			fromS = (*sHeap)[0].score >= (*tHeap)[0].score
		}

		var top *scoredVertex
		if fromS {
			top = (*sHeap)[0]
		} else {
			top = (*tHeap)[0]
		}
		if top.score <= opts.MinScore {
			// The best remaining move no longer reduces cost; since scores
			// of remaining vertices only change when a selection happens,
			// nothing below the top can be selected either — check the
			// other heap before giving up.
			var other *scoredVertex
			if fromS && tHeap.Len() > 0 {
				other = (*tHeap)[0]
			} else if !fromS && sHeap.Len() > 0 {
				other = (*sHeap)[0]
			}
			if other == nil || other.score <= opts.MinScore {
				break
			}
			fromS = !fromS
			top = other
		}

		sz := top.cand.Size
		if sz == 0 {
			sz = 1
		}
		var newP, newQ float64
		if fromS {
			newP, newQ = sizeP-sz, sizeQ+sz
		} else {
			newP, newQ = sizeP+sz, sizeQ-sz
		}
		if !admissible(newP, newQ) {
			// Balance would break: take the best vertex from the other
			// heap instead (its move shifts the balance the other way).
			otherHeap := tHeap
			if !fromS {
				otherHeap = sHeap
			}
			if otherHeap.Len() == 0 || (*otherHeap)[0].score <= opts.MinScore {
				break // nothing movable remains
			}
			fromS = !fromS
			top = (*otherHeap)[0]
			sz = top.cand.Size
			if sz == 0 {
				sz = 1
			}
			if fromS {
				newP, newQ = sizeP-sz, sizeQ+sz
			} else {
				newP, newQ = sizeP+sz, sizeQ-sz
			}
			if !admissible(newP, newQ) {
				break
			}
		}

		// Commit the move.
		sizeP, sizeQ = newP, newQ
		if fromS {
			heap.Pop(sHeap)
			accepted[top.cand.V] = true
			resp.Accepted = append(resp.Accepted, top.cand.V)
			update(sHeap, tHeap, top.cand.V)
		} else {
			heap.Pop(tHeap)
			countered[top.cand.V] = true
			resp.Counter = append(resp.Counter, top.cand.V)
			update(tHeap, sHeap, top.cand.V)
		}
	}
	return resp
}

// edgeWeight looks up w(c.V, v) in the candidate's carried edge list.
func edgeWeight(c Candidate, v graph.Vertex) (float64, bool) {
	w, ok := c.Edges[v]
	return w, ok
}

func sizeOr1(opts Options, c Candidate) float64 {
	if !opts.SizeAware || c.Size <= 0 {
		return 1
	}
	return c.Size
}
