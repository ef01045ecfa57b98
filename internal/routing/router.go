package routing

import (
	"fmt"

	"m2m/internal/graph"
)

// Router supplies the canonical route for every source→destination pair.
// The planner requires the per-destination suffix property: if the paths
// of (s1, d) and (s2, d) both visit node m, their m→d suffixes must be
// identical. This guarantees each destination's aggregation structure is a
// tree — a partial aggregate record never has to split across branches —
// which is what lets independently solved per-edge covers execute together.
//
// The paper's stronger path-sharing restriction (identical i→j paths across
// ALL trees, Section 2.1) additionally makes every per-source multicast
// structure a tree and is what Theorem 1's zero-conflict guarantee rests
// on. SharedTree satisfies it; ReversePath satisfies only the suffix
// property, so the planner may need (counted) repairs.
type Router interface {
	// Name identifies the routing strategy.
	Name() string
	// Path returns the canonical node sequence from s to d, both inclusive.
	// For s == d it returns [s].
	Path(s, d graph.NodeID) ([]graph.NodeID, error)
}

// Path implements Router for SharedTree: the unique path inside the global
// spanning tree.
func (b *SharedTree) Path(s, d graph.NodeID) ([]graph.NodeID, error) {
	p := b.treePath(s, d)
	if p == nil {
		return nil, fmt.Errorf("routing: no tree path %d→%d", s, d)
	}
	return p, nil
}

// ReversePath routes every pair along the destination-rooted hop-count
// shortest-path tree (deterministic smallest-ID tiebreaks), the way
// TAG-style collection trees route toward a sink. Paths to the same
// destination converge and never diverge (suffix property by
// construction); paths from one source to different destinations may
// branch and re-join, so the per-source multicast structure is a DAG
// rather than a strict tree. Each destination's tree is a resumable
// graph.Walk, grown only as far out as the sources routed so far.
type ReversePath struct {
	net   *graph.Undirected
	walks map[graph.NodeID]*graph.Walk
}

// NewReversePath returns a ReversePath router over net.
func NewReversePath(net *graph.Undirected) *ReversePath {
	return &ReversePath{net: net, walks: make(map[graph.NodeID]*graph.Walk)}
}

// Name implements Router.
func (r *ReversePath) Name() string { return "reverse-path" }

// Path implements Router.
func (r *ReversePath) Path(s, d graph.NodeID) ([]graph.NodeID, error) {
	if int(s) < 0 || int(s) >= r.net.Len() || int(d) < 0 || int(d) >= r.net.Len() {
		return nil, fmt.Errorf("routing: node out of range in pair %d→%d", s, d)
	}
	w, ok := r.walks[d]
	if !ok {
		w = r.net.Walk(d)
		r.walks[d] = w
	}
	h := w.Hops(s)
	if h < 0 {
		return nil, fmt.Errorf("routing: %d unreachable from %d", d, s)
	}
	// The walk is rooted at d; climbing parents from s yields the
	// canonical s→d path directly.
	path := make([]graph.NodeID, 1, h+1)
	path[0] = s
	for v := s; v != d; {
		v = w.Parent(v)
		path = append(path, v)
	}
	return path, nil
}

// WeightedReversePath is ReversePath under the graph's edge weights:
// every pair routes along the destination-rooted Dijkstra tree
// (deterministic smallest-ID tiebreaks), so paths converge toward each
// destination and the suffix property holds by construction, exactly as
// for ReversePath. Sessions use it with an evacuation graph whose
// penalized edge weights steer traffic around energy-hot relays; on a
// uniformly weighted graph it picks the same parents as ReversePath
// (Dijkstra and BFS share the smallest-ID tiebreak), so plans degrade to
// the unweighted ones when nothing is penalized.
type WeightedReversePath struct {
	net   *graph.Undirected
	trees map[graph.NodeID]*graph.PathTree
}

// NewWeightedReversePath returns a WeightedReversePath router over net.
func NewWeightedReversePath(net *graph.Undirected) *WeightedReversePath {
	return &WeightedReversePath{net: net, trees: make(map[graph.NodeID]*graph.PathTree)}
}

// Name implements Router.
func (r *WeightedReversePath) Name() string { return "weighted-reverse-path" }

// Path implements Router.
func (r *WeightedReversePath) Path(s, d graph.NodeID) ([]graph.NodeID, error) {
	if int(s) < 0 || int(s) >= r.net.Len() || int(d) < 0 || int(d) >= r.net.Len() {
		return nil, fmt.Errorf("routing: node out of range in pair %d→%d", s, d)
	}
	t, ok := r.trees[d]
	if !ok {
		t = r.net.Dijkstra(d)
		r.trees[d] = t
	}
	if !t.Reachable(s) {
		return nil, fmt.Errorf("routing: %d unreachable from %d", d, s)
	}
	path := []graph.NodeID{s}
	for v := s; v != d; {
		v = t.Parent[v]
		path = append(path, v)
	}
	return path, nil
}

// SourceSPT routes every pair inside the shortest-path tree rooted at the
// pair's SOURCE — the paper's literal "multicast tree from each source"
// construction. Per-source structures are genuine trees, but paths of two
// pairs toward the same destination may diverge after meeting, violating
// the per-destination suffix property the planner requires; NewInstance
// then rejects the router with a diagnostic. It exists to demonstrate and
// measure that hazard (see DESIGN.md §6); use ReversePath or SharedTree
// for planning.
type SourceSPT struct {
	net   *graph.Undirected
	trees map[graph.NodeID]*graph.PathTree
}

// NewSourceSPT returns a SourceSPT router over net.
func NewSourceSPT(net *graph.Undirected) *SourceSPT {
	return &SourceSPT{net: net, trees: make(map[graph.NodeID]*graph.PathTree)}
}

// Name implements Router.
func (r *SourceSPT) Name() string { return "source-spt" }

// Path implements Router.
func (r *SourceSPT) Path(s, d graph.NodeID) ([]graph.NodeID, error) {
	if int(s) < 0 || int(s) >= r.net.Len() || int(d) < 0 || int(d) >= r.net.Len() {
		return nil, fmt.Errorf("routing: node out of range in pair %d→%d", s, d)
	}
	t, ok := r.trees[s]
	if !ok {
		t = r.net.BFS(s)
		r.trees[s] = t
	}
	p := t.PathTo(d)
	if p == nil {
		return nil, fmt.Errorf("routing: %d unreachable from %d", d, s)
	}
	return p, nil
}

// CheckSuffixProperty verifies the per-destination suffix property over a
// set of canonical paths grouped by destination. It returns the first
// violation found, or nil.
func CheckSuffixProperty(pathsByDest map[graph.NodeID][][]graph.NodeID) error {
	for d, paths := range pathsByDest {
		// next[m] is the successor of m on the (unique, if consistent) way
		// to d.
		next := make(map[graph.NodeID]graph.NodeID)
		for _, p := range paths {
			if len(p) == 0 || p[len(p)-1] != d {
				return fmt.Errorf("routing: path %v does not end at destination %d", p, d)
			}
			for i := 0; i+1 < len(p); i++ {
				if prev, ok := next[p[i]]; ok && prev != p[i+1] {
					return fmt.Errorf("routing: suffix property violated at node %d toward %d: %d vs %d",
						p[i], d, prev, p[i+1])
				}
				next[p[i]] = p[i+1]
			}
		}
	}
	return nil
}
