package routing

import (
	"fmt"
	"slices"

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
// on. It is a precondition of the planner: plan.Optimize and
// plan.Reoptimize return an error naming the router, the edge and the
// source when independently solved edges would send raw a value that was
// aggregated upstream. Every router here passes that check. SharedTree
// and MinDegreeTree route inside one tree. ReversePath's next hop from x
// toward d is the smallest-ID neighbour one hop closer to d, and when a
// route to d passes x and then m, every neighbour of x one hop closer to
// m is one hop closer to d. Two routes through x and then m therefore
// take the same next hop, and by induction share their x→m path.
// WeightedReversePath repeats that argument over exact weighted distances,
// and MilestoneRouter keeps a pure function of the inner router's path.
// SourceSPT routes each source inside its own shortest-path tree, so its
// per-source structures are trees by construction. Its smallest-ID BFS
// parents give the per-destination side as well. Say the route from s to
// d passes m, and v follows m on it. v's predecessor u is the smallest-ID
// neighbour of v one hop closer to s. Every neighbour one hop closer to m
// is one hop closer to s too, and u, whose chain reaches m, is one of
// them; so u is the smallest-ID neighbour one hop closer to m, and the
// m→d segment does not depend on s.
type Router interface {
	// Name identifies the routing strategy.
	Name() string
	// Path returns the canonical node sequence from s to d, both inclusive.
	// For s == d it returns [s].
	Path(s, d graph.NodeID) ([]graph.NodeID, error)
}

// Forker is implemented by routers that can route on several goroutines
// at once. Fork returns a router with the same name and paths that is
// safe to use concurrently with the receiver and with every other fork:
// a router without mutable state returns itself, one with caches a copy
// with caches of its own. It returns nil when no such router exists (a
// wrapper around a router that cannot fork).
type Forker interface {
	Fork() Router
}

// Fork returns r's fork (see Forker), or nil if r routes on one goroutine
// only.
func Fork(r Router) Router {
	if f, ok := r.(Forker); ok {
		return f.Fork()
	}
	return nil
}

// Fork implements Forker: a shared tree is never modified after it is
// built.
func (b *SharedTree) Fork() Router { return b }

// Path implements Router for SharedTree: the unique path inside the global
// spanning tree.
func (b *SharedTree) Path(s, d graph.NodeID) ([]graph.NodeID, error) {
	return b.treePath(s, d)
}

// ReversePath routes every pair along the destination-rooted hop-count
// shortest-path tree (deterministic smallest-ID tiebreaks), the way
// TAG-style collection trees route toward a sink. Paths to the same
// destination converge and never diverge (suffix property by
// construction). Paths from one source to different destinations may
// branch but do not re-join: a path that passes node m reaches it along
// the hop-count shortest path whose every hop is the smallest-ID
// neighbour one hop closer to m, whatever the destination, so the
// per-source multicast structure is a tree.
//
// The current destination's tree is a resumable graph.Walk, grown only as
// far out as the sources routed so far; routing toward another
// destination resets the same walk, so the router holds one walk's
// storage however many destinations it serves. Callers that route
// destination by destination (as NewInstance does) walk each tree once.
// A ReversePath is not safe for concurrent use; each goroutine routes
// with a Fork of its own.
type ReversePath struct {
	net  *graph.Undirected
	walk *graph.Walk // rooted at the last destination routed; nil before the first
}

// NewReversePath returns a ReversePath router over net.
func NewReversePath(net *graph.Undirected) *ReversePath {
	return &ReversePath{net: net}
}

// Name implements Router.
func (r *ReversePath) Name() string { return "reverse-path" }

// Fork implements Forker: the fork walks trees of its own.
func (r *ReversePath) Fork() Router { return NewReversePath(r.net) }

// Path implements Router.
func (r *ReversePath) Path(s, d graph.NodeID) ([]graph.NodeID, error) {
	if int(s) < 0 || int(s) >= r.net.Len() || int(d) < 0 || int(d) >= r.net.Len() {
		return nil, fmt.Errorf("routing: node out of range in pair %d→%d", s, d)
	}
	switch {
	case r.walk == nil:
		r.walk = r.net.Walk(d)
	case r.walk.Root() != d:
		r.walk.Reset(d)
	}
	w := r.walk
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
//
// Path sharing holds as for ReversePath. Let m lie on x's route toward d.
// x's parent p toward d is its smallest-ID neighbour on a shortest x→d
// path, and p also lies on a shortest x→m path. Every neighbour of x on
// a shortest x→m path is one on a shortest x→d path too, since m is on
// one. So p is the smallest-ID shortest-path neighbour of x toward m,
// whatever d is, and routes through x and then m share their x→m path.
// The argument compares path sums for equality, so it needs them exact:
// they are, because evacuation weights are 1 or the integer penalty
// (failure.EvacuationGraph), and sums of small integers are exact in
// float64.
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

// Fork implements Forker: the fork caches trees of its own.
func (r *WeightedReversePath) Fork() Router { return NewWeightedReversePath(r.net) }

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
	// The tree is rooted at d, so its root→s path reversed is s→d.
	path, err := t.PathTo(s)
	if err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	slices.Reverse(path)
	return path, nil
}

// SourceSPT routes every pair inside the shortest-path tree rooted at the
// pair's SOURCE — the paper's literal "multicast tree from each source"
// construction. Per-source structures are genuine trees, and with
// smallest-ID BFS parents two pairs toward the same destination never
// diverge after meeting (see Router), so the per-destination suffix
// property the planner requires holds. NewInstance still checks it, as
// for every router; no violation has been observed on 25,000 random
// graphs with all-pairs workloads or on the shipped workloads (see
// DESIGN.md §6).
//
// Its tree cache is keyed by source, so one tree serves every
// destination; it has no Fork, and NewInstance routes it on one
// goroutine.
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
	if !t.Reachable(d) {
		return nil, fmt.Errorf("routing: %d unreachable from %d", d, s)
	}
	p, err := t.PathTo(d)
	if err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	return p, nil
}

// SuffixChecker verifies the per-destination suffix property path by
// path, over dense node-indexed storage: next[m] is m's successor on the
// (unique, if consistent) way to the current destination, valid only
// where stamp[m] carries the current epoch, so starting a destination
// clears nothing.
type SuffixChecker struct {
	dest  graph.NodeID
	next  []graph.NodeID
	stamp []uint32
	epoch uint32
}

// NewSuffixChecker returns a checker for paths over nodes 0..n-1.
func NewSuffixChecker(n int) *SuffixChecker {
	return &SuffixChecker{next: make([]graph.NodeID, n), stamp: make([]uint32, n)}
}

// Begin starts checking the paths toward d, forgetting earlier ones.
func (c *SuffixChecker) Begin(d graph.NodeID) {
	c.dest = d
	if c.epoch++; c.epoch == 0 { // wrap: invalidate every stamp once
		clear(c.stamp)
		c.epoch = 1
	}
}

// Add checks p against every path added since Begin and returns the
// first violation it finds, or nil.
func (c *SuffixChecker) Add(p []graph.NodeID) error {
	if len(p) == 0 || p[len(p)-1] != c.dest {
		return fmt.Errorf("routing: path %v does not end at destination %d", p, c.dest)
	}
	for _, v := range p {
		if int(v) < 0 || int(v) >= len(c.next) {
			return fmt.Errorf("routing: path %v leaves the network at node %d", p, v)
		}
	}
	for i := 0; i+1 < len(p); i++ {
		m := p[i]
		if c.stamp[m] == c.epoch && c.next[m] != p[i+1] {
			return fmt.Errorf("routing: suffix property violated at node %d toward %d: %d vs %d",
				m, c.dest, c.next[m], p[i+1])
		}
		c.stamp[m], c.next[m] = c.epoch, p[i+1]
	}
	return nil
}
