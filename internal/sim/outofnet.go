package sim

import (
	"fmt"
	"sort"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/radio"
	"m2m/internal/routing"
)

// OutOfNetworkResult reports one round of base-station-mediated control.
type OutOfNetworkResult struct {
	// Values holds every destination's aggregate, computed at the base.
	Values map[graph.NodeID]float64
	// EnergyJ is the round's total radio energy.
	EnergyJ float64
	// Messages counts physical messages (one per edge carrying units,
	// upstream and downstream combined).
	Messages int
	// PerNodeJ attributes energy per node; the nodes adjacent to the base
	// show the bottleneck the paper's introduction warns about.
	PerNodeJ map[graph.NodeID]float64
	// UpHops and DownHops are the total edge crossings toward and from
	// the base.
	UpHops, DownHops int
}

// OutOfNetwork executes the paper's strawman from the introduction: every
// source sends its raw reading to the base station, which evaluates all
// aggregation functions and unicasts each result back to its destination.
// Raw values travelling to the base share edges (one copy per edge) and
// messages are merged per edge, giving the approach its best case; the
// structural penalty — every byte crossing the neighborhood of the base,
// twice — remains.
func OutOfNetwork(net *graph.Undirected, specs []agg.Spec, model radio.Model, base graph.NodeID, readings map[graph.NodeID]float64) (*OutOfNetworkResult, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if int(base) < 0 || int(base) >= net.Len() {
		return nil, fmt.Errorf("sim: base station %d out of range", base)
	}
	bfs := net.BFS(base)

	// Upstream: raw values converge on the base along its BFS tree; each
	// edge carries each source's value once.
	upEdges := make(map[routing.Edge]map[graph.NodeID]bool)
	sources := make(map[graph.NodeID]bool)
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		for _, s := range sp.Func.Sources() {
			sources[s] = true
		}
	}
	var srcList []graph.NodeID
	for s := range sources {
		srcList = append(srcList, s)
	}
	sort.Slice(srcList, func(i, j int) bool { return srcList[i] < srcList[j] })
	for _, s := range srcList {
		if !bfs.Reachable(s) {
			return nil, fmt.Errorf("sim: source %d cannot reach base %d", s, base)
		}
		for v := s; v != base; {
			p := bfs.Parent[v]
			e := routing.Edge{From: v, To: p}
			if upEdges[e] == nil {
				upEdges[e] = make(map[graph.NodeID]bool)
			}
			upEdges[e][s] = true
			v = p
		}
	}

	// Downstream: one record unit per destination along the reverse tree
	// path; edges shared by several destinations merge into one message.
	downEdges := make(map[routing.Edge]map[graph.NodeID]bool)
	for _, sp := range specs {
		d := sp.Dest
		if !bfs.Reachable(d) {
			return nil, fmt.Errorf("sim: destination %d unreachable from base %d", d, base)
		}
		path, err := bfs.PathTo(d) // base .. d
		if err != nil {
			return nil, err
		}
		for i := 0; i+1 < len(path); i++ {
			e := routing.Edge{From: path[i], To: path[i+1]}
			if downEdges[e] == nil {
				downEdges[e] = make(map[graph.NodeID]bool)
			}
			downEdges[e][d] = true
		}
	}

	res := &OutOfNetworkResult{
		Values:   make(map[graph.NodeID]float64),
		PerNodeJ: make(map[graph.NodeID]float64),
	}
	charge := func(e routing.Edge, body int) {
		res.EnergyJ += model.UnicastJoules(body)
		res.PerNodeJ[e.From] += model.TxJoules(body)
		res.PerNodeJ[e.To] += model.RxJoules(body)
		res.Messages++
	}
	recordBytes := make(map[graph.NodeID]int, len(specs))
	for _, sp := range specs {
		recordBytes[sp.Dest] = agg.UnitBytes(sp.Func)
	}
	for e, srcs := range upEdges {
		charge(e, len(srcs)*agg.RawUnitBytes)
		res.UpHops += len(srcs)
	}
	for e, dests := range downEdges {
		body := 0
		for d := range dests {
			body += recordBytes[d]
		}
		charge(e, body)
		res.DownHops += len(dests)
	}

	// The base evaluates every function from the collected raw values.
	for _, sp := range specs {
		vals := make(map[graph.NodeID]float64)
		for _, s := range sp.Func.Sources() {
			vals[s] = readings[s]
		}
		v, err := agg.Eval(sp.Func, vals)
		if err != nil {
			return nil, err
		}
		res.Values[sp.Dest] = v
	}
	return res, nil
}
