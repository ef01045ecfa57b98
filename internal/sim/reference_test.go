package sim

import (
	"fmt"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/routing"
)

// nodeDest keys per-node accumulated partial records for a destination.
type nodeDest struct {
	node, dest graph.NodeID
}

// runMapBased is the original map-keyed executor, kept as the reference
// implementation the compiled program is differentially tested against:
// compiled rounds must stay byte-identical to it, values and energy.
func (e *Engine) runMapBased(readings map[graph.NodeID]float64, obs Observer) (*RoundResult, error) {
	rawVal := make(map[nodeSource]float64)
	recVal := make(map[nodeDest]agg.Record)
	inst := e.Plan.Inst
	for _, s := range inst.Sources() {
		rawVal[nodeSource{node: s, source: s}] = readings[s]
	}

	for _, idx := range e.order {
		u := e.units[idx]
		switch u.Kind {
		case plan.UnitRaw:
			v, ok := rawVal[nodeSource{node: u.Edge.From, source: u.Node}]
			if !ok {
				return nil, fmt.Errorf("sim: raw %d missing at %d", u.Node, u.Edge.From)
			}
			rawVal[nodeSource{node: u.Edge.To, source: u.Node}] = v
			if obs != nil {
				obs(u, v, nil)
			}
		case plan.UnitAgg:
			rec, err := e.assembleRecord(u.Edge.From, u.Node, u.Edge, rawVal, recVal)
			if err != nil {
				return nil, err
			}
			if obs != nil {
				obs(u, 0, rec)
			}
			key := nodeDest{node: u.Edge.To, dest: u.Node}
			if prev, ok := recVal[key]; ok {
				f := inst.SpecByDest[u.Node].Func
				recVal[key] = f.Merge(prev, rec)
			} else {
				recVal[key] = rec
			}
		}
	}

	values := make(map[graph.NodeID]float64, len(inst.SpecByDest))
	for _, d := range inst.Dests() {
		rec, err := e.assembleRecord(d, d, routing.Edge{}, rawVal, recVal)
		if err != nil {
			return nil, err
		}
		values[d] = inst.SpecByDest[d].Func.Eval(rec)
	}

	e.drainStatic()
	return &RoundResult{
		Values:     values,
		EnergyJ:    e.energyJ,
		Messages:   len(e.messages),
		Units:      len(e.units),
		BodyBytes:  e.bodyBytes,
		OnAirBytes: e.bodyBytes + len(e.messages)*e.Radio.HeaderBytes,
		PerNodeJ:   e.perNodeJ,
	}, nil
}

// assembleRecord merges destination d's contributions at node n. For a
// transmitted record, out is the carrying edge (contributions are the
// pairs crossing it); for the final merge at d itself, out is the zero
// edge and the contributions are all of d's sources.
func (e *Engine) assembleRecord(n, d graph.NodeID, out routing.Edge, rawVal map[nodeSource]float64, recVal map[nodeDest]agg.Record) (agg.Record, error) {
	inst := e.Plan.Inst
	f := inst.SpecByDest[d].Func
	final := out == routing.Edge{}

	var pairs []plan.Pair
	if final {
		for _, s := range f.Sources() {
			pairs = append(pairs, plan.Pair{Source: s, Dest: d})
		}
	} else {
		for _, pr := range inst.Pairs(inst.EdgeIndex(out)) {
			if pr.Dest == d {
				pairs = append(pairs, pr)
			}
		}
	}

	var rec agg.Record
	mergeIn := func(r agg.Record) {
		if rec == nil {
			rec = r.Clone()
		} else {
			rec = f.Merge(rec, r)
		}
	}
	usedUpstream := false
	for _, pr := range pairs {
		path := inst.Route(pr)
		// n's position on the pair's path: last for the final merge,
		// out's From-index otherwise.
		var pos int
		if final {
			pos = len(path) - 1
		} else {
			pos = pairEdgeIndex(path, out)
			if pos < 0 {
				return nil, fmt.Errorf("sim: pair %d→%d does not cross %v", pr.Source, pr.Dest, out)
			}
		}
		if pos == 0 {
			// n is the source itself.
			v, ok := rawVal[nodeSource{node: n, source: pr.Source}]
			if !ok {
				return nil, fmt.Errorf("sim: local reading of %d missing", pr.Source)
			}
			mergeIn(f.PreAgg(pr.Source, v))
			continue
		}
		in := routing.Edge{From: path[pos-1], To: path[pos]}
		if e.Plan.SendsRecord(in, d) {
			if !usedUpstream {
				usedUpstream = true
				r, ok := recVal[nodeDest{node: n, dest: d}]
				if !ok {
					return nil, fmt.Errorf("sim: record for %d missing at %d", d, n)
				}
				mergeIn(r)
			}
			continue
		}
		v, ok := rawVal[nodeSource{node: n, source: pr.Source}]
		if !ok {
			return nil, fmt.Errorf("sim: raw %d missing at %d for record %d", pr.Source, n, d)
		}
		mergeIn(f.PreAgg(pr.Source, v))
	}
	if rec == nil {
		return nil, fmt.Errorf("sim: empty record for %d at %d", d, n)
	}
	return rec, nil
}

// pairEdgeIndex returns the position of e on path, or -1 if the path does
// not cross e.
func pairEdgeIndex(path []graph.NodeID, e routing.Edge) int {
	for i := 0; i+1 < len(path); i++ {
		if path[i] == e.From && path[i+1] == e.To {
			return i
		}
	}
	return -1
}
