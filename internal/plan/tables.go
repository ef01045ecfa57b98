package plan

import (
	"fmt"
	"sort"

	"m2m/internal/graph"
	"m2m/internal/routing"
)

// The four per-node tables of Section 3 ("Implementing Node Behavior").
// Table contents are computed out-of-network from the plan and disseminated
// to the nodes; the executor consults them at runtime.

// RawEntry says: forward source Source's raw value into outgoing message
// group Out.
type RawEntry struct {
	Source graph.NodeID
	Out    routing.Edge
}

// PreAggEntry says: apply pre-aggregation function w_{Dest,Source} to
// Source's raw value at this node (the node holds the per-source weight).
type PreAggEntry struct {
	Source, Dest graph.NodeID
}

// PartialEntry says: combine Inputs partial-aggregate/pre-aggregated
// contributions for Dest and, unless Local, send the merged record into
// message group Out. Local entries belong to the destination itself, which
// applies the evaluator instead.
type PartialEntry struct {
	Dest   graph.NodeID
	Inputs int
	Out    routing.Edge
	Local  bool
}

// OutgoingEntry says: message group for edge Out carries Units message
// units to neighbor Out.To.
type OutgoingEntry struct {
	Out   routing.Edge
	Units int
}

// Tables is the complete in-network state of a plan, per node.
type Tables struct {
	Raw      map[graph.NodeID][]RawEntry
	PreAgg   map[graph.NodeID][]PreAggEntry
	Partial  map[graph.NodeID][]PartialEntry
	Outgoing map[graph.NodeID][]OutgoingEntry
}

// contribution describes where one pair's value enters a record: either an
// upstream record (keyed by in-edge) or a raw/local pre-aggregation.
type contribKey struct {
	record bool
	edge   routing.Edge // meaningful when record
	source graph.NodeID // meaningful when !record
}

// recordInputs returns the distinct contribution keys for destination d's
// record being assembled at node n from the given pairs, where each pair's
// path reaches n at edge index idx (idx 0 means the pair's source is n).
func (p *Plan) recordInputs(n, d graph.NodeID, pairs []Pair) ([]contribKey, error) {
	seen := make(map[contribKey]bool)
	var keys []contribKey
	add := func(k contribKey) {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, pr := range pairs {
		path := p.Inst.Route(pr)
		// Locate n on the pair's path.
		pos := -1
		for i, v := range path {
			if v == n {
				pos = i
				break
			}
		}
		if pos == -1 {
			return nil, fmt.Errorf("plan: node %d not on path of pair %d→%d", n, pr.Source, pr.Dest)
		}
		if pos == 0 {
			// The source itself: local reading, pre-aggregated here.
			add(contribKey{source: pr.Source})
			continue
		}
		in := routing.Edge{From: path[pos-1], To: path[pos]}
		if p.SendsRecord(in, d) {
			add(contribKey{record: true, edge: in})
		} else {
			// The pair crossed the in-edge raw; pre-aggregate here.
			add(contribKey{source: pr.Source})
		}
	}
	return keys, nil
}

// BuildTables materializes the per-node state of the plan.
func (p *Plan) BuildTables() (*Tables, error) {
	t := &Tables{
		Raw:      make(map[graph.NodeID][]RawEntry),
		PreAgg:   make(map[graph.NodeID][]PreAggEntry),
		Partial:  make(map[graph.NodeID][]PartialEntry),
		Outgoing: make(map[graph.NodeID][]OutgoingEntry),
	}
	// Pre-aggregation entries are deduplicated per node: the same (s, d)
	// weight may legitimately be stored at more than one node if a record
	// is dropped and the value re-enters raw downstream (possible only in
	// hand-assembled or baseline plans).
	type preKey struct {
		n graph.NodeID
		e PreAggEntry
	}
	preAggSeen := make(map[preKey]bool)
	addPre := func(n graph.NodeID, e PreAggEntry) {
		k := preKey{n: n, e: e}
		if !preAggSeen[k] {
			preAggSeen[k] = true
			t.PreAgg[n] = append(t.PreAgg[n], e)
		}
	}

	for i, e := range p.Inst.EdgeList {
		n := e.From
		r := p.Row(i)
		units := 0
		for k, s := range r.Sources {
			if r.Raw[k] {
				t.Raw[n] = append(t.Raw[n], RawEntry{Source: s, Out: e})
				units++
			}
		}
		for k, d := range r.Dests {
			if !r.Agg[k] {
				continue
			}
			var pairs []Pair
			for _, pr := range p.Inst.Pairs(i) {
				if pr.Dest == d {
					pairs = append(pairs, pr)
				}
			}
			keys, err := p.recordInputs(n, d, pairs)
			if err != nil {
				return nil, err
			}
			for _, k := range keys {
				if !k.record {
					addPre(n, PreAggEntry{Source: k.source, Dest: d})
				}
			}
			t.Partial[n] = append(t.Partial[n], PartialEntry{Dest: d, Inputs: len(keys), Out: e})
			units++
		}
		if units > 0 {
			t.Outgoing[n] = append(t.Outgoing[n], OutgoingEntry{Out: e, Units: units})
		}
	}

	// Each destination's final merge (the Local partial entry; the
	// evaluator lives with it).
	for _, d := range p.Inst.Dests() {
		var pairs []Pair
		for _, s := range p.Inst.SpecByDest[d].Func.Sources() {
			pairs = append(pairs, Pair{Source: s, Dest: d})
		}
		keys, err := p.recordInputs(d, d, pairs)
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			if !k.record {
				addPre(d, PreAggEntry{Source: k.source, Dest: d})
			}
		}
		t.Partial[d] = append(t.Partial[d], PartialEntry{Dest: d, Inputs: len(keys), Local: true})
	}

	for n := range t.Partial {
		entries := t.Partial[n]
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].Dest != entries[j].Dest {
				return entries[i].Dest < entries[j].Dest
			}
			return !entries[i].Local && entries[j].Local
		})
	}
	for n := range t.PreAgg {
		entries := t.PreAgg[n]
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].Dest != entries[j].Dest {
				return entries[i].Dest < entries[j].Dest
			}
			return entries[i].Source < entries[j].Source
		})
	}
	return t, nil
}

// TotalEntries counts every table entry in the network — the state bound
// of Theorem 3.
func (t *Tables) TotalEntries() int {
	total := 0
	for _, es := range t.Raw {
		total += len(es)
	}
	for _, es := range t.PreAgg {
		total += len(es)
	}
	for _, es := range t.Partial {
		total += len(es)
	}
	for _, es := range t.Outgoing {
		total += len(es)
	}
	return total
}

// Approximate per-entry dissemination sizes in bytes: node tags are 2 B,
// weights 4 B, counts 1 B.
const (
	rawEntryBytes      = 2 + 2     // source tag + message group
	preAggEntryBytes   = 2 + 2 + 4 // source + dest + weight
	partialEntryBytes  = 2 + 1 + 2 // dest + input count + message group
	outgoingEntryBytes = 2 + 1 + 2 // group + unit count + recipient
)

// StateBytes estimates the total bytes of table state disseminated into
// the network.
func (t *Tables) StateBytes() int {
	total := 0
	for _, es := range t.Raw {
		total += len(es) * rawEntryBytes
	}
	for _, es := range t.PreAgg {
		total += len(es) * preAggEntryBytes
	}
	for _, es := range t.Partial {
		total += len(es) * partialEntryBytes
	}
	for _, es := range t.Outgoing {
		total += len(es) * outgoingEntryBytes
	}
	return total
}

// NodeEntries counts the table entries stored at node n.
func (t *Tables) NodeEntries(n graph.NodeID) int {
	return len(t.Raw[n]) + len(t.PreAgg[n]) + len(t.Partial[n]) + len(t.Outgoing[n])
}
