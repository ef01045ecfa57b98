package plan

import (
	"encoding/json"
	"io"
)

// ExportedPlan is the JSON-friendly view of a plan, for tooling and
// offline inspection (cmd/m2mplan -json).
type ExportedPlan struct {
	Method string         `json:"method"`
	Units  int            `json:"units"`
	Bytes  int            `json:"body_bytes"`
	Edges  []ExportedEdge `json:"edges"`
}

// ExportedEdge is one edge's transmit decision.
type ExportedEdge struct {
	From int   `json:"from"`
	To   int   `json:"to"`
	Raw  []int `json:"raw_sources,omitempty"`
	Agg  []int `json:"agg_destinations,omitempty"`
}

// Export returns the serializable view of p, edges in canonical order.
func (p *Plan) Export() *ExportedPlan {
	out := &ExportedPlan{
		Method: string(p.Method),
		Units:  len(p.Units()),
		Bytes:  p.TotalBodyBytes(),
	}
	for i, e := range p.Inst.EdgeList {
		r := p.Row(i)
		ee := ExportedEdge{From: int(e.From), To: int(e.To)}
		for k, s := range r.Sources {
			if r.Raw[k] {
				ee.Raw = append(ee.Raw, int(s))
			}
		}
		for k, d := range r.Dests {
			if r.Agg[k] {
				ee.Agg = append(ee.Agg, int(d))
			}
		}
		out.Edges = append(out.Edges, ee)
	}
	return out
}

// WriteJSON writes the exported plan as indented JSON.
func (p *Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Export())
}
