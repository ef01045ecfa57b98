package chaos

// shapeKey is every field the network and workload of a scenario are
// built from.
type shapeKey struct {
	topology               string
	nodes, gridX, gridY    int
	spacing                float64
	topoSeed, workloadSeed int64
	dests, sourcesPerDest  int
	dispersion             float64
	maxHops                int
	funcKind, sketch       string
}

func (sc *Scenario) shapeKey() shapeKey {
	return shapeKey{
		topology: sc.Topology, nodes: sc.Nodes, gridX: sc.GridX, gridY: sc.GridY,
		spacing: sc.Spacing, topoSeed: sc.TopoSeed, workloadSeed: sc.WorkloadSeed,
		dests: sc.Dests, sourcesPerDest: sc.SourcesPerDest, dispersion: sc.Dispersion,
		maxHops: sc.MaxHops, funcKind: sc.FuncKind, sketch: sc.Sketch,
	}
}

// builtShape is a built network and workload and the shape fields it was
// built from. A struct copy of a scenario shares it, so the value goes to
// one run at most.
type builtShape struct {
	key shapeKey
	v   any
}

// StashShape records v as the network and workload built from sc's
// current shape fields, so the first run built from sc can take it
// instead of building them again.
func StashShape(sc *Scenario, v any) {
	sc.built = &builtShape{key: sc.shapeKey(), v: v}
}

// TakeShape returns the value StashShape recorded on sc (or on the
// scenario sc was copied from), or nil. It hands the value out once, and
// only while the shape fields still match the ones it was built from; a
// caller that gets nil builds the shape itself.
func TakeShape(sc *Scenario) any {
	b := sc.built
	if b == nil || b.v == nil || b.key != sc.shapeKey() {
		return nil
	}
	v := b.v
	b.v, sc.built = nil, nil
	return v
}
