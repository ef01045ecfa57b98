package plan

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/failure"
	"m2m/internal/graph"
	"m2m/internal/routing"
	"m2m/internal/topology"
)

// fig1cNetwork builds the paper's Figure 1(C) scenario:
// sources a,b,c,d → relay i → relay j → destinations k,l,m with
//
//	f_k over {a,b,c,d}, f_l over {a,b,c}, f_m over {a}.
//
// Node IDs: a=0 b=1 c=2 d=3 i=4 j=5 k=6 l=7 m=8.
func fig1cNetwork(t *testing.T) *Instance {
	t.Helper()
	g := graph.NewUndirected(9)
	for _, s := range []graph.NodeID{0, 1, 2, 3} {
		if err := g.AddEdge(s, 4, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(4, 5, 1); err != nil {
		t.Fatal(err)
	}
	for _, d := range []graph.NodeID{6, 7, 8} {
		if err := g.AddEdge(5, d, 1); err != nil {
			t.Fatal(err)
		}
	}
	w := func(ids ...graph.NodeID) map[graph.NodeID]float64 {
		m := make(map[graph.NodeID]float64)
		for _, id := range ids {
			m[id] = 1 + float64(id)/10
		}
		return m
	}
	specs := []agg.Spec{
		{Dest: 6, Func: agg.NewWeightedSum(w(0, 1, 2, 3))},
		{Dest: 7, Func: agg.NewWeightedSum(w(0, 1, 2))},
		{Dest: 8, Func: agg.NewWeightedSum(w(0))},
	}
	inst, err := NewInstance(g, routing.NewReversePath(g), specs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestPaperFigure1CPlan(t *testing.T) {
	inst := fig1cNetwork(t)
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	ij := routing.Edge{From: 4, To: 5}
	sol := solution(p, ij)
	if sol == nil {
		t.Fatal("no solution on edge i→j")
	}
	// The paper's optimal plan for i→j: raw a plus records for k and l.
	if !sol.Raw[0] || len(sol.Raw) != 1 {
		t.Errorf("Raw(i→j) = %v, want {a}", sol.Raw)
	}
	if !sol.Agg[6] || !sol.Agg[7] || sol.Agg[8] || len(sol.Agg) != 2 {
		t.Errorf("Agg(i→j) = %v, want {k, l}", sol.Agg)
	}
	// Three message units on i→j, as in the figure.
	if units := p.EdgeUnits(ij); len(units) != 3 {
		t.Errorf("units on i→j = %v", units)
	}
}

func TestInstanceValidation(t *testing.T) {
	g := graph.NewUndirected(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	r := routing.NewReversePath(g)
	wsum := func(ids ...graph.NodeID) agg.Func {
		m := make(map[graph.NodeID]float64)
		for _, id := range ids {
			m[id] = 1
		}
		return agg.NewWeightedSum(m)
	}
	if _, err := NewInstance(g, r, []agg.Spec{{Dest: 2}}); err == nil {
		t.Error("nil func accepted")
	}
	dup := []agg.Spec{
		{Dest: 2, Func: wsum(0)},
		{Dest: 2, Func: wsum(1)},
	}
	if _, err := NewInstance(g, r, dup); err == nil {
		t.Error("duplicate destination accepted")
	}
	if _, err := NewInstance(g, r, []agg.Spec{{Dest: 9, Func: wsum(0)}}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := NewInstance(g, r, []agg.Spec{{Dest: 2, Func: wsum(9)}}); err == nil {
		t.Error("out-of-range source accepted")
	}
}

// tableRouter routes each pair along a fixed path. Routes missing from the
// table are an error.
type tableRouter map[Pair][]graph.NodeID

func (r tableRouter) Name() string { return "table" }

func (r tableRouter) AppendPath(dst []graph.NodeID, s, d graph.NodeID) ([]graph.NodeID, error) {
	if p, ok := r[Pair{Source: s, Dest: d}]; ok {
		return append(dst, p...), nil
	}
	return dst, fmt.Errorf("no route %d→%d", s, d)
}

// TestSuffixErrorIsDeterministic checks that NewInstance reports the
// first suffix-property violation in spec order, whatever the number of
// violating destinations.
func TestSuffixErrorIsDeterministic(t *testing.T) {
	g := graph.NewUndirected(10)
	router := tableRouter{
		{Source: 0, Dest: 9}: {0, 2, 9},
		{Source: 1, Dest: 9}: {1, 2, 3, 9}, // leaves 2 toward 3, not 9
		{Source: 4, Dest: 8}: {4, 5, 8},
		{Source: 6, Dest: 8}: {6, 5, 7, 8}, // leaves 5 toward 7, not 8
	}
	sum := func(ids ...graph.NodeID) agg.Func {
		w := make(map[graph.NodeID]float64)
		for _, id := range ids {
			w[id] = 1
		}
		return agg.NewWeightedSum(w)
	}
	specs := []agg.Spec{{Dest: 9, Func: sum(0, 1)}, {Dest: 8, Func: sum(4, 6)}}
	var first string
	for i := 0; i < 50; i++ {
		_, err := NewInstance(g, router, specs)
		if err == nil {
			t.Fatal("suffix violation accepted")
		}
		if i == 0 {
			first = err.Error()
			if !strings.Contains(first, "toward 9") {
				t.Fatalf("error %q does not name the first spec's destination 9", first)
			}
		} else if err.Error() != first {
			t.Fatalf("call %d reported %q, call 0 reported %q", i, err, first)
		}
	}
}

func TestInstanceEdgePairs(t *testing.T) {
	inst := fig1cNetwork(t)
	ij := routing.Edge{From: 4, To: 5}
	pairs := inst.EdgePairs(ij)
	// 4+3+1 = 8 pairs cross i→j.
	if len(pairs) != 8 {
		t.Fatalf("pairs on i→j = %v", pairs)
	}
	sources, dests := inst.Ends(inst.EdgeIndex(ij))
	if len(sources) != 4 {
		t.Errorf("S_e = %v", sources)
	}
	if len(dests) != 3 {
		t.Errorf("D_e = %v", dests)
	}
	// No pairs on the reverse edge.
	if len(inst.EdgePairs(routing.Edge{From: 5, To: 4})) != 0 || inst.EdgeIndex(routing.Edge{From: 5, To: 4}) != -1 {
		t.Error("phantom pairs on reverse edge")
	}
}

func TestTreeSizes(t *testing.T) {
	inst := fig1cNetwork(t)
	// T_a spans a,i,j,k,l,m = 6 nodes; A_k spans a,b,c,d,i,j,k = 7 nodes.
	if got := inst.MulticastSize(0); got != 6 {
		t.Errorf("|T_a| = %d, want 6", got)
	}
	if got := inst.AggTreeSize(6); got != 7 {
		t.Errorf("|A_k| = %d, want 7", got)
	}
	if got := inst.Sources(); len(got) != 4 {
		t.Errorf("Sources = %v", got)
	}
	if got := inst.Dests(); len(got) != 3 || got[0] != 6 {
		t.Errorf("Dests = %v", got)
	}
}

// randomInstance builds a random connected network with a random workload.
func randomInstance(t testing.TB, rng *rand.Rand, n, nDests, nSrcsPer int, router func(*graph.Undirected) routing.Router) *Instance {
	t.Helper()
	g := randomNet(t, rng, n)
	inst, err := NewInstance(g, router(g), randomSpecs(rng, n, nDests, nSrcsPer))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// randomNet draws a connected n-node network over the Great Duck Island
// area with a 50 m radio range.
func randomNet(t testing.TB, rng *rand.Rand, n int) *graph.Undirected {
	l := topology.UniformRandom(n, topology.GDIArea(), rng.Int63())
	if _, err := l.EnsureConnected(50); err != nil {
		t.Fatal(err)
	}
	return l.ConnectivityGraph(50)
}

// randomSpecs draws nDests weighted-sum destinations over n nodes, each
// with nSrcsPer random sources.
func randomSpecs(rng *rand.Rand, n, nDests, nSrcsPer int) []agg.Spec {
	perm := rng.Perm(n)
	var specs []agg.Spec
	for i := 0; i < nDests && i < n; i++ {
		d := graph.NodeID(perm[i])
		w := make(map[graph.NodeID]float64)
		for len(w) < nSrcsPer {
			s := graph.NodeID(rng.Intn(n))
			w[s] = rng.Float64()*2 - 1
		}
		specs = append(specs, agg.Spec{Dest: d, Func: agg.NewWeightedSum(w)})
	}
	return specs
}

func sharedRouter(t testing.TB) func(*graph.Undirected) routing.Router {
	return func(g *graph.Undirected) routing.Router {
		st, err := routing.NewSharedTree(g)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
}

func reverseRouter(g *graph.Undirected) routing.Router { return routing.NewReversePath(g) }

// TestTheorem1HoldsForShippedRouters plans random workloads under every
// router the repository ships. Each meets both of the paper's routing
// restrictions (see routing.Router), so by Theorem 1 the independently
// solved edges fit together: Optimize and OptimizeWithPrices must return
// no error and an executable plan.
func TestTheorem1HoldsForShippedRouters(t *testing.T) {
	// evacuate penalizes the links of a few random hot nodes, as a session
	// evacuating energy-poor relays does.
	evacuate := func(rng *rand.Rand, g *graph.Undirected) *graph.Undirected {
		hot := make(map[graph.NodeID]bool)
		for len(hot) < 1+g.Len()/8 {
			hot[graph.NodeID(rng.Intn(g.Len()))] = true
		}
		wg, err := failure.EvacuationGraph(g, hot, 8)
		if err != nil {
			t.Fatal(err)
		}
		return wg
	}
	// stack reweighs the drawn links to 0 or 1, a quarter of them 0, as if
	// their ends shared a position.
	stack := func(rng *rand.Rand, g *graph.Undirected) *graph.Undirected {
		zg := graph.NewUndirected(g.Len())
		for _, e := range g.Edges() {
			w := 1.0
			if rng.Intn(4) == 0 {
				w = 0
			}
			if err := zg.AddEdge(e.U, e.V, w); err != nil {
				t.Fatal(err)
			}
		}
		return zg
	}
	cases := []struct {
		name   string
		net    func(*rand.Rand, *graph.Undirected) *graph.Undirected // nil keeps the drawn network
		router func(*graph.Undirected) routing.Router
		// rejects reports that NewInstance may refuse the router: SourceSPT
		// can break the suffix property, and only the instances it accepts
		// reach the planner.
		rejects bool
	}{
		{name: "shared-tree", router: sharedRouter(t)},
		{name: "reverse-path", router: reverseRouter},
		{
			name:   "weighted-reverse-path",
			net:    evacuate,
			router: func(g *graph.Undirected) routing.Router { return routing.NewWeightedReversePath(g) },
		},
		{
			// Zero-weight links, as between the evaluation layout's
			// stacked nodes, once broke Dijkstra's parent pointers.
			name:   "weighted-reverse-path-zero-weight",
			net:    stack,
			router: func(g *graph.Undirected) routing.Router { return routing.NewWeightedReversePath(g) },
		},
		{
			name: "milestone(reverse-path)",
			router: func(g *graph.Undirected) routing.Router {
				return routing.NewMilestoneRouter(g, routing.NewReversePath(g), routing.KeepEveryKth(2))
			},
		},
		{
			name: "min-degree-tree",
			router: func(g *graph.Undirected) routing.Router {
				md, err := routing.NewMinDegreeTree(g)
				if err != nil {
					t.Fatal(err)
				}
				return md
			},
		},
		{
			name:    "source-spt",
			router:  func(g *graph.Undirected) routing.Router { return routing.NewSourceSPT(g) },
			rejects: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2007))
			planned := 0
			for trial := 0; trial < 40; trial++ {
				n := 30 + rng.Intn(40)
				g := randomNet(t, rng, n)
				if c.net != nil {
					g = c.net(rng, g)
				}
				inst, err := NewInstance(g, c.router(g), randomSpecs(rng, n, 2+rng.Intn(6), 2+rng.Intn(5)))
				if err != nil {
					if c.rejects {
						continue
					}
					t.Fatal(err)
				}
				// Optimize is OptimizeWithPrices with nil prices; half the
				// trials also plan under random per-node prices.
				priceSets := []map[graph.NodeID]int64{nil}
				if trial%2 == 1 {
					prices := make(map[graph.NodeID]int64)
					for v := 0; v < n; v++ {
						if rng.Intn(2) == 0 {
							prices[graph.NodeID(v)] = 1 + rng.Int63n(9)
						}
					}
					priceSets = append(priceSets, prices)
				}
				for _, prices := range priceSets {
					p, err := OptimizeWithPrices(inst, prices)
					if err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
					if err := p.Validate(); err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
				}
				planned++
			}
			if planned < 5 {
				t.Fatalf("only %d of 40 instances reached the planner", planned)
			}
		})
	}
}

func TestOptimalBeatsBaselinesUnderSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(t, rng, 40, 8, 6, sharedRouter(t))
		opt, err := Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		mc, ag := Multicast(inst), AggregateASAP(inst)
		if opt.TotalBodyBytes() > mc.TotalBodyBytes() {
			t.Errorf("trial %d: optimal %d B > multicast %d B", trial, opt.TotalBodyBytes(), mc.TotalBodyBytes())
		}
		if opt.TotalBodyBytes() > ag.TotalBodyBytes() {
			t.Errorf("trial %d: optimal %d B > aggregation %d B", trial, opt.TotalBodyBytes(), ag.TotalBodyBytes())
		}
	}
}

func TestAllMethodsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		for _, mk := range []func(*Instance) *Plan{Multicast, AggregateASAP} {
			inst := randomInstance(t, rng, 30, 5, 4, reverseRouter)
			p := mk(inst)
			if err := p.Validate(); err != nil {
				t.Fatalf("trial %d: %s invalid: %v", trial, p.Method, err)
			}
		}
		inst := randomInstance(t, rng, 30, 5, 4, reverseRouter)
		p, err := Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: optimal invalid: %v", trial, err)
		}
	}
}

func TestOptimalNotWorseThanAggregationEver(t *testing.T) {
	// Every per-edge cover is no worse than the all-destinations cover, so
	// globally optimal ≤ aggregation.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(t, rng, 50, 10, 8, reverseRouter)
		opt, err := Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		if ag := AggregateASAP(inst); opt.TotalBodyBytes() > ag.TotalBodyBytes() {
			t.Errorf("trial %d: optimal %d B > aggregation %d B",
				trial, opt.TotalBodyBytes(), ag.TotalBodyBytes())
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	rng1 := rand.New(rand.NewSource(8))
	rng2 := rand.New(rand.NewSource(8))
	a := randomInstance(t, rng1, 35, 6, 5, reverseRouter)
	b := randomInstance(t, rng2, 35, 6, 5, reverseRouter)
	pa, err := Optimize(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Optimize(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa.TotalBodyBytes() != pb.TotalBodyBytes() {
		t.Fatal("nondeterministic plan cost")
	}
	for i, sa := range solutions(pa) {
		if !sameSolution(sa, setsOf(pb.Row(i))) {
			t.Fatalf("nondeterministic solution on %v", pa.Inst.EdgeList[i])
		}
	}
}

func TestUnitsAndBytes(t *testing.T) {
	inst := fig1cNetwork(t)
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	ij := routing.Edge{From: 4, To: 5}
	units := p.EdgeUnits(ij)
	if len(units) != 3 {
		t.Fatalf("units = %v", units)
	}
	if units[0].Kind != UnitRaw || units[0].Node != 0 {
		t.Errorf("first unit = %v, want raw a", units[0])
	}
	// Weighted sum: every unit is RawUnitBytes on the wire.
	if got := p.BodyBytes(ij); got != 3*agg.RawUnitBytes {
		t.Errorf("BodyBytes(i→j) = %d", got)
	}
	if p.TotalBodyBytes() <= 0 {
		t.Error("TotalBodyBytes not positive")
	}
	if len(p.Units()) == 0 {
		t.Error("Units empty")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	inst := fig1cNetwork(t)
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	ij := routing.Edge{From: 4, To: 5}
	// Remove the raw transmission of a without covering its pairs.
	p.Row(p.Inst.EdgeIndex(ij)).Raw[0] = false
	if err := p.Validate(); err == nil {
		t.Error("uncovered pair not detected")
	}
	// Restore coverage but break availability: claim a travels raw on j→k
	// while every upstream edge aggregates it.
	p2, err := Optimize(fig1cNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range p2.Inst.EdgeList {
		r := p2.Row(i)
		for k, s := range r.Sources {
			r.Raw[k] = r.Raw[k] && s != 0
		}
		for k, d := range r.Dests {
			r.Agg[k] = r.Agg[k] || d == 6 || d == 8
		}
	}
	jm := p2.Row(p2.Inst.EdgeIndex(routing.Edge{From: 5, To: 8}))
	jm.Raw[slices.Index(jm.Sources, 0)] = true
	if err := p2.Validate(); err == nil {
		t.Error("unavailable raw not detected")
	}
}

// edgeSets is one edge's transmit decision as sets, for assertions.
type edgeSets struct {
	Raw, Agg map[graph.NodeID]bool
}

func setsOf(r Row) *edgeSets {
	out := &edgeSets{Raw: make(map[graph.NodeID]bool), Agg: make(map[graph.NodeID]bool)}
	for k, s := range r.Sources {
		if r.Raw[k] {
			out.Raw[s] = true
		}
	}
	for k, d := range r.Dests {
		if r.Agg[k] {
			out.Agg[d] = true
		}
	}
	return out
}

// solution returns p's decision on e as sets, or nil if no pair crosses e.
func solution(p *Plan, e routing.Edge) *edgeSets {
	if i := p.Inst.EdgeIndex(e); i >= 0 {
		return setsOf(p.Row(i))
	}
	return nil
}

// solutions returns every edge's decision as sets, aligned with EdgeList.
func solutions(p *Plan) []*edgeSets {
	out := make([]*edgeSets, len(p.Inst.EdgeList))
	for i := range out {
		out[i] = setsOf(p.Row(i))
	}
	return out
}

func sameSolution(a, b *edgeSets) bool {
	return maps.Equal(a.Raw, b.Raw) && maps.Equal(a.Agg, b.Agg)
}

// EdgePairs returns the pairs crossing e, sorted by (Source, Dest), or nil
// if none does.
func (inst *Instance) EdgePairs(e routing.Edge) []Pair {
	if i := inst.EdgeIndex(e); i >= 0 {
		return inst.Pairs(i)
	}
	return nil
}
