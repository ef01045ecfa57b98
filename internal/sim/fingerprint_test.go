package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/topology"
	"m2m/internal/workload"
)

// fingerprint is a SHA-256 writer for the compiled program of an engine.
type fingerprint struct{ h hash.Hash }

func (f fingerprint) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	f.h.Write(b[:])
}

func (f fingerprint) ints(vs []int) {
	f.int(int64(len(vs)))
	for _, v := range vs {
		f.int(int64(v))
	}
}

func (f fingerprint) int32s(vs []int32) {
	f.int(int64(len(vs)))
	for _, v := range vs {
		f.int(int64(v))
	}
}

func (f fingerprint) nodes(vs []graph.NodeID) {
	f.int(int64(len(vs)))
	for _, v := range vs {
		f.int(int64(v))
	}
}

func (f fingerprint) bool(b bool) {
	if b {
		f.int(1)
	} else {
		f.int(0)
	}
}

func (f fingerprint) inputs(ins []unitInput) {
	f.int(int64(len(ins)))
	for _, in := range ins {
		f.int(int64(in.kind))
		f.int(int64(in.slot))
		f.int(int64(in.source))
		f.int(int64(in.srcBit))
	}
}

// programFingerprint hashes everything NewEngine derives from a plan: the
// unit wait-for sets, the processing and message order, every compiled op
// and final merge, the slot layout, the dense edge ids, the exported
// message graph and the async executor's message topology. Two engines
// with equal fingerprints run byte-identical rounds on every executor.
func programFingerprint(t *testing.T, e *Engine) string {
	t.Helper()
	f := fingerprint{sha256.New()}
	f.int(int64(len(e.units)))
	for i, ds := range e.deps {
		f.ints(ds)
		f.bool(e.provUnit[i])
	}
	f.ints(e.order)
	f.int(int64(len(e.messages)))
	for _, m := range e.messages {
		f.ints(m)
	}
	f.int(int64(math.Float64bits(e.energyJ)))
	f.int(int64(e.bodyBytes))
	perNode := make([]graph.NodeID, 0, len(e.perNodeJ))
	for n := range e.perNodeJ {
		perNode = append(perNode, n)
	}
	sort.Slice(perNode, func(i, j int) bool { return perNode[i] < perNode[j] })
	for _, n := range perNode {
		f.int(int64(n))
		f.int(int64(math.Float64bits(e.perNodeJ[n])))
	}

	c := e.prog
	f.int(int64(c.nRaw))
	f.int(int64(c.nRec))
	f.int32s(c.recOff)
	// Record slots lie side by side in the arena, so each one's arity is
	// the distance to the next.
	recLen := make([]int32, c.nRec)
	for i := range recLen {
		end := int32(c.arena)
		if i+1 < c.nRec {
			end = c.recOff[i+1]
		}
		recLen[i] = end - c.recOff[i]
	}
	f.int32s(recLen)
	f.int(int64(c.arena))
	f.int(int64(c.maxRec))
	f.nodes(c.srcIDs)
	f.int32s(c.srcSlot)
	// Ops are stored in processing order and their operands in one flat
	// array; hash them per unit index, with the fields of the unit-indexed
	// layout the goldens were taken on.
	posOf := make([]int, len(e.order))
	for p, ui := range e.order {
		posOf[ui] = p
	}
	f.int(int64(len(c.ops)))
	for ui := range c.ops {
		op := c.ops[posOf[ui]]
		kind, dest := plan.UnitRaw, graph.NodeID(0)
		var ins []unitInput
		if !op.raw {
			kind, dest, ins = plan.UnitAgg, e.units[ui].Node, c.ins[op.lo:op.hi]
		}
		_, inPlace := op.fn.(agg.InPlace)
		f.int(int64(kind))
		f.int(int64(op.from))
		f.int(int64(op.to))
		f.inputs(ins)
		f.int(int64(op.out))
		f.bool(op.outMerge)
		f.int(int64(op.fnLen))
		f.int(int64(dest))
		f.bool(op.fn != nil)
		f.bool(inPlace)
	}
	f.int32s(c.unitBytes)
	f.int(int64(len(c.finals)))
	for _, fo := range c.finals {
		f.int(int64(fo.dest))
		f.int(int64(fo.fnLen))
		f.inputs(c.ins[fo.lo:fo.hi])
		f.nodes(fo.sources)
		f.int32s(fo.srcBits)
		f.int(int64(c.finalIndex(fo.dest)))
	}
	f.int32s(c.msgEdge)
	f.int(int64(c.nMsgEdges))
	f.nodes(c.edgeFrom)
	f.nodes(c.edgeTo)
	f.int(int64(c.covWords))

	mg, err := e.MessageGraph()
	if err != nil {
		// Broadcast engines keep no per-message unit layout, so neither the
		// message graph nor the async topology exists.
		f.h.Write([]byte(err.Error()))
		return hex.EncodeToString(f.h.Sum(nil))
	}
	f.int(int64(len(mg)))
	for _, m := range mg {
		f.int(int64(m.From))
		f.int(int64(m.To))
		f.ints(m.Deps)
	}
	topo := e.asyncTopology()
	for m := range topo.deps {
		f.ints(topo.deps[m])
		f.ints(topo.dependents[m])
		f.int32s(topo.relevant[m])
		f.int(int64(topo.seqTag[m]))
	}
	f.int32s(topo.inCount)
	return hex.EncodeToString(f.h.Sum(nil))
}

// tableRouter routes every pair along a fixed path.
type tableRouter map[plan.Pair][]graph.NodeID

func (r tableRouter) Name() string { return "table" }

func (r tableRouter) AppendPath(dst []graph.NodeID, s, d graph.NodeID) ([]graph.NodeID, error) {
	return append(dst, r[plan.Pair{Source: s, Dest: d}]...), nil
}

// reconvergingInstance routes source 0 to destinations 4 and 5 over
// 0→1→3→4 and 0→2→3→5, so raw 0 can reach node 3 over two edges and
// the first one in EdgeList order must provide it there; source 6 joins
// both routes at node 3.
func reconvergingInstance(t *testing.T) *plan.Instance {
	t.Helper()
	g := graph.NewUndirected(7)
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {6, 3}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	r := tableRouter{
		{Source: 0, Dest: 4}: {0, 1, 3, 4},
		{Source: 0, Dest: 5}: {0, 2, 3, 5},
		{Source: 6, Dest: 4}: {6, 3, 4},
		{Source: 6, Dest: 5}: {6, 3, 5},
	}
	specs := []agg.Spec{
		{Dest: 4, Func: agg.NewWeightedSum(map[graph.NodeID]float64{0: 1, 6: 2})},
		{Dest: 5, Func: agg.NewWeightedSum(map[graph.NodeID]float64{0: 3, 6: -1})},
	}
	inst, err := plan.NewInstance(g, r, specs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// fingerprintPlan optimizes a reverse-path instance of specs over g.
func fingerprintPlan(t *testing.T, g *graph.Undirected, router routing.Router, cfg workload.Config) *plan.Plan {
	t.Helper()
	specs, err := workload.Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := plan.NewInstance(g, router, specs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProgramFingerprint pins the compiled program NewEngine builds for a
// spread of plans and engine options by SHA-256. The goldens were taken
// before engine construction moved from maps to dense arrays; any change
// to construction must leave every one of them unchanged.
func TestProgramFingerprint(t *testing.T) {
	_, gdi, err := topology.GreatDuckIsland()
	if err != nil {
		t.Fatal(err)
	}
	gdiPlan := fingerprintPlan(t, gdi, routing.NewReversePath(gdi), workload.Config{
		DestFraction: 0.2, SourcesPerDest: 10, Dispersion: 0.9, MaxHops: 4, Seed: 1,
	})

	type fixture struct {
		name string
		plan func(t *testing.T) *plan.Plan
		opts Options
		// split requires the merged layout to need the pairwise fallback.
		split bool
		want  string
	}
	fixtures := []fixture{
		{
			name: "gdi-merged",
			plan: func(*testing.T) *plan.Plan { return gdiPlan },
			opts: Options{MergeMessages: true},
			want: "42f40b9d247014c2a361159e149fd6499e2adac9555869a81ab6dab594d95a3b",
		},
		{
			name: "gdi-unmerged",
			plan: func(*testing.T) *plan.Plan { return gdiPlan },
			opts: Options{},
			want: "b7cc4784cd4c05649a04dc6d4f3b4b522f2617640d7673d9965069072be48ea7",
		},
		{
			name: "gdi-multicast",
			plan: func(*testing.T) *plan.Plan { return plan.Multicast(gdiPlan.Inst) },
			opts: Options{MergeMessages: true},
			want: "49158fa1f4a3586b4d182aeab516f6d6b1e50f756f960d79f510b4ccbb881733",
		},
		{
			name: "gdi-aggregate",
			plan: func(*testing.T) *plan.Plan { return plan.AggregateASAP(gdiPlan.Inst) },
			opts: Options{MergeMessages: true},
			want: "05e4ac16c82a8b748355cea502275ac0e6afb5d6879b5d771f1f482279fe0b42",
		},
		{
			name: "gdi-linkloss",
			plan: func(*testing.T) *plan.Plan { return gdiPlan },
			opts: Options{MergeMessages: true, LinkLoss: func(e routing.Edge) float64 {
				return float64((int(e.From)*7+int(e.To)*3)%5) / 10
			}},
			want: "dd85fb5c77755359a6840d7dabbf57d57163ce82695422a189e7e7cb1ec17e25",
		},
		{
			name: "gdi-broadcast",
			plan: func(*testing.T) *plan.Plan { return gdiPlan },
			opts: Options{MergeMessages: true, Broadcast: true},
			want: "2f4eef1ef5e2ea2afea524a1f35594ce88e27c6274bf28540acf02694ce54752",
		},
		{
			name: "scale-2k",
			plan: func(t *testing.T) *plan.Plan {
				_, g, err := topology.Scaled(2000, 1)
				if err != nil {
					t.Fatal(err)
				}
				return fingerprintPlan(t, g, routing.NewReversePath(g), workload.Config{
					NumDests: 40, SourcesPerDest: 20, Dispersion: 0.9, MaxHops: 4, Seed: 1,
				})
			},
			opts: Options{MergeMessages: true},
			want: "80237812a8355e3ad3db4caec6cc62c4196b93e95c178c34f89444be2a435bc8",
		},
		{
			// The TestMergeFallbackOnRealCycle network: one edge's
			// one-message merge closes a wait-for cycle and must split.
			name: "merge-fallback",
			plan: func(t *testing.T) *plan.Plan {
				_, g, err := topology.Scaled(150, 1)
				if err != nil {
					t.Fatal(err)
				}
				return fingerprintPlan(t, g, routing.NewReversePath(g), workload.Config{
					DestFraction: 0.25, SourcesPerDest: 22, Seed: 1,
				})
			},
			opts:  Options{MergeMessages: true},
			split: true,
			want:  "6b654e11022a2805f023ac3bc352d0e61ee27f8e820e0028aca63d93146ecf2e",
		},
	}

	// plan-10k's shape, and its plan after one destination is dropped and
	// replanned incrementally (the replan perfbench times). The instance
	// is built once and shared by both fixtures.
	var plan10k, replan10k *plan.Plan
	build10k := func(t *testing.T) {
		if plan10k != nil {
			return
		}
		_, g, err := topology.Scaled(10000, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := routing.NewReversePath(g)
		plan10k = fingerprintPlan(t, g, r, workload.Config{
			NumDests: 200, SourcesPerDest: 20, Dispersion: 0.9, MaxHops: 4, Seed: 1,
		})
		specs := plan10k.Inst.Specs
		delta := append(append([]agg.Spec(nil), specs[:1]...), specs[2:]...)
		inst2, err := plan.NewInstance(g, r, delta)
		if err != nil {
			t.Fatal(err)
		}
		if replan10k, _, err = plan.Reoptimize(plan10k, inst2); err != nil {
			t.Fatal(err)
		}
	}
	fixtures = append(fixtures,
		fixture{
			name: "plan-10k",
			plan: func(t *testing.T) *plan.Plan { build10k(t); return plan10k },
			opts: Options{MergeMessages: true},
			want: "3ecc00c96f5b9263fe51963f50db8de709645b526f1f631e3f3e2fb84f263561",
		},
		fixture{
			name: "plan-10k-replan",
			plan: func(t *testing.T) *plan.Plan { build10k(t); return replan10k },
			opts: Options{MergeMessages: true},
			want: "fe339bce00361e154096b73fcd12184b9817dea08db6288f3caecec656014bc2",
		},
	)

	reconverge := reconvergingInstance(t)
	fixtures = append(fixtures,
		fixture{
			name: "reconverge-multicast",
			plan: func(*testing.T) *plan.Plan { return plan.Multicast(reconverge) },
			opts: Options{MergeMessages: true},
			want: "49eb28f6694b51dad794bbbd4b63aaee148efc59b909a2f32f49bebc93f72e4b",
		},
		fixture{
			name: "reconverge-aggregate",
			plan: func(*testing.T) *plan.Plan { return plan.AggregateASAP(reconverge) },
			opts: Options{MergeMessages: true},
			want: "bc9b429fae9779314d08cce94d05354284a6e61e4d07802c8fc5d9332ebf6833",
		},
	)

	l := topology.UniformRandom(40, topology.GDIArea(), 81)
	if _, err := l.EnsureConnected(50); err != nil {
		t.Fatal(err)
	}
	mg := l.ConnectivityGraph(50)
	mr := routing.NewMilestoneRouter(mg, routing.NewReversePath(mg), routing.KeepEveryKth(2))
	fixtures = append(fixtures, fixture{
		name: "milestone-edgehops",
		plan: func(t *testing.T) *plan.Plan {
			return fingerprintPlan(t, mg, mr, workload.Config{
				NumDests: 6, SourcesPerDest: 6, Dispersion: 0.5, Seed: 81,
			})
		},
		opts: Options{MergeMessages: true, EdgeHops: mr.EdgeHops},
		want: "5c820db657086c3e3bf3126e3cb6c8c2cb43b809a691b1c82a8a2f6609a2319b",
	})

	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			eng, err := NewEngine(fx.plan(t), radio.DefaultModel(), fx.opts)
			if err != nil {
				t.Fatal(err)
			}
			if fx.split && len(eng.messages) <= len(eng.Plan.Inst.EdgeList) {
				t.Fatalf("%d messages on %d edges: merge fallback unexercised", len(eng.messages), len(eng.Plan.Inst.EdgeList))
			}
			if got := programFingerprint(t, eng); got != fx.want {
				t.Errorf("program fingerprint %s, want %s", got, fx.want)
			}
		})
	}
}
