package plan_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"m2m/internal/distopt"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/topology"
	"m2m/internal/workload"
)

// exportInstance routes cfg's workload over g with router.
func exportInstance(t *testing.T, g *graph.Undirected, router routing.Router, cfg workload.Config) (*plan.Instance, error) {
	t.Helper()
	specs, err := workload.Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return plan.NewInstance(g, router, specs)
}

// writePlan hashes p's JSON export.
func writePlan(t *testing.T, h hash.Hash, p *plan.Plan) {
	t.Helper()
	if err := p.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
}

// TestPlanExportFingerprint pins, by SHA-256 of WriteJSON (and of the
// UpdateStats of replans), the plans of a spread of instances, routers,
// baselines, prices, replans and the distributed optimizer. Every
// decision of every edge is in the export, so a change to how plans are
// solved or stored must leave each of these unchanged.
func TestPlanExportFingerprint(t *testing.T) {
	_, gdi, err := topology.GreatDuckIsland()
	if err != nil {
		t.Fatal(err)
	}
	gdiCfg := workload.Config{DestFraction: 0.2, SourcesPerDest: 20, Dispersion: 0.9, MaxHops: 4, Seed: 1}
	gdiInst, err := exportInstance(t, gdi, routing.NewReversePath(gdi), gdiCfg)
	if err != nil {
		t.Fatal(err)
	}
	optimize := func(t *testing.T, h hash.Hash, inst *plan.Instance) *plan.Plan {
		p, err := plan.Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		writePlan(t, h, p)
		return p
	}
	// routed plans the workload under router on GDI; a router the planner
	// rejects is pinned by its error text.
	routed := func(router func() (routing.Router, error)) func(*testing.T, hash.Hash) {
		return func(t *testing.T, h hash.Hash) {
			r, err := router()
			if err != nil {
				t.Fatal(err)
			}
			inst, err := exportInstance(t, gdi, r, gdiCfg)
			if err != nil {
				fmt.Fprintf(h, "error: %v\n", err)
				return
			}
			optimize(t, h, inst)
		}
	}

	for _, tc := range []struct {
		name string
		run  func(*testing.T, hash.Hash)
		want string
	}{
		{"gdi-optimal", func(t *testing.T, h hash.Hash) { optimize(t, h, gdiInst) }, "7d24262b4f4f75169098175684cc54939ea8a0d24f8902b55abc11018196b7df"},
		{"gdi-multicast", func(t *testing.T, h hash.Hash) { writePlan(t, h, plan.Multicast(gdiInst)) }, "16aa80ad5df1601e9856b753ef4c26930f9d5fc204e06e61cfa3e6409adea48e"},
		{"gdi-aggregate", func(t *testing.T, h hash.Hash) { writePlan(t, h, plan.AggregateASAP(gdiInst)) }, "115479ca70d537f912fc97e1d153793faa0ee204b4b944c8209f447486dc3a53"},
		{"scaled-1k", func(t *testing.T, h hash.Hash) {
			_, g, err := topology.Scaled(1000, 1)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := exportInstance(t, g, routing.NewReversePath(g), workload.Config{
				NumDests: 20, SourcesPerDest: 20, Dispersion: 0.9, MaxHops: 4, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			optimize(t, h, inst)
		}, "7664157684e3bd3ef2cfe94776ed96b4f2d7350c4f218fa5bb0059c9dcf77512"},
		{"router-shared-tree", routed(func() (routing.Router, error) { return routing.NewSharedTree(gdi) }), "c35201327245d96522f67f8f1a3042e6cb195a6e0269671f4a2c313c27e90fc3"},
		{"router-min-degree", routed(func() (routing.Router, error) { return routing.NewMinDegreeTree(gdi) }), "de817b3e05abbe485dd507b97353d6e049d65d92cb7cb8cebdc2c2afcf2debf8"},
		{"router-weighted-reverse-path", routed(func() (routing.Router, error) { return routing.NewWeightedReversePath(gdi), nil }), "8e6264a7870ee9bf37fa6b81d66fecc3ae065efd8a52c12f884ef80145c5b181"},
		{"router-source-spt", routed(func() (routing.Router, error) { return routing.NewSourceSPT(gdi), nil }), "4004deee4b4f22b073a4ddf1b433eb24f28b8e384b2ef2cb987ff93d39ad27e2"},
		{"router-milestone", routed(func() (routing.Router, error) {
			return routing.NewMilestoneRouter(gdi, routing.NewReversePath(gdi), routing.KeepEveryKth(2)), nil
		}), "35e805afd235245bdb9208774db1640a117ac5a8d60ceb4377ccd56bebd72d10"},
		{"gdi-prices", func(t *testing.T, h hash.Hash) {
			prices := make(map[graph.NodeID]int64)
			for n := 0; n < gdi.Len(); n++ {
				prices[graph.NodeID(n)] = int64(1 + n%4)
			}
			p, err := plan.OptimizeWithPrices(gdiInst, prices)
			if err != nil {
				t.Fatal(err)
			}
			writePlan(t, h, p)
		}, "b7a3616c0eb4fa1d0bf497eea57dae119e59f2196d0b5f7347f03f2c4d83ed46"},
		{"reoptimize-chain", func(t *testing.T, h hash.Hash) {
			// Drop a spec, drop another, then reprice: each step replans
			// the previous step's plan.
			p := optimize(t, h, gdiInst)
			specs := gdiInst.Specs
			prices := map[graph.NodeID]int64{3: 5, 17: 2, 40: 7}
			for step, next := range [][]int{{1}, {1, 4}, {1, 4}} {
				kept := append(specs[:0:0], specs...)
				for k := len(next) - 1; k >= 0; k-- {
					kept = append(kept[:next[k]], kept[next[k]+1:]...)
				}
				inst, err := plan.NewInstance(gdi, routing.NewReversePath(gdi), kept)
				if err != nil {
					t.Fatal(err)
				}
				var pr map[graph.NodeID]int64
				if step == 2 {
					pr = prices
				}
				q, stats, err := plan.ReoptimizeWithPrices(p, inst, pr)
				if err != nil {
					t.Fatal(err)
				}
				writePlan(t, h, q)
				fmt.Fprintf(h, "%+v\n", *stats)
				p = q
			}
		}, "6d4c76d04da693b63ba6c4e6052e4922d03fea7f8f9494e327e1aa1567fb1346"},
		{"distopt", func(t *testing.T, h hash.Hash) {
			res, err := distopt.Optimize(gdiInst, radio.DefaultModel())
			if err != nil {
				t.Fatal(err)
			}
			writePlan(t, h, res.Plan)
			fmt.Fprintf(h, "%+v %d %d\n", res.Setup, res.NodesSolving, res.MaxEdgeProblems)
		}, "5fc7e02d850751f0dcd685c986c728bb934d72a8b2ef6c9ba390c845c0717b52"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			tc.run(t, h)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("export fingerprint %s, want %s", got, tc.want)
			}
		})
	}
}
