// Package workload generates the aggregation workloads of the paper's
// evaluation (Section 4): a chosen fraction of nodes become destinations,
// each aggregating a fixed number of sources drawn by hop distance
// according to a dispersion factor d — the relative weight of hop distance
// h is d^(h-1) / Σ_{h'=1..H} d^(h'-1), so d = 0 keeps all sources one hop
// away and d = 1 spreads them evenly over hops 1..H.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"m2m/internal/agg"
	"m2m/internal/graph"
)

// FuncKind selects the aggregation function family for generated specs.
type FuncKind string

// Supported function families.
const (
	WeightedSum     FuncKind = "wsum"
	WeightedAverage FuncKind = "wavg"
)

// Config describes a workload.
type Config struct {
	// NumDests is the number of destinations. If zero, DestFraction·N is
	// used instead.
	NumDests int
	// DestFraction is the fraction of nodes acting as destinations, used
	// when NumDests is zero.
	DestFraction float64
	// SourcesPerDest is the number of sources aggregated per destination.
	SourcesPerDest int
	// Dispersion is the paper's d ∈ [0, 1].
	Dispersion float64
	// MaxHops is the paper's H, the distance limit for source selection
	// (4 in the evaluation). Zero selects sources uniformly from the whole
	// network, ignoring Dispersion (used by the network-size experiment).
	MaxHops int
	// Kind selects the aggregation family; defaults to WeightedSum.
	Kind FuncKind
	// Seed makes generation deterministic.
	Seed int64
}

// Generate draws a workload over the connectivity graph g.
func Generate(g *graph.Undirected, cfg Config) ([]agg.Spec, error) {
	n := g.Len()
	if n == 0 {
		return nil, fmt.Errorf("workload: empty network")
	}
	nDests := cfg.NumDests
	if nDests == 0 {
		nDests = int(math.Round(cfg.DestFraction * float64(n)))
	}
	if nDests <= 0 || nDests > n {
		return nil, fmt.Errorf("workload: destination count %d out of range (n=%d)", nDests, n)
	}
	if cfg.SourcesPerDest <= 0 {
		return nil, fmt.Errorf("workload: non-positive sources per destination")
	}
	if cfg.Dispersion < 0 || cfg.Dispersion > 1 {
		return nil, fmt.Errorf("workload: dispersion %v outside [0,1]", cfg.Dispersion)
	}
	if cfg.SourcesPerDest > n-1 {
		return nil, fmt.Errorf("workload: %d sources per destination exceeds network size %d", cfg.SourcesPerDest, n)
	}
	kind := cfg.Kind
	if kind == "" {
		kind = WeightedSum
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(n)
	specs := make([]agg.Spec, 0, nDests)
	for i := 0; i < nDests; i++ {
		d := graph.NodeID(perm[i])
		sources, err := drawSources(g, d, cfg, rng)
		if err != nil {
			return nil, err
		}
		weights := make(map[graph.NodeID]float64, len(sources))
		for _, s := range sources {
			weights[s] = 0.1 + 0.9*rng.Float64()
		}
		var f agg.Func
		switch kind {
		case WeightedSum:
			f = agg.NewWeightedSum(weights)
		case WeightedAverage:
			f = agg.NewWeightedAverage(weights)
		default:
			return nil, fmt.Errorf("workload: unknown function kind %q", kind)
		}
		specs = append(specs, agg.Spec{Dest: d, Func: f})
	}
	return specs, nil
}

// drawSources samples cfg.SourcesPerDest distinct sources for destination
// d by hop distance. Buckets that run out of nodes have their probability
// renormalized over the remaining buckets; if hops 1..MaxHops cannot
// supply enough nodes, the hop limit is extended (networks smaller than
// the workload demands would otherwise be unusable).
func drawSources(g *graph.Undirected, d graph.NodeID, cfg Config, rng *rand.Rand) ([]graph.NodeID, error) {
	walk := g.Walk(d)
	if cfg.MaxHops == 0 {
		// Uniform over the whole reachable network.
		var candidates []graph.NodeID
		for u := 0; u < g.Len(); u++ {
			id := graph.NodeID(u)
			if id != d && walk.Hops(id) >= 0 {
				candidates = append(candidates, id)
			}
		}
		if len(candidates) < cfg.SourcesPerDest {
			return nil, fmt.Errorf("workload: destination %d can reach only %d nodes", d, len(candidates))
		}
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		out := append([]graph.NodeID(nil), candidates[:cfg.SourcesPerDest]...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	}

	// Bucket nodes by hop distance, each bucket ascending by ID, out to
	// the effective hop limit: MaxHops, extended past it only while the
	// buckets so far cannot supply enough sources. The walk explores no
	// further than the last bucket, and runs out only if d's whole
	// component is too small.
	buckets := [][]graph.NodeID{nil} // buckets[h]; d alone is at hop 0
	supply := 0
	for h := 1; h <= cfg.MaxHops || supply < cfg.SourcesPerDest; h++ {
		layer := walk.Layer(h)
		if layer == nil {
			break
		}
		b := slices.Clone(layer)
		slices.Sort(b)
		buckets = append(buckets, b)
		supply += len(b)
	}
	if supply < cfg.SourcesPerDest {
		return nil, fmt.Errorf("workload: destination %d can reach only %d nodes", d, supply)
	}
	limit := len(buckets) - 1

	// Bucket probabilities: d^(h-1) normalized. 0^0 = 1 by convention.
	weightOf := func(h int) float64 {
		if cfg.Dispersion == 0 {
			if h == 1 {
				return 1
			}
			return 0
		}
		return math.Pow(cfg.Dispersion, float64(h-1))
	}

	chosen := make(map[graph.NodeID]bool)
	for len(chosen) < cfg.SourcesPerDest {
		// Renormalize over buckets that still have unchosen nodes.
		type hb struct {
			h int
			w float64
		}
		var avail []hb
		sum := 0.0
		for h := 1; h <= limit; h++ {
			free := 0
			for _, id := range buckets[h] {
				if !chosen[id] {
					free++
				}
			}
			if free == 0 {
				continue
			}
			w := weightOf(h)
			if w > 0 {
				avail = append(avail, hb{h: h, w: w})
				sum += w
			}
		}
		if len(avail) == 0 {
			// Dispersion 0 exhausted hop 1 (or all weighted buckets empty):
			// fall back to the nearest hop with free nodes.
			for h := 1; h <= limit; h++ {
				for _, id := range buckets[h] {
					if !chosen[id] {
						avail = append(avail, hb{h: h, w: 1})
						sum = 1
						break
					}
				}
				if len(avail) > 0 {
					break
				}
			}
			if len(avail) == 0 {
				return nil, fmt.Errorf("workload: destination %d ran out of candidates", d)
			}
		}
		// Sample a bucket, then a free node uniformly inside it.
		x := rng.Float64() * sum
		h := avail[len(avail)-1].h
		for _, b := range avail {
			if x < b.w {
				h = b.h
				break
			}
			x -= b.w
		}
		var free []graph.NodeID
		for _, id := range buckets[h] {
			if !chosen[id] {
				free = append(free, id)
			}
		}
		chosen[free[rng.Intn(len(free))]] = true
	}

	out := make([]graph.NodeID, 0, len(chosen))
	for id := range chosen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
