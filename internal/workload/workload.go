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
	dr := &drawer{g: g, cfg: cfg, walk: g.Walk(0)}
	specs := make([]agg.Spec, 0, nDests)
	for i := 0; i < nDests; i++ {
		d := graph.NodeID(perm[i])
		sources, err := dr.draw(d, rng)
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

// drawer samples source sets destination by destination. It keeps one
// walk, reset per destination, and the candidate buckets in one flat
// buffer, so a workload allocates its sampling storage once.
type drawer struct {
	g    *graph.Undirected
	cfg  Config
	walk *graph.Walk
	// buf holds the candidates: bucket h (hop distance h) is
	// buf[start[h]:start[h]+free[h]], ascending by ID, and holds only the
	// nodes not chosen yet.
	buf   []graph.NodeID
	start []int
	free  []int
	w     []float64 // w[h] is bucket h's unnormalized probability
}

// draw samples cfg.SourcesPerDest distinct sources for destination d by
// hop distance. Buckets that run out of nodes have their probability
// renormalized over the remaining buckets; if hops 1..MaxHops cannot
// supply enough nodes, the hop limit is extended (networks smaller than
// the workload demands would otherwise be unusable). The sources come
// back sorted.
func (dr *drawer) draw(d graph.NodeID, rng *rand.Rand) ([]graph.NodeID, error) {
	g, cfg, walk := dr.g, dr.cfg, dr.walk
	walk.Reset(d)
	if cfg.MaxHops == 0 {
		// Uniform over the whole reachable network.
		candidates := dr.buf[:0]
		for u := 0; u < g.Len(); u++ {
			id := graph.NodeID(u)
			if id != d && walk.Hops(id) >= 0 {
				candidates = append(candidates, id)
			}
		}
		dr.buf = candidates
		if len(candidates) < cfg.SourcesPerDest {
			return nil, fmt.Errorf("workload: destination %d can reach only %d nodes", d, len(candidates))
		}
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		out := slices.Clone(candidates[:cfg.SourcesPerDest])
		slices.Sort(out)
		return out, nil
	}

	// Bucket nodes by hop distance, each bucket ascending by ID, out to
	// the effective hop limit: MaxHops, extended past it only while the
	// buckets so far cannot supply enough sources. The walk explores no
	// further than the last bucket, and runs out only if d's whole
	// component is too small.
	dr.buf = dr.buf[:0]
	dr.start = append(dr.start[:0], 0) // bucket 0 (d alone) is empty
	dr.free = append(dr.free[:0], 0)
	supply := 0
	for h := 1; h <= cfg.MaxHops || supply < cfg.SourcesPerDest; h++ {
		layer := walk.Layer(h)
		if layer == nil {
			break
		}
		at := len(dr.buf)
		dr.buf = append(dr.buf, layer...)
		slices.Sort(dr.buf[at:])
		dr.start = append(dr.start, at)
		dr.free = append(dr.free, len(layer))
		supply += len(layer)
	}
	if supply < cfg.SourcesPerDest {
		return nil, fmt.Errorf("workload: destination %d can reach only %d nodes", d, supply)
	}
	limit := len(dr.start) - 1

	// Bucket probabilities: d^(h-1) normalized. 0^0 = 1 by convention.
	dr.w = slices.Grow(dr.w[:0], limit+1)[:limit+1]
	for h := 1; h <= limit; h++ {
		switch {
		case cfg.Dispersion != 0:
			dr.w[h] = math.Pow(cfg.Dispersion, float64(h-1))
		case h == 1:
			dr.w[h] = 1
		default:
			dr.w[h] = 0
		}
	}

	out := make([]graph.NodeID, 0, cfg.SourcesPerDest)
	for len(out) < cfg.SourcesPerDest {
		// Renormalize over buckets that still have unchosen nodes.
		sum, last := 0.0, 0
		for h := 1; h <= limit; h++ {
			if dr.free[h] > 0 && dr.w[h] > 0 {
				sum += dr.w[h]
				last = h
			}
		}
		// Sample a bucket, then a free node uniformly inside it. The
		// fallback below draws x too, as a choice among one bucket.
		x := rng.Float64() * sum
		h := last
		if last == 0 {
			// Dispersion 0 exhausted hop 1 (or all weighted buckets empty):
			// fall back to the nearest hop with free nodes.
			for h = 1; h <= limit && dr.free[h] == 0; h++ {
			}
			if h > limit {
				return nil, fmt.Errorf("workload: destination %d ran out of candidates", d)
			}
		}
		for b := 1; b < last; b++ {
			if dr.free[b] == 0 || dr.w[b] == 0 {
				continue
			}
			if x < dr.w[b] {
				h = b
				break
			}
			x -= dr.w[b]
		}
		// Take the k-th free node and close the gap, so the bucket stays
		// ascending and holds only free nodes.
		k := rng.Intn(dr.free[h])
		bucket := dr.buf[dr.start[h] : dr.start[h]+dr.free[h]]
		out = append(out, bucket[k])
		copy(bucket[k:], bucket[k+1:])
		dr.free[h]--
	}
	slices.Sort(out)
	return out, nil
}
