// Package agg implements the paper's generalized algebraic aggregation
// functions (Section 2.1): for a destination d with sources s1..sn,
//
//	f_d(v1..vn) = e_d( m_d({ w_{d,s1}(v1), ..., w_{d,sn}(vn) }) )
//
// where each pre-aggregation function w_{d,s} maps a raw reading to a
// constant-size partial aggregate record, the merge m_d is associative and
// commutative over records, and the evaluator e_d extracts the final
// answer. The generalization over classical algebraic aggregates is that
// each source may be transformed differently (per-source weights), which is
// what makes a partial record destination-specific.
package agg

import (
	"fmt"
	"sort"

	"m2m/internal/graph"
)

// Wire sizes (bytes). A raw reading is a 4-byte fixed-point value; every
// message unit additionally carries a 2-byte node tag (source ID for raw
// units, destination ID for records).
const (
	RawValueBytes = 4
	TagBytes      = 2
)

// RawUnitBytes is the on-wire size of one raw message unit.
const RawUnitBytes = RawValueBytes + TagBytes

// Record is a constant-size partial aggregate record. Its length and slot
// meaning are fixed per Func.
type Record []float64

// Clone returns an independent copy of r.
func (r Record) Clone() Record { return append(Record(nil), r...) }

// Func is one destination's aggregation function.
type Func interface {
	// Name identifies the function kind (for plan dumps and tests).
	Name() string
	// Sources returns the source set in ascending order.
	Sources() []graph.NodeID
	// HasSource reports whether s contributes to the function.
	HasSource(s graph.NodeID) bool
	// PreAgg transforms source s's raw reading into a one-source record.
	// It panics if s is not a source of the function.
	PreAgg(s graph.NodeID, v float64) Record
	// Merge combines two partial records. It must be associative and
	// commutative.
	Merge(a, b Record) Record
	// Eval computes the final aggregate from a record that merged every
	// source's pre-aggregated reading.
	Eval(r Record) float64
	// RecordBytes is the on-wire payload size of one record, excluding the
	// destination tag.
	RecordBytes() int
	// Linear reports whether the function commutes with differencing:
	// merging pre-aggregated deltas onto a previous record yields the record
	// of the updated values. Linear functions support temporal suppression
	// (Section 3) without recomputation.
	Linear() bool
}

// UnitBytes returns the on-wire size of one record unit for f, including
// the destination tag.
func UnitBytes(f Func) int { return f.RecordBytes() + TagBytes }

// Eval computes f over a full reading assignment (map from node to value).
// It is the out-of-network reference evaluation used to validate plans.
func Eval(f Func, readings map[graph.NodeID]float64) (float64, error) {
	var acc Record
	for _, s := range f.Sources() {
		v, ok := readings[s]
		if !ok {
			return 0, fmt.Errorf("agg: missing reading for source %d", s)
		}
		r := f.PreAgg(s, v)
		if acc == nil {
			acc = r
		} else {
			acc = f.Merge(acc, r)
		}
	}
	if acc == nil {
		return 0, fmt.Errorf("agg: function %q has no sources", f.Name())
	}
	return f.Eval(acc), nil
}

// weighted holds the shared per-source weight table.
type weighted struct {
	weights map[graph.NodeID]float64
	sorted  []graph.NodeID
}

func newWeighted(weights map[graph.NodeID]float64) weighted {
	w := weighted{weights: make(map[graph.NodeID]float64, len(weights))}
	for s, x := range weights {
		w.weights[s] = x
		w.sorted = append(w.sorted, s)
	}
	sort.Slice(w.sorted, func(i, j int) bool { return w.sorted[i] < w.sorted[j] })
	return w
}

func (w weighted) Sources() []graph.NodeID { return append([]graph.NodeID(nil), w.sorted...) }

func (w weighted) HasSource(s graph.NodeID) bool {
	_, ok := w.weights[s]
	return ok
}

func (w weighted) weight(name string, s graph.NodeID) float64 {
	x, ok := w.weights[s]
	if !ok {
		panic(fmt.Sprintf("agg: node %d is not a source of this %s", s, name))
	}
	return x
}

// Weight returns the pre-aggregation coefficient stored for source s
// (1 for the unweighted aggregates). It panics if s is not a source;
// callers hold the same table the in-network pre-aggregation entries are
// built from. All aggregate types in this package expose it, which is what
// the wire layer serializes into pre-aggregation table entries.
func (w weighted) Weight(s graph.NodeID) float64 { return w.weight("aggregate", s) }

// tabled is the body of the seven table-driven builtins: the weight table
// and the family's Kind, whose record algebra (kinds.go) every method
// below delegates to, so each family's algebra is defined once. The
// weight is the pre-aggregation parameter; CountAbove overrides the
// pre-aggregation methods to pass its threshold instead.
type tabled struct {
	weighted
	kind Kind
}

func newTabled(k Kind, weights map[graph.NodeID]float64) tabled {
	return tabled{weighted: newWeighted(weights), kind: k}
}

// Name identifies the family: "wsum", "wavg", "wstddev", "min", "max",
// "range" or "countabove".
func (t tabled) Name() string { return tabledNames[t.kind] }

func (t tabled) PreAgg(s graph.NodeID, v float64) Record {
	r := make(Record, t.kind.Slots())
	t.PreAggInto(r, s, v)
	return r
}

func (t tabled) Merge(a, b Record) Record {
	r := a.Clone()
	t.kind.MergeInto(r, b)
	return r
}

func (t tabled) Eval(r Record) float64 { return t.kind.Eval(r) }

// RecordLen implements InPlace.
func (t tabled) RecordLen() int { return t.kind.Slots() }

// PreAggInto implements InPlace.
func (t tabled) PreAggInto(dst Record, s graph.NodeID, v float64) {
	t.kind.PreAggInto(dst, t.weight(t.Name(), s), v)
}

// MergeInto implements InPlace.
func (t tabled) MergeInto(dst, src Record) { t.kind.MergeInto(dst, src) }

// WeightedSum computes Σ α_s·v_s. Record layout: [sum].
type WeightedSum struct{ tabled }

// NewWeightedSum returns a weighted sum over the given per-source weights.
func NewWeightedSum(weights map[graph.NodeID]float64) *WeightedSum {
	return &WeightedSum{newTabled(KindWeightedSum, weights)}
}

func (f *WeightedSum) RecordBytes() int { return 4 }
func (f *WeightedSum) Linear() bool     { return true }

// WeightedAverage computes (Σ α_s·v_s)/n, the paper's running example.
// Record layout: [weightedSum, count]; the count costs an extra 2-byte
// integer on the wire, which is why its record outweighs a raw value.
type WeightedAverage struct{ tabled }

// NewWeightedAverage returns a weighted average over the given weights.
func NewWeightedAverage(weights map[graph.NodeID]float64) *WeightedAverage {
	return &WeightedAverage{newTabled(KindWeightedAverage, weights)}
}

func (f *WeightedAverage) RecordBytes() int { return 4 + 2 }
func (f *WeightedAverage) Linear() bool     { return false }

// WeightedStdDev computes the standard deviation of the weighted inputs
// α_s·v_s. Record layout: [sum, sumSquares, count].
type WeightedStdDev struct{ tabled }

// NewWeightedStdDev returns a weighted standard deviation aggregate.
func NewWeightedStdDev(weights map[graph.NodeID]float64) *WeightedStdDev {
	return &WeightedStdDev{newTabled(KindWeightedStdDev, weights)}
}

func (f *WeightedStdDev) RecordBytes() int { return 4 + 4 + 2 }
func (f *WeightedStdDev) Linear() bool     { return false }

// Min computes the minimum raw reading. Record layout: [min].
type Min struct{ tabled }

// NewMin returns a minimum aggregate over the given sources.
func NewMin(sources []graph.NodeID) *Min {
	return &Min{newTabled(KindMin, unitWeights(sources))}
}

func (f *Min) RecordBytes() int { return 4 }
func (f *Min) Linear() bool     { return false }

// Max computes the maximum raw reading. Record layout: [max].
type Max struct{ tabled }

// NewMax returns a maximum aggregate over the given sources.
func NewMax(sources []graph.NodeID) *Max {
	return &Max{newTabled(KindMax, unitWeights(sources))}
}

func (f *Max) RecordBytes() int { return 4 }
func (f *Max) Linear() bool     { return false }

// Range computes max−min, used by the wildlife example to detect motion
// spread. Record layout: [min, max].
type Range struct{ tabled }

// NewRange returns a range (max−min) aggregate over the given sources.
func NewRange(sources []graph.NodeID) *Range {
	return &Range{newTabled(KindRange, unitWeights(sources))}
}

func (f *Range) RecordBytes() int { return 4 + 4 }
func (f *Range) Linear() bool     { return false }

// CountAbove counts sources whose reading exceeds a threshold (e.g. "how
// many motion sensors fired"). Record layout: [count].
type CountAbove struct {
	tabled
	Threshold float64
}

// NewCountAbove returns a threshold-count aggregate.
func NewCountAbove(sources []graph.NodeID, threshold float64) *CountAbove {
	return &CountAbove{tabled: newTabled(KindCountAbove, unitWeights(sources)), Threshold: threshold}
}

func (f *CountAbove) PreAgg(s graph.NodeID, v float64) Record {
	r := make(Record, 1)
	f.PreAggInto(r, s, v)
	return r
}

// PreAggInto implements InPlace.
func (f *CountAbove) PreAggInto(dst Record, s graph.NodeID, v float64) {
	f.weight(f.Name(), s) // membership check
	f.kind.PreAggInto(dst, f.Threshold, v)
}

func (f *CountAbove) RecordBytes() int { return 2 }
func (f *CountAbove) Linear() bool     { return false }

func unitWeights(sources []graph.NodeID) map[graph.NodeID]float64 {
	m := make(map[graph.NodeID]float64, len(sources))
	for _, s := range sources {
		m[s] = 1
	}
	return m
}

// Spec binds a destination node to its aggregation function. The set of
// Specs in play is the network's aggregation workload.
type Spec struct {
	Dest graph.NodeID
	Func Func
}

// Validate checks that the spec has at least one source. The paper assumes
// at most one function per destination; the Workload type enforces that.
func (sp Spec) Validate() error {
	_, err := sp.ValidSources()
	return err
}

// ValidSources returns the spec's sources (Func.Sources), or Validate's
// error, for callers that need both: Func.Sources may copy the list.
func (sp Spec) ValidSources() ([]graph.NodeID, error) {
	if sp.Func == nil {
		return nil, fmt.Errorf("agg: spec for destination %d has nil function", sp.Dest)
	}
	sources := sp.Func.Sources()
	if len(sources) == 0 {
		return nil, fmt.Errorf("agg: spec for destination %d has no sources", sp.Dest)
	}
	return sources, nil
}
