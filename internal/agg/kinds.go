package agg

import (
	"fmt"
	"math"

	"m2m/internal/graph"
)

// Kind is the 1-byte wire identifier of an aggregation function family.
// Intermediate nodes executing from disseminated tables need only the
// kind: merging and evaluating a record are weight-independent, and
// pre-aggregation takes the per-source parameter stored in the
// pre-aggregation table (the weight for the weighted families, the
// threshold for CountAbove, unused otherwise).
type Kind byte

// Function family identifiers.
const (
	KindWeightedSum Kind = iota + 1
	KindWeightedAverage
	KindWeightedStdDev
	KindMin
	KindMax
	KindRange
	KindCountAbove
	KindQDigest
	KindHLL
	KindTrimmedMean
)

// KindOf returns the wire identifier of f's family.
func KindOf(f Func) (Kind, error) {
	switch f.(type) {
	case *WeightedSum:
		return KindWeightedSum, nil
	case *WeightedAverage:
		return KindWeightedAverage, nil
	case *WeightedStdDev:
		return KindWeightedStdDev, nil
	case *Min:
		return KindMin, nil
	case *Max:
		return KindMax, nil
	case *Range:
		return KindRange, nil
	case *CountAbove:
		return KindCountAbove, nil
	case *QDigest:
		return KindQDigest, nil
	case *HyperLogLog:
		return KindHLL, nil
	case *TrimmedMean:
		return KindTrimmedMean, nil
	default:
		return 0, fmt.Errorf("agg: unknown function type %T", f)
	}
}

// Configured reports whether k's record algebra depends on function-level
// configuration (histogram domain and resolution, register count) that the
// per-source parameter byte cannot carry. Table-driven execution
// (PreAggByKind and friends) is unsupported for these kinds; nodes need
// the full Func.
func Configured(k Kind) bool {
	switch k {
	case KindQDigest, KindHLL, KindTrimmedMean:
		return true
	}
	return false
}

// ParamOf returns the per-source parameter a node must store to
// pre-aggregate source s for function f: the weight for the weighted
// families, the threshold for CountAbove, 1 otherwise.
func ParamOf(f Func, s graph.NodeID) (float64, error) {
	if !f.HasSource(s) {
		return 0, fmt.Errorf("agg: %d is not a source of this %s", s, f.Name())
	}
	switch v := f.(type) {
	case *CountAbove:
		return v.Threshold, nil
	default:
		if wf, ok := f.(interface{ Weight(graph.NodeID) float64 }); ok {
			return wf.Weight(s), nil
		}
	}
	return 1, nil
}

// tabledNames are the Func names of the table-driven kinds.
var tabledNames = [...]string{
	KindWeightedSum:     "wsum",
	KindWeightedAverage: "wavg",
	KindWeightedStdDev:  "wstddev",
	KindMin:             "min",
	KindMax:             "max",
	KindRange:           "range",
	KindCountAbove:      "countabove",
}

// The record algebra of the seven table-driven kinds follows. Nodes
// executing from disseminated tables (PreAggByKind and friends), the
// builtin Funcs and the compiled round program all fold records through
// these methods, so each family's algebra is defined once. The methods
// expect a table-driven kind and records of its arity, and do not check
// either. Every product that is later added is written float64(x*y): the
// explicit conversion forbids fusing it into a multiply-add (Go spec,
// "Floating-point operators"), which arm64 would otherwise emit and which
// would change the result's last bit between executors.

// TableDriven reports whether k's algebra needs nothing but the
// per-source parameter: the seven non-sketch kinds.
func (k Kind) TableDriven() bool { return k >= KindWeightedSum && k <= KindCountAbove }

// Slots returns the record arity of a table-driven kind, 0 otherwise.
func (k Kind) Slots() int {
	switch k {
	case KindWeightedSum, KindMin, KindMax, KindCountAbove:
		return 1
	case KindWeightedAverage, KindRange:
		return 2
	case KindWeightedStdDev:
		return 3
	}
	return 0
}

// Scalar reports whether k's record is one slot, which PreAgg1 and
// Merge1 fold in a register.
func (k Kind) Scalar() bool { return k.Slots() == 1 }

// PreAgg1 is PreAggInto for a Scalar kind, returning the record's slot.
func (k Kind) PreAgg1(param, v float64) float64 {
	switch k {
	case KindWeightedSum:
		return float64(param * v)
	case KindCountAbove:
		if v > param {
			return 1
		}
		return 0
	}
	return v // KindMin, KindMax
}

// Merge1 is MergeInto for a Scalar kind over the records' slots. Min and
// max have math.Min/math.Max semantics, so the merge is commutative at
// ±0 and propagates NaN.
func (k Kind) Merge1(a, b float64) float64 {
	if k == KindMin || k == KindMax {
		return k.extreme(a, b)
	}
	return a + b // KindWeightedSum, KindCountAbove
}

// extreme keeps Merge1 small enough to inline into the round loop.
func (k Kind) extreme(a, b float64) float64 {
	if k == KindMin {
		return math.Min(a, b)
	}
	return math.Max(a, b)
}

// PreAggInto writes the one-source record of reading v into dst, using
// the source's pre-aggregation parameter (see ParamOf).
func (k Kind) PreAggInto(dst Record, param, v float64) {
	switch k {
	case KindWeightedAverage:
		dst[0] = float64(param * v)
		dst[1] = 1
	case KindWeightedStdDev:
		x := float64(param * v)
		dst[0] = x
		dst[1] = float64(x * x)
		dst[2] = 1
	case KindRange:
		dst[0] = v
		dst[1] = v
	default:
		dst[0] = k.PreAgg1(param, v)
	}
}

// MergeInto folds src into dst: dst = dst ⊕ src.
func (k Kind) MergeInto(dst, src Record) {
	switch k {
	case KindWeightedAverage:
		dst[0] = dst[0] + src[0]
		dst[1] = dst[1] + src[1]
	case KindWeightedStdDev:
		dst[0] = dst[0] + src[0]
		dst[1] = dst[1] + src[1]
		dst[2] = dst[2] + src[2]
	case KindRange:
		dst[0] = math.Min(dst[0], src[0])
		dst[1] = math.Max(dst[1], src[1])
	default:
		dst[0] = k.Merge1(dst[0], src[0])
	}
}

// Eval extracts the aggregate from a record that merged every source.
func (k Kind) Eval(r Record) float64 {
	switch k {
	case KindWeightedAverage:
		return r[0] / r[1]
	case KindWeightedStdDev:
		mean := r[0] / r[2]
		return math.Sqrt(math.Max(0, r[1]/r[2]-float64(mean*mean)))
	case KindRange:
		return r[1] - r[0]
	}
	return r[0]
}

// kindErr distinguishes a genuinely unknown kind from a sketch kind whose
// algebra needs function-specific configuration the table cannot hold.
func kindErr(k Kind) error {
	if Configured(k) {
		return fmt.Errorf("agg: kind %d requires function-specific configuration; table-driven execution is unsupported", k)
	}
	return fmt.Errorf("agg: unknown kind %d", k)
}

// PreAggByKind pre-aggregates one reading using the family's per-source
// parameter.
func PreAggByKind(k Kind, param, v float64) (Record, error) {
	if !k.TableDriven() {
		return nil, kindErr(k)
	}
	r := make(Record, k.Slots())
	k.PreAggInto(r, param, v)
	return r, nil
}

// MergeByKind merges two records of the family.
func MergeByKind(k Kind, a, b Record) (Record, error) {
	if !k.TableDriven() {
		return nil, kindErr(k)
	}
	if n := k.Slots(); len(a) != n || len(b) != n {
		return nil, fmt.Errorf("agg: kind %d records need %d slots (got %d, %d)", k, n, len(a), len(b))
	}
	r := a.Clone()
	k.MergeInto(r, b)
	return r, nil
}

// EvalByKind evaluates a complete record of the family.
func EvalByKind(k Kind, r Record) (float64, error) {
	if !k.TableDriven() {
		return 0, kindErr(k)
	}
	if n := k.Slots(); len(r) != n {
		return 0, fmt.Errorf("agg: kind %d record needs %d slots (got %d)", k, n, len(r))
	}
	return k.Eval(r), nil
}
