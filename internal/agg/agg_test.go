package agg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"m2m/internal/graph"
)

func weights3() map[graph.NodeID]float64 {
	return map[graph.NodeID]float64{1: 0.5, 2: 2.0, 7: -1.0}
}

func readings3() map[graph.NodeID]float64 {
	return map[graph.NodeID]float64{1: 10, 2: 3, 7: 4}
}

func TestWeightedSum(t *testing.T) {
	f := NewWeightedSum(weights3())
	got, err := Eval(f, readings3())
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*10 + 2.0*3 + (-1.0)*4
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("wsum = %v, want %v", got, want)
	}
}

func TestWeightedAverage(t *testing.T) {
	f := NewWeightedAverage(weights3())
	got, err := Eval(f, readings3())
	if err != nil {
		t.Fatal(err)
	}
	want := (0.5*10 + 2.0*3 + (-1.0)*4) / 3
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("wavg = %v, want %v", got, want)
	}
}

func TestWeightedStdDev(t *testing.T) {
	// Weighted inputs: 5, 6, -4. Mean = 7/3.
	f := NewWeightedStdDev(weights3())
	got, err := Eval(f, readings3())
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{5, 6, -4}
	mean := (xs[0] + xs[1] + xs[2]) / 3
	variance := 0.0
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= 3
	if want := math.Sqrt(variance); math.Abs(got-want) > 1e-9 {
		t.Errorf("wstddev = %v, want %v", got, want)
	}
}

func TestMinMaxRange(t *testing.T) {
	srcs := []graph.NodeID{1, 2, 7}
	r := readings3()
	if got, _ := Eval(NewMin(srcs), r); got != 3 {
		t.Errorf("min = %v", got)
	}
	if got, _ := Eval(NewMax(srcs), r); got != 10 {
		t.Errorf("max = %v", got)
	}
	if got, _ := Eval(NewRange(srcs), r); got != 7 {
		t.Errorf("range = %v", got)
	}
}

func TestCountAbove(t *testing.T) {
	srcs := []graph.NodeID{1, 2, 7}
	f := NewCountAbove(srcs, 3.5)
	got, err := Eval(f, readings3())
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 { // readings 10 and 4 exceed 3.5
		t.Errorf("countabove = %v, want 2", got)
	}
}

func TestSourcesSortedAndMembership(t *testing.T) {
	f := NewWeightedSum(weights3())
	s := f.Sources()
	if len(s) != 3 || s[0] != 1 || s[1] != 2 || s[2] != 7 {
		t.Errorf("Sources = %v", s)
	}
	if !f.HasSource(7) || f.HasSource(3) {
		t.Error("HasSource wrong")
	}
}

func TestPreAggPanicsOnNonSource(t *testing.T) {
	f := NewWeightedSum(weights3())
	defer func() {
		if recover() == nil {
			t.Error("PreAgg on non-source did not panic")
		}
	}()
	f.PreAgg(99, 1)
}

func TestEvalErrors(t *testing.T) {
	f := NewWeightedSum(weights3())
	if _, err := Eval(f, map[graph.NodeID]float64{1: 1}); err == nil {
		t.Error("missing reading accepted")
	}
	empty := NewWeightedSum(nil)
	if _, err := Eval(empty, nil); err == nil {
		t.Error("empty function evaluated")
	}
}

// allFuncs builds one instance of every aggregate over the given sources.
func allFuncs(srcs []graph.NodeID, rng *rand.Rand) []Func {
	w := make(map[graph.NodeID]float64, len(srcs))
	for _, s := range srcs {
		w[s] = rng.Float64()*4 - 2
	}
	return []Func{
		NewWeightedSum(w),
		NewWeightedAverage(w),
		NewWeightedStdDev(w),
		NewMin(srcs),
		NewMax(srcs),
		NewRange(srcs),
		NewCountAbove(srcs, 0),
	}
}

func TestMergeCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	srcs := []graph.NodeID{0, 1, 2}
	for _, f := range allFuncs(srcs, rng) {
		for trial := 0; trial < 50; trial++ {
			a := f.PreAgg(0, rng.NormFloat64()*10)
			b := f.PreAgg(1, rng.NormFloat64()*10)
			c := f.PreAgg(2, rng.NormFloat64()*10)
			ab := f.Merge(a, b)
			ba := f.Merge(b, a)
			for i := range ab {
				if math.Abs(ab[i]-ba[i]) > 1e-9 {
					t.Fatalf("%s: merge not commutative", f.Name())
				}
			}
			l := f.Merge(f.Merge(a, b), c)
			r := f.Merge(a, f.Merge(b, c))
			for i := range l {
				if math.Abs(l[i]-r[i]) > 1e-9 {
					t.Fatalf("%s: merge not associative", f.Name())
				}
			}
		}
	}
}

// TestMergeSplitInvariance checks the algebraic-aggregate law
// m(R1 ∪ R2) = m({m(R1), m(R2)}) by splitting a source set arbitrarily:
// any grouping of pre-aggregated records must evaluate identically.
func TestMergeSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	srcs := []graph.NodeID{0, 1, 2, 3, 4, 5}
	for _, f := range allFuncs(srcs, rng) {
		readings := make(map[graph.NodeID]float64)
		for _, s := range srcs {
			readings[s] = rng.NormFloat64() * 5
		}
		want, err := Eval(f, readings)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			// Random split into two groups, merge within groups, then across.
			var ra, rb Record
			for _, s := range srcs {
				rec := f.PreAgg(s, readings[s])
				if rng.Intn(2) == 0 && ra != nil || rb == nil && rng.Intn(2) == 0 {
					if rb == nil {
						rb = rec
					} else {
						rb = f.Merge(rb, rec)
					}
				} else {
					if ra == nil {
						ra = rec
					} else {
						ra = f.Merge(ra, rec)
					}
				}
			}
			var total Record
			switch {
			case ra == nil:
				total = rb
			case rb == nil:
				total = ra
			default:
				total = f.Merge(ra, rb)
			}
			if got := f.Eval(total); math.Abs(got-want) > 1e-9 {
				t.Fatalf("%s: split evaluation %v != direct %v", f.Name(), got, want)
			}
		}
	}
}

func TestWeightedSumLinearity(t *testing.T) {
	// For the linear aggregate, merging pre-aggregated deltas onto an old
	// record must equal the record of the new values (the suppression
	// update rule from Section 3).
	f := NewWeightedSum(weights3())
	old := map[graph.NodeID]float64{1: 10, 2: 3, 7: 4}
	deltas := map[graph.NodeID]float64{1: 2.5, 7: -1}

	var rec Record
	for s, v := range old {
		r := f.PreAgg(s, v)
		if rec == nil {
			rec = r
		} else {
			rec = f.Merge(rec, r)
		}
	}
	for s, dv := range deltas {
		rec = f.Merge(rec, f.PreAgg(s, dv))
	}

	updated := map[graph.NodeID]float64{1: 12.5, 2: 3, 7: 3}
	want, err := Eval(f, updated)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Eval(rec); math.Abs(got-want) > 1e-9 {
		t.Errorf("delta update = %v, want %v", got, want)
	}
	if !f.Linear() {
		t.Error("WeightedSum must report Linear")
	}
	if NewWeightedAverage(weights3()).Linear() {
		t.Error("WeightedAverage must not report Linear")
	}
}

func TestRecordBytesOrdering(t *testing.T) {
	// Paper: weighted-sum records equal raw size; weighted-average records
	// cost more (extra count).
	w := weights3()
	if NewWeightedSum(w).RecordBytes() != RawValueBytes {
		t.Error("wsum record should match raw value size")
	}
	if NewWeightedAverage(w).RecordBytes() <= RawValueBytes {
		t.Error("wavg record should exceed raw value size")
	}
	if UnitBytes(NewWeightedSum(w)) != RawUnitBytes {
		t.Error("wsum unit should match raw unit size")
	}
}

func TestRecordClone(t *testing.T) {
	r := Record{1, 2}
	c := r.Clone()
	c[0] = 99
	if r[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Dest: 1}).Validate(); err == nil {
		t.Error("nil func accepted")
	}
	if err := (Spec{Dest: 1, Func: NewWeightedSum(nil)}).Validate(); err == nil {
		t.Error("empty sources accepted")
	}
	if err := (Spec{Dest: 1, Func: NewWeightedSum(weights3())}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	// ValidSources fails exactly as Validate does, and otherwise returns
	// the sources.
	for _, sp := range []Spec{{Dest: 1}, {Dest: 1, Func: NewWeightedSum(nil)}} {
		if _, err := sp.ValidSources(); err == nil || err.Error() != sp.Validate().Error() {
			t.Errorf("ValidSources error %v, Validate %v", err, sp.Validate())
		}
	}
	f := NewWeightedSum(weights3())
	if got, err := (Spec{Dest: 1, Func: f}).ValidSources(); err != nil || !slices.Equal(got, f.Sources()) {
		t.Errorf("ValidSources = %v, %v; want %v", got, err, f.Sources())
	}
}

func TestQuickWeightedSumHomomorphism(t *testing.T) {
	// Property: pre-aggregating x+y equals merging pre-aggregations of x, y
	// for the linear function.
	f := NewWeightedSum(map[graph.NodeID]float64{0: 1.7})
	prop := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		x, y = math.Mod(x, 1e6), math.Mod(y, 1e6)
		lhs := f.PreAgg(0, x+y)
		rhs := f.Merge(f.PreAgg(0, x), f.PreAgg(0, y))
		return math.Abs(lhs[0]-rhs[0]) < 1e-6*(1+math.Abs(lhs[0]))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
