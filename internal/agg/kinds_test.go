package agg

import (
	"math"
	"math/rand"
	"testing"

	"m2m/internal/graph"
)

func TestKindOfAllFamilies(t *testing.T) {
	w := map[graph.NodeID]float64{1: 1}
	srcs := []graph.NodeID{1}
	cases := []struct {
		f    Func
		want Kind
	}{
		{NewWeightedSum(w), KindWeightedSum},
		{NewWeightedAverage(w), KindWeightedAverage},
		{NewWeightedStdDev(w), KindWeightedStdDev},
		{NewMin(srcs), KindMin},
		{NewMax(srcs), KindMax},
		{NewRange(srcs), KindRange},
		{NewCountAbove(srcs, 1), KindCountAbove},
	}
	seen := make(map[Kind]bool)
	for _, c := range cases {
		k, err := KindOf(c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.f.Name(), err)
		}
		if k != c.want {
			t.Errorf("%s: kind = %d, want %d", c.f.Name(), k, c.want)
		}
		if seen[k] {
			t.Errorf("duplicate kind %d", k)
		}
		seen[k] = true
	}
	if _, err := KindOf(nil); err == nil {
		t.Error("nil func accepted")
	}
}

func TestKindAlgebraMatchesFuncs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	srcs := []graph.NodeID{0, 1, 2}
	w := map[graph.NodeID]float64{0: 0.5, 1: -2, 2: 1.5}
	funcs := []Func{
		NewWeightedSum(w),
		NewWeightedAverage(w),
		NewWeightedStdDev(w),
		NewMin(srcs),
		NewMax(srcs),
		NewRange(srcs),
		NewCountAbove(srcs, 0.25),
	}
	for _, f := range funcs {
		k, err := KindOf(f)
		if err != nil {
			t.Fatal(err)
		}
		slots := k.Slots()
		for trial := 0; trial < 50; trial++ {
			var viaFunc, viaKind Record
			for _, s := range srcs {
				v := rng.NormFloat64() * 4
				pf := f.PreAgg(s, v)
				if len(pf) != slots {
					t.Fatalf("%s: PreAgg arity %d != Slots %d", f.Name(), len(pf), slots)
				}
				param, err := ParamOf(f, s)
				if err != nil {
					t.Fatal(err)
				}
				pk, err := PreAggByKind(k, param, v)
				if err != nil {
					t.Fatal(err)
				}
				if viaFunc == nil {
					viaFunc, viaKind = pf, pk
					continue
				}
				viaFunc = f.Merge(viaFunc, pf)
				viaKind, err = MergeByKind(k, viaKind, pk)
				if err != nil {
					t.Fatal(err)
				}
			}
			want := f.Eval(viaFunc)
			got, err := EvalByKind(k, viaKind)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%s: kind algebra %v != func %v", f.Name(), got, want)
			}
		}
	}
}

func TestKindErrors(t *testing.T) {
	if _, err := PreAggByKind(Kind(0), 1, 1); err == nil {
		t.Error("unknown kind PreAgg accepted")
	}
	if _, err := MergeByKind(Kind(0), Record{1}, Record{1}); err == nil {
		t.Error("unknown kind Merge accepted")
	}
	if _, err := EvalByKind(Kind(0), Record{1}); err == nil {
		t.Error("unknown kind Eval accepted")
	}
	if _, err := MergeByKind(KindRange, Record{1}, Record{1, 2}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := EvalByKind(KindWeightedStdDev, Record{1, 2}); err == nil {
		t.Error("short record accepted")
	}
}

func TestParamOf(t *testing.T) {
	w := map[graph.NodeID]float64{3: 2.5}
	if p, err := ParamOf(NewWeightedSum(w), 3); err != nil || p != 2.5 {
		t.Errorf("wsum param = %v, %v", p, err)
	}
	if p, err := ParamOf(NewCountAbove([]graph.NodeID{3}, 0.7), 3); err != nil || p != 0.7 {
		t.Errorf("countabove param = %v, %v", p, err)
	}
	if p, err := ParamOf(NewMin([]graph.NodeID{3}), 3); err != nil || p != 1 {
		t.Errorf("min param = %v, %v", p, err)
	}
	if _, err := ParamOf(NewWeightedSum(w), 9); err == nil {
		t.Error("non-source accepted")
	}
}

func TestWeightAccessor(t *testing.T) {
	f := NewWeightedAverage(map[graph.NodeID]float64{2: -0.75})
	if got := f.Weight(2); got != -0.75 {
		t.Errorf("Weight = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Weight of non-source did not panic")
		}
	}()
	f.Weight(5)
}

func TestRebuildPreservesWeightsAndThreshold(t *testing.T) {
	w := map[graph.NodeID]float64{1: 0.25, 2: 0.5, 3: 0.75}
	f, err := Rebuild(NewWeightedSum(w), func(s graph.NodeID) bool { return s != 2 })
	if err != nil {
		t.Fatal(err)
	}
	if got := f.(*WeightedSum).Weight(3); got != 0.75 {
		t.Errorf("rebuilt weight = %v", got)
	}
	ca, err := Rebuild(NewCountAbove([]graph.NodeID{1, 2}, 9.5), func(s graph.NodeID) bool { return s == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if got := ca.(*CountAbove).Threshold; got != 9.5 {
		t.Errorf("rebuilt threshold = %v", got)
	}
}

// fakeFunc exercises the unknown-type paths of KindOf and Rebuild.
type fakeFunc struct{ weighted }

func (fakeFunc) Name() string                        { return "fake" }
func (fakeFunc) PreAgg(graph.NodeID, float64) Record { return Record{0} }
func (fakeFunc) Merge(a, b Record) Record            { return a }
func (fakeFunc) Eval(Record) float64                 { return 0 }
func (fakeFunc) RecordBytes() int                    { return 1 }
func (fakeFunc) Linear() bool                        { return false }

func TestUnknownFuncType(t *testing.T) {
	f := fakeFunc{newWeighted(map[graph.NodeID]float64{1: 1})}
	if _, err := KindOf(f); err == nil {
		t.Error("unknown type accepted by KindOf")
	}
	if _, err := Rebuild(f, func(graph.NodeID) bool { return true }); err == nil {
		t.Error("unknown type accepted by Rebuild")
	}
}
