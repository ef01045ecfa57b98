package agg

import (
	"math"
	"strings"
	"testing"

	"m2m/internal/graph"
)

func sketchSources(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

func mergeAll(t *testing.T, f Func, readings map[graph.NodeID]float64) Record {
	t.Helper()
	var acc Record
	for _, s := range f.Sources() {
		r := f.PreAgg(s, readings[s])
		if acc == nil {
			acc = r
		} else {
			acc = f.Merge(acc, r)
		}
	}
	return acc
}

func TestQDigestQuantiles(t *testing.T) {
	srcs := sketchSources(100)
	f, err := NewQDigest(srcs, 6, 0, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	readings := make(map[graph.NodeID]float64, len(srcs))
	for i, s := range srcs {
		readings[s] = float64(i)
	}
	rec := mergeAll(t, f, readings)
	bucketW := 100.0 / 64
	if got := f.Eval(rec); math.Abs(got-49.5) > bucketW {
		t.Errorf("median: got %g, want 49.5 ± %g", got, bucketW)
	}
	for _, tc := range []struct {
		q, want float64
	}{{0, 0}, {0.25, 24.75}, {0.9, 89.1}, {1, 99}} {
		fq, err := NewQDigest(srcs, 6, 0, 100, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := fq.Eval(rec); math.Abs(got-tc.want) > bucketW {
			t.Errorf("q=%g: got %g, want %g ± %g", tc.q, got, tc.want, bucketW)
		}
	}
}

func TestHistogramClamping(t *testing.T) {
	srcs := sketchSources(4)
	f, err := NewQDigest(srcs, 4, 0, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-5, math.Inf(-1), math.NaN()} {
		r := f.PreAgg(0, v)
		if r[0] != 1 {
			t.Errorf("reading %v should clamp to bucket 0, record %v", v, r)
		}
	}
	for _, v := range []float64{10, 999, math.Inf(1)} {
		r := f.PreAgg(0, v)
		if r[len(r)-1] != 1 {
			t.Errorf("reading %v should clamp to the top bucket, record %v", v, r)
		}
	}
	// The rounding edge just under hi must stay in range.
	r := f.PreAgg(0, math.Nextafter(10, 0))
	if r[len(r)-1] != 1 {
		t.Errorf("reading just under hi landed in %v", r)
	}
}

func TestTrimmedMeanRobustness(t *testing.T) {
	srcs := sketchSources(20)
	f, err := NewTrimmedMean(srcs, 6, 0, 100, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	readings := make(map[graph.NodeID]float64, len(srcs))
	for _, s := range srcs {
		readings[s] = 50
	}
	// A quarter of the sources lie wildly; the trimmed mean should not care.
	for i := 0; i < 5; i++ {
		readings[srcs[i]] = 100000
	}
	rec := mergeAll(t, f, readings)
	bucketW := 100.0 / 64
	if got := f.Eval(rec); math.Abs(got-50) > bucketW {
		t.Errorf("trimmed mean with 25%% outliers: got %g, want 50 ± %g", got, bucketW)
	}
	// The untrimmed mean over the same clamped histogram diverges.
	plain, err := NewTrimmedMean(srcs, 6, 0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.Eval(rec); got < 60 {
		t.Errorf("untrimmed mean should be dragged up by the outlier mass, got %g", got)
	}
}

func TestHyperLogLogEstimate(t *testing.T) {
	srcs := sketchSources(200)
	f, err := NewHyperLogLog(srcs, 8)
	if err != nil {
		t.Fatal(err)
	}
	readings := make(map[graph.NodeID]float64, len(srcs))
	for i, s := range srcs {
		readings[s] = float64(i % 50) // 50 distinct values
	}
	rec := mergeAll(t, f, readings)
	if got := f.Eval(rec); math.Abs(got-50) > 50*0.15 {
		t.Errorf("distinct estimate: got %g, want 50 ± 15%%", got)
	}

	// All-identical readings are one distinct value.
	for _, s := range srcs {
		readings[s] = 7.5
	}
	rec = mergeAll(t, f, readings)
	if got := f.Eval(rec); math.Abs(got-1) > 0.5 {
		t.Errorf("single distinct value: got %g, want ~1", got)
	}
}

func TestSketchConstructorValidation(t *testing.T) {
	srcs := sketchSources(3)
	if _, err := NewQDigest(srcs, 0, 0, 100, 0.5); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := NewQDigest(srcs, maxSketchBits+1, 0, 100, 0.5); err == nil {
		t.Error("oversized bits accepted")
	}
	if _, err := NewQDigest(srcs, 6, 100, 100, 0.5); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := NewQDigest(srcs, 6, math.NaN(), 100, 0.5); err == nil {
		t.Error("NaN domain accepted")
	}
	if _, err := NewQDigest(srcs, 6, 0, 100, 1.5); err == nil {
		t.Error("quantile > 1 accepted")
	}
	if _, err := NewTrimmedMean(srcs, 6, 0, 100, 0.5); err == nil {
		t.Error("trim=0.5 accepted")
	}
	if _, err := NewTrimmedMean(srcs, 6, 0, 100, -0.1); err == nil {
		t.Error("negative trim accepted")
	}
	if _, err := NewHyperLogLog(srcs, 3); err == nil {
		t.Error("hll bits below minimum accepted")
	}
	if _, err := NewHyperLogLog(srcs, 13); err == nil {
		t.Error("hll bits above maximum accepted")
	}
}

func TestSketchRebuild(t *testing.T) {
	srcs := sketchSources(4)
	q, err := NewQDigest(srcs, 5, -10, 40, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewTrimmedMean(srcs, 5, -10, 40, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHyperLogLog(srcs, 6)
	if err != nil {
		t.Fatal(err)
	}
	keep := func(s graph.NodeID) bool { return s != 2 }
	for _, f := range []Func{q, tm, h} {
		rb, err := Rebuild(f, keep)
		if err != nil {
			t.Fatalf("rebuild %s: %v", f.Name(), err)
		}
		if rb.HasSource(2) || len(rb.Sources()) != 3 {
			t.Errorf("rebuild %s: sources %v", f.Name(), rb.Sources())
		}
		if rb.RecordBytes() != f.RecordBytes() {
			t.Errorf("rebuild %s changed RecordBytes %d -> %d", f.Name(), f.RecordBytes(), rb.RecordBytes())
		}
	}
	rq := func() *QDigest {
		rb, _ := Rebuild(q, keep)
		return rb.(*QDigest)
	}()
	if lo, hi := rq.Domain(); rq.Bits() != 5 || lo != -10 || hi != 40 || rq.Quantile() != 0.75 {
		t.Errorf("rebuild dropped qdigest config: bits=%d domain=[%g,%g) q=%g", rq.Bits(), lo, hi, rq.Quantile())
	}
}

func TestConfiguredKindsRejectTableExecution(t *testing.T) {
	for _, k := range []Kind{KindQDigest, KindHLL, KindTrimmedMean} {
		if !Configured(k) {
			t.Errorf("kind %d not marked Configured", k)
		}
		if _, err := PreAggByKind(k, 1, 0); err == nil || !strings.Contains(err.Error(), "configuration") {
			t.Errorf("PreAggByKind(%d) error = %v, want configuration error", k, err)
		}
	}
	if Configured(KindWeightedSum) {
		t.Error("wsum marked Configured")
	}
	if _, err := PreAggByKind(Kind(200), 1, 0); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown kind error = %v", err)
	}
}

// TestSketchMemberPreAgg pins the engine's checked-once path: for a
// member source PreAggMemberInto writes exactly PreAggInto's record, while
// the public PreAggInto still panics on a non-member.
func TestSketchMemberPreAgg(t *testing.T) {
	srcs := sketchSources(8)
	qd, _ := NewQDigest(srcs, 4, 0, 100, 0.5)
	tm, _ := NewTrimmedMean(srcs, 5, 0, 100, 0.25)
	hll, _ := NewHyperLogLog(srcs, 4)
	for _, f := range []Func{qd, tm, hll} {
		n := RecordLen(f)
		want, got := make(Record, n), make(Record, n)
		for i, v := range []float64{-5, 0, 3.25, 50, 99.9, 100, 250, math.NaN()} {
			s := srcs[i%len(srcs)]
			for j := range got {
				got[j] = float64(j) + 7 // stale contents must be overwritten
			}
			PreAggInto(f, want, s, v)
			PreAggMemberInto(f, got, s, v)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: reading %g slot %d: member path %g, PreAggInto %g", f.Name(), v, j, got[j], want[j])
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: PreAggInto on a non-source did not panic", f.Name())
				}
			}()
			PreAggInto(f, want, 99, 1)
		}()
	}
}
