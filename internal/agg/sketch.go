package agg

import (
	"fmt"
	"math"
	"math/bits"

	"m2m/internal/graph"
)

// This file implements the constant-size sketch and robust aggregates of
// ROADMAP item 4: a fixed-resolution dyadic histogram (the q-digest record
// at its finest, uncompressed resolution — merging is then an elementwise
// count add, which keeps the merge exactly associative and commutative, so
// the compiled, lossy, and asynchronous executors stay byte-identical to
// the map-based reference), a HyperLogLog distinct-count sketch (register
// max is likewise exactly associative), and a trimmed mean evaluated over
// the same histogram record. All three are non-linear — a histogram of
// deltas is not the delta of histograms — so the temporal-suppression
// planner rejects them, exactly as Linear() advertises.

// maxSketchBits bounds the histogram resolution: 2^10 buckets is already
// 2 KiB on the wire, far past the point where a raw-value flood is cheaper.
const maxSketchBits = 10

// histogram is the shared fixed-universe bucket sketch: 2^bits equal-width
// buckets over [lo, hi), readings outside the domain clamped to the edge
// buckets. The record is one count per bucket.
type histogram struct {
	weighted
	bits   int
	lo, hi float64
}

func newHistogram(sources []graph.NodeID, bitsN int, lo, hi float64, kind string) (histogram, error) {
	if bitsN < 1 || bitsN > maxSketchBits {
		return histogram{}, fmt.Errorf("agg: %s resolution %d bits outside [1,%d]", kind, bitsN, maxSketchBits)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || !(lo < hi) {
		return histogram{}, fmt.Errorf("agg: %s domain [%g,%g) is empty or ill-formed", kind, lo, hi)
	}
	return histogram{weighted: newWeighted(unitWeights(sources)), bits: bitsN, lo: lo, hi: hi}, nil
}

// Buckets returns the histogram arity 2^bits.
func (h histogram) Buckets() int { return 1 << h.bits }

// Bits returns the resolution exponent (the compression knob: fewer bits,
// fewer bytes on the wire, coarser quantiles).
func (h histogram) Bits() int { return h.bits }

// Domain returns the value domain [lo, hi) the buckets partition.
func (h histogram) Domain() (lo, hi float64) { return h.lo, h.hi }

// bucketOf maps a reading to its bucket, clamping out-of-domain (and NaN)
// readings to the edge buckets so adversarial inputs cannot corrupt the
// record shape.
func (h histogram) bucketOf(v float64) int {
	if math.IsNaN(v) || v <= h.lo {
		return 0
	}
	b := h.Buckets()
	if v >= h.hi {
		return b - 1
	}
	i := int(float64(b) * (v - h.lo) / (h.hi - h.lo))
	if i >= b { // guard the rounding edge at v just under hi
		i = b - 1
	}
	return i
}

// preAggReading writes the one-reading record of v into dst: a count of
// one in v's bucket. It is PreAggInto without the membership check.
func (h histogram) preAggReading(dst Record, v float64) {
	clear(dst)
	dst[h.bucketOf(v)] = 1
}

// midpoint returns the representative value of bucket i.
func (h histogram) midpoint(i int) float64 {
	w := (h.hi - h.lo) / float64(h.Buckets())
	return h.lo + (float64(i)+0.5)*w
}

// histMergeInto adds src's counts into dst.
func histMergeInto(dst, src Record) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// histQuantile walks the cumulative counts to the bucket holding the
// zero-based rank position q·(total−1) and returns its midpoint.
func (h histogram) histQuantile(r Record, q float64) float64 {
	total := 0.0
	for _, c := range r {
		total += c
	}
	if total <= 0 {
		return math.NaN()
	}
	rank := q * (total - 1)
	cum := 0.0
	for i, c := range r {
		cum += c
		if c > 0 && cum > rank {
			return h.midpoint(i)
		}
	}
	// Rank q=1 lands exactly on the last counted position.
	for i := len(r) - 1; i >= 0; i-- {
		if r[i] > 0 {
			return h.midpoint(i)
		}
	}
	return math.NaN()
}

// QDigest estimates a quantile of the source readings from a fixed-
// resolution histogram record. Record layout: [count_0 .. count_{B-1}],
// B = 2^bits. Each count travels as a 2-byte integer, so RecordBytes is
// 2·B — the tunable accuracy-vs-bytes knob of the byzantine experiment.
type QDigest struct {
	histogram
	quantile float64
}

// NewQDigest returns a quantile sketch over the given sources: bits sets
// the resolution (2^bits buckets over [lo, hi)), quantile ∈ [0, 1] picks
// the rank to evaluate (0.5 is the median).
func NewQDigest(sources []graph.NodeID, bits int, lo, hi, quantile float64) (*QDigest, error) {
	h, err := newHistogram(sources, bits, lo, hi, "qdigest")
	if err != nil {
		return nil, err
	}
	if math.IsNaN(quantile) || quantile < 0 || quantile > 1 {
		return nil, fmt.Errorf("agg: qdigest quantile %g outside [0,1]", quantile)
	}
	return &QDigest{histogram: h, quantile: quantile}, nil
}

func (f *QDigest) Name() string { return "qdigest" }

// Quantile returns the rank the sketch evaluates.
func (f *QDigest) Quantile() float64 { return f.quantile }

func (f *QDigest) PreAgg(s graph.NodeID, v float64) Record {
	r := make(Record, f.Buckets())
	f.PreAggInto(r, s, v)
	return r
}

func (f *QDigest) Merge(a, b Record) Record {
	out := a.Clone()
	histMergeInto(out, b)
	return out
}

func (f *QDigest) Eval(r Record) float64 { return f.histQuantile(r, f.quantile) }
func (f *QDigest) RecordBytes() int      { return 2 * f.Buckets() }
func (f *QDigest) Linear() bool          { return false }

// RecordLen implements InPlace.
func (f *QDigest) RecordLen() int { return f.Buckets() }

// PreAggInto implements InPlace.
func (f *QDigest) PreAggInto(dst Record, s graph.NodeID, v float64) {
	f.weight(f.Name(), s) // membership check
	f.preAggReading(dst, v)
}

// MergeInto implements InPlace.
func (f *QDigest) MergeInto(dst, src Record) { histMergeInto(dst, src) }

// TrimmedMean estimates a robust mean from the q-digest histogram record:
// the trim fraction of the total count mass is discarded from each tail
// (fractionally, across bucket boundaries) and the surviving mass is
// averaged at bucket midpoints. With trim ≥ the Byzantine fraction the
// estimate ignores the adversarial tail entirely, which is what keeps its
// error bounded while the exact weighted average diverges.
type TrimmedMean struct {
	histogram
	trim float64
}

// NewTrimmedMean returns a trimmed-mean aggregate over the given sources:
// the histogram parameters are the q-digest's, trim ∈ [0, 0.5) is the
// fraction of mass dropped from each tail.
func NewTrimmedMean(sources []graph.NodeID, bits int, lo, hi, trim float64) (*TrimmedMean, error) {
	h, err := newHistogram(sources, bits, lo, hi, "trimmedmean")
	if err != nil {
		return nil, err
	}
	if math.IsNaN(trim) || trim < 0 || trim >= 0.5 {
		return nil, fmt.Errorf("agg: trimmedmean trim fraction %g outside [0,0.5)", trim)
	}
	return &TrimmedMean{histogram: h, trim: trim}, nil
}

func (f *TrimmedMean) Name() string { return "trimmedmean" }

// Trim returns the per-tail trim fraction.
func (f *TrimmedMean) Trim() float64 { return f.trim }

func (f *TrimmedMean) PreAgg(s graph.NodeID, v float64) Record {
	r := make(Record, f.Buckets())
	f.PreAggInto(r, s, v)
	return r
}

func (f *TrimmedMean) Merge(a, b Record) Record {
	out := a.Clone()
	histMergeInto(out, b)
	return out
}

func (f *TrimmedMean) Eval(r Record) float64 {
	total := 0.0
	for _, c := range r {
		total += c
	}
	if total <= 0 {
		return math.NaN()
	}
	cut := f.trim * total
	kept := total - 2*cut
	sum := 0.0
	cum := 0.0
	for i, c := range r {
		if c > 0 {
			take := math.Min(cum+c, total-cut) - math.Max(cum, cut)
			if take > 0 {
				sum += take * f.midpoint(i)
			}
		}
		cum += c
	}
	return sum / kept
}

func (f *TrimmedMean) RecordBytes() int { return 2 * f.Buckets() }
func (f *TrimmedMean) Linear() bool     { return false }

// RecordLen implements InPlace.
func (f *TrimmedMean) RecordLen() int { return f.Buckets() }

// PreAggInto implements InPlace.
func (f *TrimmedMean) PreAggInto(dst Record, s graph.NodeID, v float64) {
	f.weight(f.Name(), s) // membership check
	f.preAggReading(dst, v)
}

// MergeInto implements InPlace.
func (f *TrimmedMean) MergeInto(dst, src Record) { histMergeInto(dst, src) }

// HyperLogLog register-bit bounds: below 4 the estimator's bias constants
// are undefined, above 12 the record dwarfs any plausible frame.
const (
	minHLLBits = 4
	maxHLLBits = 12
)

// HyperLogLog estimates the number of distinct readings among the sources.
// Record layout: [reg_0 .. reg_{m-1}], m = 2^registerBits, each register
// the maximum leading-zero rank hashed into it. Registers fit a byte each,
// so RecordBytes is m. Merging is an elementwise max — exactly associative
// and commutative, like min/max.
type HyperLogLog struct {
	weighted
	pbits int
}

// NewHyperLogLog returns a distinct-count sketch with 2^registerBits
// registers (registerBits ∈ [4, 12]; more registers, less variance, more
// bytes).
func NewHyperLogLog(sources []graph.NodeID, registerBits int) (*HyperLogLog, error) {
	if registerBits < minHLLBits || registerBits > maxHLLBits {
		return nil, fmt.Errorf("agg: hll register bits %d outside [%d,%d]", registerBits, minHLLBits, maxHLLBits)
	}
	return &HyperLogLog{weighted: newWeighted(unitWeights(sources)), pbits: registerBits}, nil
}

func (f *HyperLogLog) Name() string { return "hll" }

// Registers returns the register count 2^registerBits.
func (f *HyperLogLog) Registers() int { return 1 << f.pbits }

// RegisterBits returns the register-count exponent.
func (f *HyperLogLog) RegisterBits() int { return f.pbits }

// hashReading hashes a reading's bit pattern through splitmix64
// finalization: deterministic, stateless, and uncorrelated with the
// chaos layer's channel draws.
func hashReading(v float64) uint64 {
	z := math.Float64bits(v) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// register returns (index, rank) of a reading: the top pbits bits pick the
// register, the leading-zero run of the rest (plus one) is the rank.
func (f *HyperLogLog) register(v float64) (int, float64) {
	h := hashReading(v)
	idx := int(h >> (64 - f.pbits))
	rest := h << f.pbits
	var rank int
	if rest == 0 {
		rank = 64 - f.pbits + 1
	} else {
		rank = bits.LeadingZeros64(rest) + 1
	}
	return idx, float64(rank)
}

func (f *HyperLogLog) PreAgg(s graph.NodeID, v float64) Record {
	r := make(Record, f.Registers())
	f.PreAggInto(r, s, v)
	return r
}

func (f *HyperLogLog) Merge(a, b Record) Record {
	out := a.Clone()
	f.MergeInto(out, b)
	return out
}

func (f *HyperLogLog) Eval(r Record) float64 {
	m := float64(f.Registers())
	sum := 0.0
	zeros := 0
	for _, reg := range r {
		sum += math.Exp2(-reg)
		if reg == 0 {
			zeros++
		}
	}
	est := hllAlpha(f.Registers()) * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Small-range (linear counting) correction.
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

// hllAlpha is the standard bias-correction constant.
func hllAlpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

func (f *HyperLogLog) RecordBytes() int { return f.Registers() }
func (f *HyperLogLog) Linear() bool     { return false }

// RecordLen implements InPlace.
func (f *HyperLogLog) RecordLen() int { return f.Registers() }

// PreAggInto implements InPlace.
func (f *HyperLogLog) PreAggInto(dst Record, s graph.NodeID, v float64) {
	f.weight(f.Name(), s) // membership check
	f.preAggReading(dst, v)
}

// preAggReading writes the one-reading record of v into dst: v's rank in
// its register. It is PreAggInto without the membership check.
func (f *HyperLogLog) preAggReading(dst Record, v float64) {
	clear(dst)
	idx, rank := f.register(v)
	dst[idx] = rank
}

// MergeInto implements InPlace.
func (f *HyperLogLog) MergeInto(dst, src Record) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}
