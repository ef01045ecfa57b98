package agg

import "m2m/internal/graph"

// InPlace is the allocation-free extension of Func the compiled round
// executor uses: records live in caller-owned scratch arenas and are
// written or folded in place instead of returned fresh. Every operation
// must be bit-identical to its allocating counterpart — PreAggInto(dst)
// leaves dst equal to PreAgg's result, MergeInto(dst, src) leaves dst
// equal to Merge(dst, src) — so compiled execution produces byte-identical
// values to the map-based reference. All builtin functions implement it;
// external Funcs fall back to the allocating path via the package helpers.
type InPlace interface {
	// RecordLen is the record arity (number of float64 slots).
	RecordLen() int
	// PreAggInto writes PreAgg(s, v) into dst (len RecordLen).
	PreAggInto(dst Record, s graph.NodeID, v float64)
	// MergeInto folds src into dst: dst = Merge(dst, src).
	MergeInto(dst, src Record)
}

// RecordLen returns f's record arity without allocating when f implements
// InPlace, probing PreAgg otherwise.
func RecordLen(f Func) int {
	if ip, ok := f.(InPlace); ok {
		return ip.RecordLen()
	}
	return len(f.PreAgg(f.Sources()[0], 0))
}

// PreAggInto writes f.PreAgg(s, v) into dst, in place when f supports it.
func PreAggInto(f Func, dst Record, s graph.NodeID, v float64) {
	if ip, ok := f.(InPlace); ok {
		ip.PreAggInto(dst, s, v)
		return
	}
	copy(dst, f.PreAgg(s, v))
}

// readingPreAgg is implemented by the sketch kinds, whose one-source
// record depends on the reading alone: every source weighs 1.
type readingPreAgg interface {
	preAggReading(dst Record, v float64)
}

// PreAggMemberInto is PreAggInto for a source s the caller has already
// proven a member of f (ParamOf succeeded, as the compiled round program
// checks once at build time): the sketch kinds then skip the per-call
// membership lookup their PreAggInto makes.
func PreAggMemberInto(f Func, dst Record, s graph.NodeID, v float64) {
	if r, ok := f.(readingPreAgg); ok {
		r.preAggReading(dst, v)
		return
	}
	PreAggInto(f, dst, s, v)
}

// MergeInto folds src into dst (dst = Merge(dst, src)), in place when f
// supports it.
func MergeInto(f Func, dst, src Record) {
	if ip, ok := f.(InPlace); ok {
		ip.MergeInto(dst, src)
		return
	}
	copy(dst, f.Merge(dst, src))
}
