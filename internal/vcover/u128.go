package vcover

import "math/bits"

// u128 is an unsigned 128-bit integer in two uint64 limbs. It is the
// fixed-width replacement for math/big perturbed capacities: the canonical
// perturbation needs one distinct low bit per vertex of the single-edge
// problem plus headroom for the true weights, which fits comfortably in
// 128 bits for every realistic problem (see fitsFast). Operations are
// plain limb arithmetic — no allocation, no carries lost.
type u128 struct {
	hi, lo uint64
}

// u128Zero is the additive identity.
var u128Zero = u128{}

// isZero reports whether x == 0.
func (x u128) isZero() bool { return x.hi == 0 && x.lo == 0 }

// add returns x + y. Overflow beyond 128 bits must be excluded by the
// caller's sizing (fitsFast guarantees all solver values stay < 2^127).
func (x u128) add(y u128) u128 {
	lo, carry := bits.Add64(x.lo, y.lo, 0)
	hi, _ := bits.Add64(x.hi, y.hi, carry)
	return u128{hi: hi, lo: lo}
}

// sub returns x - y; the caller must guarantee x >= y.
func (x u128) sub(y u128) u128 {
	lo, borrow := bits.Sub64(x.lo, y.lo, 0)
	hi, _ := bits.Sub64(x.hi, y.hi, borrow)
	return u128{hi: hi, lo: lo}
}

// cmp returns -1, 0, or +1 as x <, ==, > y.
func (x u128) cmp(y u128) int {
	switch {
	case x.hi != y.hi:
		if x.hi < y.hi {
			return -1
		}
		return 1
	case x.lo != y.lo:
		if x.lo < y.lo {
			return -1
		}
		return 1
	}
	return 0
}

// u128Shifted returns w << shift for shift in [0, 128). Bits shifted past
// position 127 are lost; fitsFast sizes shift so that never happens.
func u128Shifted(w uint64, shift uint) u128 {
	switch {
	case shift == 0:
		return u128{lo: w}
	case shift < 64:
		return u128{hi: w >> (64 - shift), lo: w << shift}
	case shift < 128:
		return u128{hi: w << (shift - 64)}
	}
	return u128{}
}

// u128Bit returns 1 << pos for pos in [0, 128).
func u128Bit(pos uint) u128 {
	if pos < 64 {
		return u128{lo: 1 << pos}
	}
	return u128{hi: 1 << (pos - 64)}
}
