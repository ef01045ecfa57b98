package vcover

import (
	"math/big"
	"testing"
)

func big128(hi, lo uint64) *big.Int {
	b := new(big.Int).SetUint64(hi)
	b.Lsh(b, 64)
	return b.Or(b, new(big.Int).SetUint64(lo))
}

func TestU128Shifted(t *testing.T) {
	cases := []struct {
		w     uint64
		shift uint
	}{
		{0, 0}, {1, 0}, {1, 63}, {1, 64}, {1, 127},
		{0xdeadbeef, 0}, {0xdeadbeef, 32}, {0xdeadbeef, 64}, {0xdeadbeef, 95},
		{^uint64(0), 0}, {^uint64(0), 1}, {^uint64(0), 63},
	}
	for _, c := range cases {
		got := u128Shifted(c.w, c.shift).toBig()
		want := new(big.Int).Lsh(new(big.Int).SetUint64(c.w), c.shift)
		want.And(want, big128(^uint64(0), ^uint64(0))) // truncate to 128 bits
		if got.Cmp(want) != 0 {
			t.Errorf("u128Shifted(%#x, %d) = %v, want %v", c.w, c.shift, got, want)
		}
	}
}

func TestU128Bit(t *testing.T) {
	for pos := uint(0); pos < 128; pos++ {
		got := u128Bit(pos).toBig()
		want := new(big.Int).Lsh(big.NewInt(1), pos)
		if got.Cmp(want) != 0 {
			t.Fatalf("u128Bit(%d) = %v, want %v", pos, got, want)
		}
	}
}

// FuzzU128Ops cross-checks the limb add/sub/cmp against math/big on
// arbitrary 128-bit operands (the satellite fuzz target; CI smokes it).
func FuzzU128Ops(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), ^uint64(0), uint64(0), uint64(1))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint64(1<<63), uint64(0), uint64(1<<63), ^uint64(0))
	f.Fuzz(func(t *testing.T, xhi, xlo, yhi, ylo uint64) {
		x, y := u128{hi: xhi, lo: xlo}, u128{hi: yhi, lo: ylo}
		bx, by := x.toBig(), y.toBig()

		wantCmp := bx.Cmp(by)
		if got := x.cmp(y); got != wantCmp {
			t.Fatalf("cmp(%v, %v) = %d, want %d", bx, by, got, wantCmp)
		}
		if x.isZero() != (bx.Sign() == 0) {
			t.Fatalf("isZero(%v) mismatch", bx)
		}

		mod := new(big.Int).Lsh(big.NewInt(1), 128)
		wantAdd := new(big.Int).Add(bx, by)
		wantAdd.Mod(wantAdd, mod) // u128 add wraps mod 2^128
		if got := x.add(y).toBig(); got.Cmp(wantAdd) != 0 {
			t.Fatalf("add(%v, %v) = %v, want %v", bx, by, got, wantAdd)
		}

		if wantCmp >= 0 { // sub contract: x >= y
			wantSub := new(big.Int).Sub(bx, by)
			if got := x.sub(y).toBig(); got.Cmp(wantSub) != 0 {
				t.Fatalf("sub(%v, %v) = %v, want %v", bx, by, got, wantSub)
			}
		}
	})
}

// toBig returns x as a math/big integer.
func (x u128) toBig() *big.Int {
	b := new(big.Int).SetUint64(x.hi)
	b.Lsh(b, 64)
	return b.Or(b, new(big.Int).SetUint64(x.lo))
}
