package wire

import (
	"bytes"
	"testing"

	"m2m/internal/graph"
	"m2m/internal/plan"
)

// FuzzDecodeMessage hardens the decoder against arbitrary bytes: it must
// either reject the input or return units that re-encode to a decodable
// message — never panic or over-read.
func FuzzDecodeMessage(f *testing.F) {
	seed1, _ := EncodeMessage([]Unit{{Kind: plan.UnitRaw, Node: 3, Values: []float64{1.5}}})
	seed2, _ := EncodeMessage([]Unit{
		{Kind: plan.UnitAgg, Node: 9, Values: []float64{2, 3}},
		{Kind: plan.UnitRaw, Node: 1, Values: []float64{-4}},
	})
	f.Add(seed1)
	f.Add(seed2)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		units, err := DecodeMessage(data)
		if err != nil {
			return
		}
		re, err := EncodeMessage(units)
		if err != nil {
			t.Fatalf("decoded units failed to re-encode: %v", err)
		}
		again, err := DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		if len(again) != len(units) {
			t.Fatalf("unit count changed across round trip: %d vs %d", len(again), len(units))
		}
	})
}

// FuzzDecodeBeacon hardens the low-battery beacon decoder: arbitrary
// bytes are either rejected or decode to a beacon that re-encodes
// byte-identically (the fixed-point fields are already quantized after a
// decode) — never panic, never over-read.
func FuzzDecodeBeacon(f *testing.F) {
	bc, _ := EncodeBeacon(5, 1234.5, 8.25)
	zero, _ := EncodeBeacon(0, 0, 0)
	f.Add(bc)
	f.Add(zero)
	f.Add([]byte{})
	f.Add([]byte{BeaconMagic})
	f.Add([]byte{BeaconMagic, BeaconVersion, 0, 3, 0, 0, 0, 1, 0, 0, 0, 2})
	f.Add([]byte{BeaconMagic, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBeacon(data)
		if err != nil {
			return
		}
		if b.ResidualJ < 0 || b.BurnJPerRound < 0 {
			t.Fatalf("decoded beacon with negative fields: %+v", b)
		}
		re, err := EncodeBeacon(b.Node, b.ResidualJ, b.BurnJPerRound)
		if err != nil {
			t.Fatalf("decoded beacon failed to re-encode: %v", err)
		}
		if !bytesEqual(re, data) {
			t.Fatalf("beacon not byte-identical across round trip:\n%x\n%x", re, data)
		}
	})
}

// FuzzDecodeTableDiff hardens the epoch-fenced table-diff decoder:
// arbitrary bytes are either rejected or decode to a diff that re-encodes
// byte-identically — never panic, never over-read.
func FuzzDecodeTableDiff(f *testing.F) {
	diff, _ := EncodeTableDiff(3, 7, []byte{0, 1, 0, 0, 0, 0, 0, 0})
	empty, _ := EncodeTableDiff(1, 0, nil)
	f.Add(diff)
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte{TableDiffMagic})
	f.Add([]byte{TableDiffMagic, TableDiffVersion, 0, 0, 0, 1, 0, 5, 0, 2})
	f.Add([]byte{TableDiffMagic, 9, 0, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeTableDiff(data)
		if err != nil {
			return
		}
		re, err := EncodeTableDiff(d.Epoch, d.Node, d.Blob)
		if err != nil {
			t.Fatalf("decoded diff failed to re-encode: %v", err)
		}
		if !bytesEqual(re, data) {
			t.Fatalf("diff not byte-identical across round trip:\n%x\n%x", re, data)
		}
	})
}

// FuzzDecodeTDMA hardens the slot-assignment decoder: arbitrary bytes are
// either rejected or decode to a frame that re-encodes byte-identically —
// never panic, never over-read.
func FuzzDecodeTDMA(f *testing.F) {
	frame, _ := EncodeTDMA(2, []int{0, 1, 1, 2})
	one, _ := EncodeTDMA(0, []int{0})
	f.Add(frame)
	f.Add(one)
	f.Add([]byte{})
	f.Add([]byte{TDMAMagic})
	f.Add([]byte{TDMAMagic, TDMAVersion, 0, 0, 0, 1, 0, 3, 0, 0})
	f.Add([]byte{TDMAMagic, 9, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeTDMA(data)
		if err != nil {
			return
		}
		re, err := EncodeTDMA(d.Epoch, d.SlotOf)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytesEqual(re, data) {
			t.Fatalf("frame not byte-identical across round trip:\n%x\n%x", re, data)
		}
	})
}

// FuzzDecodeNodeTables hardens the motes' table decoder: arbitrary bytes
// are either rejected or decode to tables whose encoding is exactly as
// long as the input — never panic, never over-read — and every blob
// EncodeNodeTables produces decodes to the tables it encoded.
func FuzzDecodeNodeTables(f *testing.F) {
	inst, _, tab := planFixture(f, 21)
	blobs := make([][]byte, inst.Net.Len())
	for n := range blobs {
		blob, err := EncodeNodeTables(inst, tab, graph.NodeID(n))
		if err != nil {
			f.Fatal(err)
		}
		blobs[n] = blob
		f.Add(uint16(n), blob)
	}
	f.Add(uint16(0), []byte{})
	f.Add(uint16(0), []byte{0xFF})
	f.Add(uint16(3), []byte{0, 1, 0, 2, 0, 5, 0, 0, 0, 0, 0, 0})
	f.Add(uint16(3), []byte{0xFF, 0xFF, 0, 0})

	f.Fuzz(func(t *testing.T, node uint16, data []byte) {
		n := graph.NodeID(node)
		dec, err := DecodeNodeTables(n, data)
		if err != nil {
			return
		}
		size := 8 + 4*len(dec.Raw) + 8*len(dec.PreAgg) + 6*len(dec.Partial) + 3*len(dec.Outgoing)
		if size != len(data) {
			t.Fatalf("decoded tables encode to %d bytes, input has %d", size, len(data))
		}
		if int(node) < len(blobs) && bytes.Equal(blobs[node], data) {
			checkNodeTables(t, inst, tab, n, dec)
		}
	})
}
