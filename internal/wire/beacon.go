package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"m2m/internal/graph"
)

// Beacon frame layout: magic (1 B) | version (1 B) | node (2 B) |
// residual (4 B fixed) | burn (4 B fixed). A low-battery node piggybacks
// one beacon per round toward the base station, advertising its residual
// charge and observed per-round burn rate so the session can forecast its
// time-to-death and evacuate traffic off it before it dies. The magic is
// distinct from TableDiffMagic, TDMAMagic, and any plausible unit count a
// data message (EncodeMessage) starts with, so all frame families coexist
// on the wire.
const (
	BeaconMagic   = 0xB7
	BeaconVersion = 1
	// BeaconBytes is a beacon frame's fixed on-wire size.
	BeaconBytes = 1 + 1 + 2 + 4 + 4
)

// Beacon is a decoded low-battery beacon.
type Beacon struct {
	Node graph.NodeID
	// ResidualJ is the advertised remaining charge, fixed-point quantized.
	ResidualJ float64
	// BurnJPerRound is the advertised per-round spend, fixed-point
	// quantized; zero means the node has not observed a burn rate yet.
	BurnJPerRound float64
}

// EncodeBeacon encodes one node's battery advertisement.
func EncodeBeacon(n graph.NodeID, residualJ, burnJPerRound float64) ([]byte, error) {
	if int(n) < 0 || int(n) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: node %d outside beacon range", n)
	}
	if residualJ < 0 || burnJPerRound < 0 {
		return nil, fmt.Errorf("wire: negative beacon fields (residual %g, burn %g)", residualJ, burnJPerRound)
	}
	res, err := EncodeFixed(residualJ)
	if err != nil {
		return nil, err
	}
	burn, err := EncodeFixed(burnJPerRound)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, BeaconBytes)
	b = append(b, BeaconMagic, BeaconVersion)
	b = binary.BigEndian.AppendUint16(b, uint16(n))
	b = binary.BigEndian.AppendUint32(b, uint32(res))
	b = binary.BigEndian.AppendUint32(b, uint32(burn))
	return b, nil
}

// DecodeBeacon decodes a beacon frame strictly: anything without the
// exact magic, version, length, and non-negative fields is rejected.
func DecodeBeacon(b []byte) (Beacon, error) {
	if len(b) != BeaconBytes {
		return Beacon{}, fmt.Errorf("wire: beacon of %d bytes, want %d", len(b), BeaconBytes)
	}
	if b[0] != BeaconMagic {
		return Beacon{}, fmt.Errorf("wire: bad beacon magic %#02x", b[0])
	}
	if b[1] != BeaconVersion {
		return Beacon{}, fmt.Errorf("wire: unsupported beacon version %d", b[1])
	}
	bc := Beacon{
		Node:          graph.NodeID(binary.BigEndian.Uint16(b[2:4])),
		ResidualJ:     DecodeFixed(int32(binary.BigEndian.Uint32(b[4:8]))),
		BurnJPerRound: DecodeFixed(int32(binary.BigEndian.Uint32(b[8:12]))),
	}
	if bc.ResidualJ < 0 || bc.BurnJPerRound < 0 {
		return Beacon{}, fmt.Errorf("wire: beacon with negative fields (residual %g, burn %g)", bc.ResidualJ, bc.BurnJPerRound)
	}
	return bc, nil
}
