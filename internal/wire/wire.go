// Package wire implements the on-air byte formats of the system: message
// units (raw values and partial aggregate records) and the serialized
// per-node plan tables, plus the cost model for disseminating plans into
// the network from a base station (Section 3: table contents are computed
// out-of-network and disseminated).
//
// Numeric values travel as 32-bit fixed point with 8 fractional bits
// (resolution 1/256), matching the 4-byte value sizes assumed by the
// planner's cost model. Encoding is big-endian throughout.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"m2m/internal/graph"
	"m2m/internal/plan"
)

// Fixed-point parameters for encoded readings and record slots.
const (
	fracBits = 8
	// MaxAbsValue is the largest magnitude representable in the 32-bit
	// fixed-point encoding.
	MaxAbsValue = float64(math.MaxInt32) / (1 << fracBits)
	// Resolution is the fixed-point quantum; Decode(Encode(x)) is within
	// Resolution/2 of x.
	Resolution = 1.0 / (1 << fracBits)
)

// EncodeFixed converts a float to wire fixed point. Every word decodes to
// a value it accepts, the most negative one, -MaxAbsValue-Resolution,
// included.
func EncodeFixed(x float64) (int32, error) {
	if math.IsNaN(x) || x > MaxAbsValue || x < -MaxAbsValue-Resolution {
		return 0, fmt.Errorf("wire: value %v outside fixed-point range", x)
	}
	return int32(math.Round(x * (1 << fracBits))), nil
}

// DecodeFixed converts wire fixed point back to a float.
func DecodeFixed(v int32) float64 { return float64(v) / (1 << fracBits) }

// Unit is one decoded message unit.
type Unit struct {
	Kind plan.UnitKind
	// Node is the source tag for raw units, the destination tag for
	// records.
	Node graph.NodeID
	// Values holds one reading for raw units, or the record slots.
	Values []float64
}

// Unit wire layout: kind (1 B) | node tag (2 B) | slot count (1 B) |
// slots (4 B each).
const unitHeaderBytes = 1 + 2 + 1

// AppendUnit encodes u onto b.
func AppendUnit(b []byte, u Unit) ([]byte, error) {
	if u.Node < 0 || u.Node > math.MaxUint16 {
		return nil, fmt.Errorf("wire: node tag %d out of range", u.Node)
	}
	if len(u.Values) == 0 || len(u.Values) > math.MaxUint8 {
		return nil, fmt.Errorf("wire: %d slots out of range", len(u.Values))
	}
	b = append(b, byte(u.Kind))
	b = binary.BigEndian.AppendUint16(b, uint16(u.Node))
	b = append(b, byte(len(u.Values)))
	for _, v := range u.Values {
		f, err := EncodeFixed(v)
		if err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint32(b, uint32(f))
	}
	return b, nil
}

// EncodeMessage encodes a sequence of units as one message body.
func EncodeMessage(units []Unit) ([]byte, error) {
	if len(units) > math.MaxUint8 {
		return nil, fmt.Errorf("wire: %d units exceed message capacity", len(units))
	}
	b := []byte{byte(len(units))}
	var err error
	for _, u := range units {
		if b, err = AppendUnit(b, u); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeMessage decodes a message body produced by EncodeMessage.
func DecodeMessage(b []byte) ([]Unit, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("wire: empty message")
	}
	n := int(b[0])
	b = b[1:]
	units := make([]Unit, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < unitHeaderBytes {
			return nil, fmt.Errorf("wire: truncated unit %d", i)
		}
		u := Unit{
			Kind: plan.UnitKind(b[0]),
			Node: graph.NodeID(binary.BigEndian.Uint16(b[1:3])),
		}
		slots := int(b[3])
		b = b[unitHeaderBytes:]
		if slots == 0 {
			return nil, fmt.Errorf("wire: unit %d has no slots", i)
		}
		if len(b) < 4*slots {
			return nil, fmt.Errorf("wire: truncated slots in unit %d", i)
		}
		for s := 0; s < slots; s++ {
			u.Values = append(u.Values, DecodeFixed(int32(binary.BigEndian.Uint32(b[4*s:]))))
		}
		b = b[4*slots:]
		if u.Kind != plan.UnitRaw && u.Kind != plan.UnitAgg {
			return nil, fmt.Errorf("wire: unit %d has unknown kind %d", i, u.Kind)
		}
		units = append(units, u)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(b))
	}
	return units, nil
}
