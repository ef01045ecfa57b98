package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// TDMA frame layout: magic (1 B) | version (1 B) | epoch (4 B) | message
// count (2 B) | slot assignments (2 B each). A TDMA frame carries a plan
// epoch's complete slot assignment — SlotOf[i] for every planned message
// i — so a session switching to scheduled transmission can disseminate
// one frame and have every node drive its radio off the same slots. The
// magic is distinct from TableDiffMagic, BeaconMagic, and any plausible
// unit count a data message (EncodeMessage) starts with, so all frame
// families coexist on the wire.
const (
	TDMAMagic   = 0xC3
	TDMAVersion = 1
	// TDMAHeaderBytes is the fixed framing ahead of the slot array.
	TDMAHeaderBytes = 1 + 1 + 4 + 2
)

// TDMAFrame is a decoded slot-assignment frame.
type TDMAFrame struct {
	Epoch  uint32
	SlotOf []int
}

// TDMABytes returns the on-wire size of a TDMA frame covering n messages.
func TDMABytes(n int) int { return TDMAHeaderBytes + 2*n }

// EncodeTDMA frames a slot assignment under a plan epoch. Slots must be
// non-negative and fit the 2-byte wire field; an empty assignment is
// rejected (a plan with no messages needs no frame).
func EncodeTDMA(epoch uint32, slotOf []int) ([]byte, error) {
	if len(slotOf) == 0 {
		return nil, fmt.Errorf("wire: empty TDMA frame")
	}
	if len(slotOf) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: %d messages exceed TDMA frame capacity", len(slotOf))
	}
	b := make([]byte, 0, TDMABytes(len(slotOf)))
	b = append(b, TDMAMagic, TDMAVersion)
	b = binary.BigEndian.AppendUint32(b, epoch)
	b = binary.BigEndian.AppendUint16(b, uint16(len(slotOf)))
	for i, s := range slotOf {
		if s < 0 || s > math.MaxUint16 {
			return nil, fmt.Errorf("wire: message %d slot %d outside TDMA range", i, s)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(s))
	}
	return b, nil
}

// DecodeTDMA decodes a TDMA frame strictly: anything without the exact
// magic, version, and declared length is rejected. The decoded assignment
// is structurally sound only; callers must still validate it against
// their message graph (Engine.LoadFrame does) before transmitting from it.
func DecodeTDMA(b []byte) (TDMAFrame, error) {
	if len(b) < TDMAHeaderBytes {
		return TDMAFrame{}, fmt.Errorf("wire: truncated TDMA frame (%d bytes)", len(b))
	}
	if b[0] != TDMAMagic {
		return TDMAFrame{}, fmt.Errorf("wire: bad TDMA magic %#02x", b[0])
	}
	if b[1] != TDMAVersion {
		return TDMAFrame{}, fmt.Errorf("wire: unsupported TDMA version %d", b[1])
	}
	n := int(binary.BigEndian.Uint16(b[6:8]))
	if n == 0 {
		return TDMAFrame{}, fmt.Errorf("wire: empty TDMA frame")
	}
	if len(b) != TDMABytes(n) {
		return TDMAFrame{}, fmt.Errorf("wire: TDMA frame of %d bytes, want %d for %d messages", len(b), TDMABytes(n), n)
	}
	f := TDMAFrame{
		Epoch:  binary.BigEndian.Uint32(b[2:6]),
		SlotOf: make([]int, n),
	}
	for i := 0; i < n; i++ {
		f.SlotOf[i] = int(binary.BigEndian.Uint16(b[TDMAHeaderBytes+2*i:]))
	}
	return f, nil
}
