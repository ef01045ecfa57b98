// Byzantine misbehavior: compromised nodes keep participating in the
// protocol — relaying, acknowledging, batching — but lie about their own
// sensor readings. The injector models this as per-node corruption
// windows the executors consult at the pre-aggregation boundary, so a
// poisoned value enters the aggregation tree exactly once (at its
// source) and honest relays forward it faithfully, the way a real
// compromised mote poisons a network.
//
// Corruption is scheduled, not stochastic: a window names the mode, its
// parameter, and the half-open round interval it covers, so soak tests
// can assert exactly which rounds saw which lies. The one stochastic
// mode (ByzSpray) draws through the same pure-function hash as every
// other chaos draw, keeping outcomes independent of query order.

package chaos

import (
	"fmt"
	"math"

	"m2m/internal/graph"
	"m2m/internal/routing"
)

// ByzMode selects how a compromised node corrupts its reading.
type ByzMode int

const (
	// ByzStuck replaces the reading with the window's constant parameter,
	// the classic stuck-at sensor fault turned adversarial.
	ByzStuck ByzMode = iota
	// ByzOffset adds a drift that grows by the parameter each round of
	// the window: reading + param·(round−start+1).
	ByzOffset
	// ByzAmplify multiplies the reading by the parameter.
	ByzAmplify
	// ByzSpray replaces the reading with a uniform draw in
	// [−param, param), independent per round.
	ByzSpray
)

// String names the mode the way the CLI flags spell it.
func (m ByzMode) String() string {
	switch m {
	case ByzStuck:
		return "stuck"
	case ByzOffset:
		return "offset"
	case ByzAmplify:
		return "amplify"
	case ByzSpray:
		return "spray"
	}
	return fmt.Sprintf("ByzMode(%d)", int(m))
}

// ParseByzMode is the inverse of String.
func ParseByzMode(s string) (ByzMode, error) {
	switch s {
	case "stuck":
		return ByzStuck, nil
	case "offset":
		return ByzOffset, nil
	case "amplify":
		return ByzAmplify, nil
	case "spray":
		return ByzSpray, nil
	}
	return 0, fmt.Errorf("chaos: unknown byzantine mode %q (want stuck, offset, amplify, or spray)", s)
}

// Forever makes a Byzantine window open-ended: the node misbehaves from
// its start round until the end of the run.
const Forever = math.MaxInt32

// byzWindow is one scheduled corruption interval [start, start+rounds).
type byzWindow struct {
	mode   ByzMode
	param  float64
	start  int
	rounds int
}

// active reports whether the window covers round r. A negative duration
// is clamped to zero — the window injects nothing — mirroring how
// LinkLoss clamps an out-of-range probability instead of poisoning the
// run.
func (w byzWindow) active(r int) bool {
	rounds := w.rounds
	if rounds < 0 {
		rounds = 0
	}
	return r >= w.start && r-w.start < rounds
}

// end returns the first round after the window, saturating instead of
// overflowing for open-ended (Forever) windows.
func (w byzWindow) end() int {
	if w.rounds <= 0 {
		return w.start
	}
	if w.rounds >= Forever-w.start {
		return Forever
	}
	return w.start + w.rounds
}

// saltByz decorrelates the spray draw from the delivery and timing
// draws on the same (seed, round) pair.
const saltByz uint64 = 0x452821e638d01377

// WithByzantine schedules node n to corrupt its own readings in mode m
// for the half-open round window [start, start+rounds). Use Forever for
// an open-ended compromise. Windows compose with the crash, partition,
// and depletion schedule, but Validate rejects a window overlapping a
// round in which the node is dead — a dead node has no reading to lie
// about.
func (in *Injector) WithByzantine(n graph.NodeID, m ByzMode, param float64, start, rounds int) *Injector {
	if in.byz == nil {
		in.byz = make(map[graph.NodeID][]byzWindow)
	}
	in.byz[n] = append(in.byz[n], byzWindow{mode: m, param: param, start: start, rounds: rounds})
	return in
}

// CorruptReading returns the value node n reports in the given round
// when its true sensor reading is v. Outside every scheduled window (or
// for an honest node) the reading passes through unchanged. Overlapping
// windows on the same node resolve to the earliest-scheduled one.
func (in *Injector) CorruptReading(round int, n graph.NodeID, v float64) float64 {
	for _, w := range in.byz[n] {
		if !w.active(round) {
			continue
		}
		switch w.mode {
		case ByzStuck:
			return w.param
		case ByzOffset:
			return v + w.param*float64(round-w.start+1)
		case ByzAmplify:
			return v * w.param
		case ByzSpray:
			self := routing.Edge{From: n, To: n}
			return (2*drawSalted(in.seed, round, self, 0, saltByz) - 1) * w.param
		}
	}
	return v
}

// validateByzantine rejects corruption windows that overlap a round in
// which the node cannot report at all: from its crash round until an
// optional revive, or from its depletion round on. Mode parameters must
// also be finite — a NaN reading would poison every merge on the path.
func (in *Injector) validateByzantine() error {
	for n, ws := range in.byz {
		for _, w := range ws {
			if w.start < 0 {
				return fmt.Errorf("chaos: node %d byzantine window starts at negative round %d", n, w.start)
			}
			if math.IsNaN(w.param) || math.IsInf(w.param, 0) {
				return fmt.Errorf("chaos: node %d byzantine %s parameter %v not finite", n, w.mode, w.param)
			}
			end := w.end()
			if end == w.start {
				continue // clamped empty window injects nothing
			}
			if c, ok := in.crashes[n]; ok {
				deadEnd := Forever
				if rv, ok := in.revives[n]; ok {
					deadEnd = rv
				}
				if w.start < deadEnd && c < end {
					return fmt.Errorf("chaos: node %d byzantine window [%d,%d) overlaps its crash window [%d,%d): a dead node has no reading to corrupt",
						n, w.start, end, c, deadEnd)
				}
			}
			if d, ok := in.depletions[n]; ok && d < end {
				return fmt.Errorf("chaos: node %d byzantine window [%d,%d) overlaps its depletion at round %d: a dead node has no reading to corrupt",
					n, w.start, end, d)
			}
		}
	}
	return nil
}
