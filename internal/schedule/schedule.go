// Package schedule builds collision-free TDMA transmission schedules for
// a round's messages — the "detailed transmission schedule ... aimed at
// avoiding collisions and reducing node listening time" that the paper
// mentions as a further optimization (Section 3) but does not explore.
//
// The model is the standard protocol interference model for unicast: two
// messages collide when they share a sender (one radio), share a receiver,
// or one message's receiver can hear the other's sender. Messages also
// respect the plan's wait-for dependencies: a message may only be assigned
// a slot after every message it waits for has been received.
package schedule

import (
	"fmt"
	"sort"

	"m2m/internal/graph"
)

// Message is one transmission to place in the TDMA frame.
type Message struct {
	From, To graph.NodeID
	// Deps lists indices of messages that must be received strictly
	// before this one is sent.
	Deps []int
}

// Schedule assigns every message a time slot.
type Schedule struct {
	// SlotOf[i] is message i's slot (0-based).
	SlotOf []int
	// Slots lists message indices per slot.
	Slots [][]int
}

// Len returns the frame length in slots.
func (s *Schedule) Len() int { return len(s.Slots) }

// Build computes a deterministic greedy schedule: messages are processed
// in dependency (topological) order, each taking the earliest slot that
// respects its dependencies and conflicts with nothing already placed.
func Build(net *graph.Undirected, msgs []Message) (*Schedule, error) {
	n := len(msgs)
	for i, m := range msgs {
		if int(m.From) < 0 || int(m.From) >= net.Len() || int(m.To) < 0 || int(m.To) >= net.Len() {
			return nil, fmt.Errorf("schedule: message %d endpoints out of range", i)
		}
		for _, d := range m.Deps {
			if d < 0 || d >= n {
				return nil, fmt.Errorf("schedule: message %d has invalid dependency %d", i, d)
			}
		}
	}

	// Topological order over dependencies (smallest index first).
	var arcs []graph.Arc
	for i, m := range msgs {
		for _, d := range m.Deps {
			arcs = append(arcs, graph.Arc{From: int32(d), To: int32(i)})
		}
	}
	order, ok := graph.NewDigraph(n, arcs).TopoSort()
	if !ok {
		return nil, fmt.Errorf("schedule: dependency cycle among messages")
	}

	s := &Schedule{SlotOf: make([]int, n)}
	for i := range s.SlotOf {
		s.SlotOf[i] = -1
	}
	for _, i := range order {
		earliest := 0
		for _, d := range msgs[i].Deps {
			if s.SlotOf[d] < 0 {
				return nil, fmt.Errorf("schedule: internal: dependency %d of %d unscheduled", d, i)
			}
			if s.SlotOf[d]+1 > earliest {
				earliest = s.SlotOf[d] + 1
			}
		}
		slot := earliest
		for {
			if slot >= len(s.Slots) {
				s.Slots = append(s.Slots, nil)
			}
			if !conflictsInSlot(net, msgs, s.Slots[slot], i) {
				break
			}
			slot++
		}
		s.SlotOf[i] = slot
		s.Slots[slot] = append(s.Slots[slot], i)
	}
	for _, slot := range s.Slots {
		sort.Ints(slot)
	}
	return s, nil
}

// FromSlotOf reconstructs a Schedule from a bare slot assignment — the
// form a frame travels in on the wire. It rebuilds the per-slot message
// lists; callers must Validate the result against the message graph
// before executing it, since the assignment may come from an untrusted
// or stale frame.
func FromSlotOf(slotOf []int) (*Schedule, error) {
	s := &Schedule{SlotOf: append([]int(nil), slotOf...)}
	max := -1
	for i, sl := range slotOf {
		if sl < 0 {
			return nil, fmt.Errorf("schedule: message %d assigned negative slot %d", i, sl)
		}
		if sl > max {
			max = sl
		}
	}
	s.Slots = make([][]int, max+1)
	for i, sl := range slotOf {
		s.Slots[sl] = append(s.Slots[sl], i)
	}
	return s, nil
}

// Conflicts reports whether messages a and b cannot share a slot under
// the protocol interference model.
func Conflicts(net *graph.Undirected, a, b Message) bool {
	if a.From == b.From || a.To == b.To {
		return true
	}
	// A receiver overhears any in-range transmission: the other sender
	// being its neighbor (or itself) corrupts reception.
	if a.To == b.From || b.To == a.From {
		return true
	}
	if net.HasEdge(a.To, b.From) || net.HasEdge(b.To, a.From) {
		return true
	}
	return false
}

func conflictsInSlot(net *graph.Undirected, msgs []Message, slot []int, cand int) bool {
	for _, j := range slot {
		if Conflicts(net, msgs[cand], msgs[j]) {
			return true
		}
	}
	return false
}

// SlotSeconds returns the duration of one TDMA slot sized to carry
// slotBytes at the model's 38.4 kbaud line rate; a frame's round latency
// is Len() slots of it.
func SlotSeconds(slotBytes int) float64 {
	return float64(slotBytes) * 8 / 38400
}

// Validate checks that s is collision-free and dependency-consistent for
// msgs over net.
func (s *Schedule) Validate(net *graph.Undirected, msgs []Message) error {
	if len(s.SlotOf) != len(msgs) {
		return fmt.Errorf("schedule: %d assignments for %d messages", len(s.SlotOf), len(msgs))
	}
	for i, m := range msgs {
		if s.SlotOf[i] < 0 || s.SlotOf[i] >= len(s.Slots) {
			return fmt.Errorf("schedule: message %d unassigned", i)
		}
		for _, d := range m.Deps {
			if s.SlotOf[d] >= s.SlotOf[i] {
				return fmt.Errorf("schedule: message %d in slot %d before dependency %d in slot %d",
					i, s.SlotOf[i], d, s.SlotOf[d])
			}
		}
	}
	for si, slot := range s.Slots {
		for x := 0; x < len(slot); x++ {
			for y := x + 1; y < len(slot); y++ {
				if Conflicts(net, msgs[slot[x]], msgs[slot[y]]) {
					return fmt.Errorf("schedule: slot %d holds conflicting messages %d and %d",
						si, slot[x], slot[y])
				}
			}
		}
	}
	return nil
}

// ListeningStats quantifies the schedule's idle-listening savings.
type ListeningStats struct {
	// FrameSlots is the TDMA frame length.
	FrameSlots int
	// AwakeSlots is the total (node, slot) pairs where a node must have
	// its radio on: its send slots plus its receive slots.
	AwakeSlots int
	// AlwaysOnSlots is the comparison cost without a schedule: every node
	// that participates at all listens for the whole frame.
	AlwaysOnSlots int
}

// SavedFraction is the fraction of radio-on time the schedule eliminates.
func (l ListeningStats) SavedFraction() float64 {
	if l.AlwaysOnSlots == 0 {
		return 0
	}
	return 1 - float64(l.AwakeSlots)/float64(l.AlwaysOnSlots)
}

// Listening computes the idle-listening savings of s.
func (s *Schedule) Listening(msgs []Message) ListeningStats {
	type nodeSlot struct {
		n graph.NodeID
		t int
	}
	awake := make(map[nodeSlot]bool)
	participants := make(map[graph.NodeID]bool)
	for i, m := range msgs {
		awake[nodeSlot{n: m.From, t: s.SlotOf[i]}] = true
		awake[nodeSlot{n: m.To, t: s.SlotOf[i]}] = true
		participants[m.From] = true
		participants[m.To] = true
	}
	return ListeningStats{
		FrameSlots:    s.Len(),
		AwakeSlots:    len(awake),
		AlwaysOnSlots: len(participants) * s.Len(),
	}
}
