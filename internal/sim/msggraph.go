package sim

import (
	"fmt"
	"sort"

	"m2m/internal/graph"
)

// MessageInfo describes one physical message of the round: its endpoints
// and the indices of messages that must be received before it is sent.
// It is the input to transmission scheduling (package schedule).
type MessageInfo struct {
	From, To graph.NodeID
	Deps     []int
}

// MessageGraph exports the engine's message layout with message-level
// wait-for dependencies. Only available in unicast modes (broadcast
// accounting does not retain per-message unit assignments).
func (e *Engine) MessageGraph() ([]MessageInfo, error) {
	for _, msg := range e.messages {
		if len(msg) == 0 {
			return nil, fmt.Errorf("sim: message graph unavailable in broadcast mode")
		}
	}
	deps := e.messageDeps()
	out := make([]MessageInfo, len(e.messages))
	for mi, msg := range e.messages {
		edge := e.units[msg[0]].Edge
		out[mi] = MessageInfo{From: edge.From, To: edge.To, Deps: deps[mi]}
	}
	return out, nil
}

// messageDeps lifts the unit wait-for sets onto the final message layout:
// deps[m] lists, ascending and without repeats, the messages whose units
// some unit of m waits for (nil if none). It is the one message-level
// derivation behind MessageGraph and the async topology.
func (e *Engine) messageDeps() [][]int {
	msgOf := make([]int, len(e.units))
	for mi, msg := range e.messages {
		for _, ui := range msg {
			msgOf[ui] = mi
		}
	}
	deps := make([][]int, len(e.messages))
	listed := make([]int, len(e.messages)) // listed[d] = m+1 once d is in deps[m]
	for mi, msg := range e.messages {
		for _, ui := range msg {
			for _, dep := range e.deps[ui] {
				if d := msgOf[dep]; d != mi && listed[d] != mi+1 {
					listed[d] = mi + 1
					deps[mi] = append(deps[mi], d)
				}
			}
		}
		sort.Ints(deps[mi])
	}
	return deps
}
