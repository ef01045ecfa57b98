package sim

import "m2m/internal/graph"

// Adversary is the Byzantine-corruption schedule the executors consult
// at the pre-aggregation boundary (chaos.Injector implements it): the
// moment a source's raw reading enters the round, the adversary gets to
// replace it. Corruption happens exactly once, at the source's own fill
// slot, so honest relays forward the poisoned value faithfully — the
// signature of a compromised mote rather than a noisy link.
//
// CorruptReading must be a pure function of its arguments (an honest
// node returns v unchanged), so rounds stay reproducible and the
// compiled, lossy, and asynchronous executors corrupt identically.
//
// The lossy and asynchronous executors corrupt through their fault
// schedule's CorruptReading (Faults), falling back to the engine's
// Options.Adversary only for a nil schedule; the fault-free executors
// use Options.Adversary with an engine-held round counter.
type Adversary interface {
	CorruptReading(round int, n graph.NodeID, v float64) float64
}

// nextAdvRound claims the next fault-free round index for the adversary
// schedule. Without an adversary the counter never moves, keeping the
// hot path untouched.
func (e *Engine) nextAdvRound() int {
	if e.adversary == nil {
		return 0
	}
	return int(e.advRound.Add(1)) - 1
}

// reserveAdvRounds claims a contiguous block of n round indices for a
// concurrent batch, so batch[i] deterministically executes as round
// base+i regardless of worker interleaving.
func (e *Engine) reserveAdvRounds(n int) int {
	if e.adversary == nil {
		return 0
	}
	return int(e.advRound.Add(int64(n))) - n
}
