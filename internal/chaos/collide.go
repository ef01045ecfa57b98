// Collision (slot contention) model: protocol interference with no
// collision detection, after Chang & Guan. Two transmissions in the same
// slot collide when they share a receiver, or when one's receiver is
// within radio range of the other's sender — both frames are destroyed,
// but the energy is still spent on both sides. A seeded capture option
// lets one frame survive a collision with a configured probability,
// modeling the capture effect of real narrow-band radios.
//
// The injector only supplies the per-message stochastic draws (capture,
// backoff) and the configuration; the slotted-channel resolution itself —
// which transmissions share a slot and which pairs conflict — lives in
// internal/sim, which knows the message graph. Keeping the draws here
// preserves the package invariant: every outcome is a pure function of
// (seed, round, edge, attempt, salt), so all executors that replay the
// same contention plan see identical collisions.
package chaos

import (
	"fmt"
	"math"

	"m2m/internal/routing"
)

// Purpose salts for the contention draws, disjoint from the timing salts.
const (
	saltCapture uint64 = 0xda942042e4dd58b5
	saltBackoff uint64 = 0x452821e638d01377
)

// WithCollisions enables the slot-contention model. Concurrent
// transmissions that interfere at a receiver destroy each other; with
// probability capture in [0, 1) one of the colliding frames is captured
// (survives) anyway, drawn independently per frame per slot. capture = 0
// is the classic no-capture collision channel.
func (in *Injector) WithCollisions(capture float64) *Injector {
	in.collide = true
	in.captureProb = capture
	return in
}

// CollisionsEnabled reports whether the slot-contention model is on.
func (in *Injector) CollisionsEnabled() bool { return in.collide }

// CaptureProb returns the configured capture probability clamped into
// [0, 1), exactly like LinkLoss: NaN or negative captures nothing, and a
// value >= 1 is pinned just below certain capture so collisions can still
// destroy frames.
func (in *Injector) CaptureProb() float64 {
	if !in.collide {
		return 0
	}
	p := in.captureProb
	if math.IsNaN(p) || p < 0 {
		return 0
	}
	if p >= 1 {
		return math.Nextafter(1, 0)
	}
	return p
}

// CaptureWins reports whether the attempt-th frame of the round on e is
// captured — survives a collision it is part of. The draw is a pure
// function of (seed, round, edge, attempt), independent of the delivery
// and timing draws.
func (in *Injector) CaptureWins(round int, e routing.Edge, attempt int) bool {
	p := in.CaptureProb()
	if p <= 0 {
		return false
	}
	return drawSalted(in.seed, round, e, attempt, saltCapture) < p
}

// BackoffSlots draws a uniform backoff in [0, window) slots for the
// attempt-th frame of the round on e — the seeded random backoff the
// executors use to de-synchronize retries after a collision. window <= 1
// always backs off zero slots.
func (in *Injector) BackoffSlots(round int, e routing.Edge, attempt, window int) int {
	if window <= 1 {
		return 0
	}
	s := int(drawSalted(in.seed, round, e, attempt, saltBackoff) * float64(window))
	if s >= window { // guard the open interval against rounding
		s = window - 1
	}
	return s
}

// validateCollisions rejects contention configs the executor cannot
// price: capture probabilities outside what CaptureProb clamps into
// [0, 1).
func (in *Injector) validateCollisions() error {
	if in.collide && (math.IsNaN(in.captureProb) || in.captureProb < 0 || in.captureProb >= 1) {
		return fmt.Errorf("chaos: capture probability %v outside [0,1)", in.captureProb)
	}
	return nil
}
