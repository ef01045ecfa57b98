package m2m

import (
	"fmt"
	"math"
	"sort"

	"m2m/internal/chaos"
	"m2m/internal/failure"
)

// ByzMode selects how a Byzantine node lies about its own reading (see
// FaultInjector.WithByzantine).
type ByzMode = chaos.ByzMode

// Byzantine misbehavior modes, re-exported from the chaos injector.
const (
	ByzStuck   = chaos.ByzStuck
	ByzOffset  = chaos.ByzOffset
	ByzAmplify = chaos.ByzAmplify
	ByzSpray   = chaos.ByzSpray
	// Forever marks an open-ended fault window.
	Forever = chaos.Forever
)

// ParseByzMode parses a misbehavior mode name: "stuck", "offset",
// "amplify", or "spray".
func ParseByzMode(s string) (ByzMode, error) { return chaos.ParseByzMode(s) }

// The outlier-quarantine loop of a ResilientSession assumes commensurate
// sensors: every monitored source samples the same physical field, so an
// honest reading sits within a few robust scales of the population
// median.
const (
	// byzGateK is the residual gate in robust scales: a source whose
	// reported reading sits more than byzGateK scaled deviations from the
	// robust center is a suspect this round.
	byzGateK = 6.0
	// byzWindow is how many consecutive suspect rounds a source survives
	// before its specs are excised and the session replans without it.
	byzWindow = 3
	// byzCleanRounds is how many consecutive in-gate rounds an excised
	// source must show before it is re-admitted into the workload.
	byzCleanRounds = 8
	// byzMinScale floors the robust scale estimate, so a quiescent field
	// (near-zero dispersion) does not turn sensor noise into suspicion.
	byzMinScale = 1.0
)

// ExcisionEvent records one quarantine decision: a source excised from
// the workload for sustained out-of-gate reporting, and (eventually) its
// re-admission.
type ExcisionEvent struct {
	// Node is the excised source.
	Node NodeID
	// Round is the round of the excision replan.
	Round int
	// Residual is the offending deviation at excision, in robust scales.
	Residual float64
	// ReplanJ and ReplanBytes price disseminating the excision replan's
	// table diff from the base station.
	ReplanJ     float64
	ReplanBytes int
	// ReadmittedRound is the round the node was re-admitted after
	// sustained clean behavior; -1 while still excised.
	ReadmittedRound int
}

// observeByzantine runs the base station's outlier audit after a round:
// collect every monitored source's reported reading, locate the robust
// center (median) and scale (MAD), flag out-of-gate reporters, excise
// sources that stayed suspect for byzWindow consecutive rounds, and
// re-admit excised sources that stayed clean for byzCleanRounds.
//
// The center and scale are estimated over the non-excised reports only:
// known liars must not drag the scale up and widen their own gate. With
// fewer than three live non-excised sources the audit abstains — a
// median of two tells nothing.
func (s *ResilientSession) observeByzantine(cur map[NodeID]float64, step *ResilientStep) error {
	if s.faults == nil {
		return nil // nothing on a fault-free network can lie
	}
	reports := make(map[NodeID]float64, len(s.monitored))
	est := make([]float64, 0, len(s.monitored))
	for _, n := range s.monitored {
		if s.dead[n] || s.nodeDown(s.round, n) {
			continue
		}
		r := s.faults.CorruptReading(s.round, n, cur[n])
		reports[n] = r
		if !s.excised[n] {
			est = append(est, r)
		}
	}
	if len(est) < 3 {
		return nil
	}
	center := median(est)
	scale := 1.4826 * medianAbsDev(est, center)
	if scale < byzMinScale {
		scale = byzMinScale
	}

	var toExcise, toReadmit []NodeID
	residuals := make(map[NodeID]float64)
	for _, n := range s.monitored {
		r, ok := reports[n]
		if !ok {
			continue
		}
		dev := math.Abs(r-center) / scale
		if dev > byzGateK {
			s.cleanRuns[n] = 0
			s.suspectRuns[n]++
			step.Suspects = append(step.Suspects, n)
			if !s.excised[n] && s.suspectRuns[n] >= byzWindow {
				toExcise = append(toExcise, n)
				residuals[n] = dev
			}
			continue
		}
		s.suspectRuns[n] = 0
		if s.excised[n] {
			s.cleanRuns[n]++
			if s.cleanRuns[n] >= byzCleanRounds {
				toReadmit = append(toReadmit, n)
			}
		}
	}
	for _, n := range toExcise {
		ev, err := s.excise(n, residuals[n])
		if err != nil {
			return err
		}
		step.Excisions = append(step.Excisions, ev)
	}
	for _, n := range toReadmit {
		if err := s.readmit(n); err != nil {
			return err
		}
		step.Readmissions = append(step.Readmissions, n)
	}
	return nil
}

// excise removes a sustained outlier from the workload: its specs are
// pruned (as source everywhere, as destination entirely) and the session
// replans incrementally under a new epoch. The node itself stays in the
// graph — in this fault model a compromised mote lies about its own
// sensor but relays others' traffic faithfully, so routing through it
// remains sound.
func (s *ResilientSession) excise(n NodeID, residual float64) (*ExcisionEvent, error) {
	pruned, _, err := failure.PruneSpecs(s.specs, n)
	if err != nil {
		return nil, fmt.Errorf("m2m: cannot excise node %d: %w", n, err)
	}
	diff, _, _, err := s.replan(s.net.Graph, pruned, s.prices, noNode)
	if err != nil {
		return nil, err
	}
	s.excised[n] = true
	s.suspectRuns[n] = 0
	s.cleanRuns[n] = 0
	ev := &ExcisionEvent{
		Node:            n,
		Round:           s.round,
		Residual:        residual,
		ReplanJ:         diff.EnergyJ,
		ReplanBytes:     diff.Bytes,
		ReadmittedRound: -1,
	}
	s.excisions = append(s.excisions, ev)
	s.openExcision[n] = ev
	return ev, nil
}

// readmit restores an excised source that has behaved for byzCleanRounds
// consecutive rounds: the workload is rebuilt from the pristine specs
// minus the dead and still-excised sets, and the session replans
// incrementally — the inverse of excise, through the same machinery.
func (s *ResilientSession) readmit(n NodeID) error {
	delete(s.excised, n)
	specs, err := s.rebuildSpecs()
	if err != nil {
		s.excised[n] = true
		return fmt.Errorf("m2m: cannot readmit node %d: %w", n, err)
	}
	if _, _, _, err := s.replan(s.net.Graph, specs, s.prices, noNode); err != nil {
		s.excised[n] = true
		return err
	}
	s.cleanRuns[n] = 0
	if ev := s.openExcision[n]; ev != nil {
		ev.ReadmittedRound = s.round
		delete(s.openExcision, n)
	}
	return nil
}

// rebuildSpecs re-derives the current workload from the pristine one:
// pruned by the dead set, then by the excised set, each in ascending
// order so the result matches what successive single-node prunes would
// have produced.
func (s *ResilientSession) rebuildSpecs() ([]Spec, error) {
	specs := append([]Spec(nil), s.origSpecs...)
	for _, d := range s.DeadNodes() {
		pruned, _, err := failure.PruneSpecs(specs, d)
		if err != nil {
			return nil, err
		}
		specs = pruned
	}
	for _, x := range s.ExcisedNodes() {
		pruned, _, err := failure.PruneSpecs(specs, x)
		if err != nil {
			return nil, err
		}
		specs = pruned
	}
	return specs, nil
}

// ExcisedNodes returns the sources currently excised by the quarantine
// loop, ascending.
func (s *ResilientSession) ExcisedNodes() []NodeID {
	out := make([]NodeID, 0, len(s.excised))
	for n := range s.excised {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Excisions returns every excision event so far, in order; re-admitted
// nodes carry their ReadmittedRound.
func (s *ResilientSession) Excisions() []*ExcisionEvent {
	return append([]*ExcisionEvent(nil), s.excisions...)
}

// median returns the middle order statistic (lower of the two for even
// lengths — a sample value, the way the audit wants its center). It
// scratches over a copy.
func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[(len(cp)-1)/2]
}

// medianAbsDev returns the median absolute deviation around center.
func medianAbsDev(xs []float64, center float64) float64 {
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - center)
	}
	return median(dev)
}
