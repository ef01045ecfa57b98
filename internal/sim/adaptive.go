package sim

import (
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
)

// AdaptiveSuppressor implements the paper's closing suggestion for
// continuous control: "the choice of override policy should depend on the
// volatility of source values." It tracks the observed per-round change
// fraction with an exponential moving average and selects the policy the
// Figure 7 trade-off prescribes — aggressive when the network is quiet,
// conservative as volatility grows, and no override at all when most
// values change every round.
type AdaptiveSuppressor struct {
	subs     map[Policy]*Suppressor
	nSources int

	// rate is the EWMA of the change fraction; alpha its smoothing.
	rate  float64
	alpha float64

	// Policy selection thresholds on the smoothed change rate, derived
	// from where the fixed policies cross in the override experiments.
	aggressiveBelow   float64
	mediumBelow       float64
	conservativeBelow float64
}

// NewAdaptiveSuppressor prepares adaptive suppressed execution of p.
func NewAdaptiveSuppressor(p *plan.Plan, model radio.Model) (*AdaptiveSuppressor, error) {
	a := &AdaptiveSuppressor{
		subs:              make(map[Policy]*Suppressor, 4),
		alpha:             0.3,
		aggressiveBelow:   0.08,
		mediumBelow:       0.15,
		conservativeBelow: 0.25,
	}
	for _, pol := range []Policy{PolicyNone, PolicyConservative, PolicyMedium, PolicyAggressive} {
		s, err := NewSuppressor(p, model, pol)
		if err != nil {
			return nil, err
		}
		a.subs[pol] = s
	}
	a.nSources = len(p.Inst.Sources())
	return a, nil
}

// CurrentPolicy returns the policy the current volatility estimate
// selects.
func (a *AdaptiveSuppressor) CurrentPolicy() Policy {
	switch {
	case a.rate < a.aggressiveBelow:
		return PolicyAggressive
	case a.rate < a.mediumBelow:
		return PolicyMedium
	case a.rate < a.conservativeBelow:
		return PolicyConservative
	default:
		return PolicyNone
	}
}

// Round executes one suppressed round under the currently selected policy
// and then updates the volatility estimate with this round's observation.
func (a *AdaptiveSuppressor) Round(deltas map[graph.NodeID]float64) (*SuppressionRound, Policy, error) {
	pol := a.CurrentPolicy()
	res, err := a.subs[pol].Round(deltas)
	if err != nil {
		return nil, pol, err
	}
	observed := 0.0
	if a.nSources > 0 {
		observed = float64(len(deltas)) / float64(a.nSources)
	}
	a.rate = a.alpha*observed + (1-a.alpha)*a.rate
	return res, pol, nil
}
