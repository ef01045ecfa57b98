package m2m

import (
	"math"
	"testing"
)

func sessionFixture(t *testing.T) (*Network, []Spec, *Plan) {
	t.Helper()
	net := GridNetwork(7, 7, 30)
	specs, err := net.GenerateWorkload(WorkloadConfig{
		NumDests: 6, SourcesPerDest: 6, Dispersion: 0.9, MaxHops: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	return net, specs, p
}

func TestSessionTracksValuesExactly(t *testing.T) {
	net, specs, p := sessionFixture(t)
	gen := NewRandomWalkReadings(net.Len(), 11, 50, 2)
	// Zero threshold: every change transmits, so session values must match
	// a reference generator replayed through direct evaluation.
	sess, err := NewSession(p, net, PolicyMedium, gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewRandomWalkReadings(net.Len(), 11, 50, 2)
	for round := 0; round < 8; round++ {
		step, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		cur := ref.Next()
		for _, sp := range specs {
			want := 0.0
			wf := sp.Func.(interface{ Weight(NodeID) float64 })
			for _, s := range sp.Func.Sources() {
				want += wf.Weight(s) * cur[s]
			}
			got := step.Values[sp.Dest]
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("round %d: value at %d = %v, want %v", round, sp.Dest, got, want)
			}
		}
		if step.Round != round {
			t.Fatalf("step round = %d, want %d", step.Round, round)
		}
		vals := sess.Values()
		for d, v := range step.Values {
			if vals[d] != v {
				t.Fatalf("round %d: Values() at %d = %v, step says %v", round, d, vals[d], v)
			}
		}
		vals[specs[0].Dest] = -1e9 // the accessor must hand out a copy
		if sess.Values()[specs[0].Dest] == -1e9 {
			t.Fatal("Values() aliases session state")
		}
	}
	if sess.Rounds() != 8 {
		t.Errorf("Rounds = %d", sess.Rounds())
	}
	if sess.TotalEnergyJ() <= 0 {
		t.Error("session consumed no energy")
	}
}

func TestSessionSuppressionSavesEnergy(t *testing.T) {
	net, _, p := sessionFixture(t)
	// Constant readings after bootstrap: every suppressed round is free.
	sess, err := NewSession(p, net, PolicyNone, NewConstantReadings(net.Len(), 5), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	if first.EnergyJ <= 0 {
		t.Error("bootstrap round free")
	}
	for round := 1; round < 5; round++ {
		step, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		if step.EnergyJ != 0 || step.Changed != 0 {
			t.Fatalf("round %d: quiet network cost %v J with %d changes", round, step.EnergyJ, step.Changed)
		}
	}
}

func TestSessionThresholdSuppressesSmallChanges(t *testing.T) {
	net, _, p := sessionFixture(t)
	// Tiny random walk below the threshold: nothing after bootstrap.
	sess, err := NewSession(p, net, PolicyNone, NewRandomWalkReadings(net.Len(), 5, 10, 0.001), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Step(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round < 4; round++ {
		step, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		if step.Changed != 0 {
			t.Fatalf("sub-threshold change transmitted in round %d", round)
		}
	}
}

func TestSessionLifetime(t *testing.T) {
	net, _, p := sessionFixture(t)
	sess, err := NewSession(p, net, PolicyNone, NewConstantReadings(net.Len(), 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	rounds, hottest, err := sess.LifetimeRounds(100)
	if err != nil {
		t.Fatal(err)
	}
	if rounds <= 0 {
		t.Errorf("lifetime = %d rounds", rounds)
	}
	if int(hottest) < 0 || int(hottest) >= net.Len() {
		t.Errorf("hottest node %d out of range", hottest)
	}
}

func TestSessionRejectsBadInputs(t *testing.T) {
	net, _, p := sessionFixture(t)
	if _, err := NewSession(p, net, PolicyNone, nil, 0); err == nil {
		t.Error("nil generator accepted")
	}
	if _, err := NewSession(p, net, PolicyNone, NewConstantReadings(net.Len(), 1), -1); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestRouterSourceSPTUsable(t *testing.T) {
	net := GreatDuckIsland()
	specs, err := net.GenerateWorkload(WorkloadConfig{
		NumDests: 5, SourcesPerDest: 8, Dispersion: 0.9, MaxHops: 4, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Smallest-ID BFS parents keep the per-destination suffix property,
	// so a rejection is a regression.
	inst, err := net.NewInstance(specs, RouterSourceSPT)
	if err != nil {
		t.Fatalf("source-SPT rejected: %v", err)
	}
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	readings := make(map[NodeID]float64)
	for i := 0; i < net.Len(); i++ {
		readings[NodeID(i)] = float64(i)
	}
	if _, err := Execute(p, net, readings); err != nil {
		t.Fatal(err)
	}
}
