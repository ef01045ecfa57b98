package m2m

import (
	"bytes"
	"math"
	"testing"

	"m2m/internal/chaos"
	"m2m/internal/failure"
	"m2m/internal/wire"
)

// byzantineFixture builds the adversarial soak cast: a 24-node grid,
// three destinations estimating the same physical field over the same 20
// sources — exact weighted average, trimmed mean, q-digest median — and
// honest readings in a narrow [20, 22] band so a robust center is sharp.
func byzantineFixture(t *testing.T) (*Network, []Spec, fixedGen, []NodeID) {
	t.Helper()
	net := GridNetwork(6, 4, 10)
	var sources []NodeID
	weights := make(map[NodeID]float64)
	for i := 1; i <= 20; i++ {
		sources = append(sources, NodeID(i))
		weights[NodeID(i)] = 1
	}
	tm, err := NewTrimmedMean(sources, 6, 0, 100, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	qd, err := NewQDigest(sources, 6, 0, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Dest: 21, Func: NewWeightedAverage(weights)},
		{Dest: 22, Func: tm},
		{Dest: 23, Func: qd},
	}
	gen := make(fixedGen, net.Len())
	for i := 0; i < net.Len(); i++ {
		gen[NodeID(i)] = 20 + float64(i%5)*0.5
	}
	return net, specs, gen, sources
}

// byzantineInjector arms ⌊n/4⌋ = 6 of the 24 nodes with mixed misbehavior:
// four permanent liars (stuck high, amplified high, sprayed, amplified
// low) and two windowed ones (drifting offset, stuck low) that reform
// after round 6 — the re-admission candidates.
func byzantineInjector(seed int64) (*FaultInjector, map[NodeID]bool, map[NodeID]bool) {
	inj := NewFaultInjector(seed).
		WithByzantine(2, chaos.ByzStuck, 2000, 0, chaos.Forever).
		WithByzantine(5, chaos.ByzAmplify, 100, 0, chaos.Forever).
		WithByzantine(8, chaos.ByzSpray, 500, 0, chaos.Forever).
		WithByzantine(17, chaos.ByzAmplify, -30, 0, chaos.Forever).
		WithByzantine(11, chaos.ByzOffset, 25, 0, 6).
		WithByzantine(14, chaos.ByzStuck, -400, 0, 6)
	permanent := map[NodeID]bool{2: true, 5: true, 8: true, 17: true}
	windowed := map[NodeID]bool{11: true, 14: true}
	return inj, permanent, windowed
}

// honestTruth executes one fault-free round and returns the three
// destinations' honest estimates.
func honestTruth(t *testing.T, net *Network, specs []Spec, gen fixedGen) map[NodeID]float64 {
	t.Helper()
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(p, net, gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	return res.Values
}

// TestByzantineRobustAggregates is the no-quarantine arm of the soak:
// under six mixed-mode liars the exact weighted average diverges far from
// the honest truth every round, while the trimmed mean and the q-digest
// median stay within a few bucket widths of it.
func TestByzantineRobustAggregates(t *testing.T) {
	net, specs, gen, _ := byzantineFixture(t)
	truth := honestTruth(t, net, specs, gen)
	inj, _, _ := byzantineInjector(909)
	if err := inj.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj, ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if len(step.Suspects) != 0 || len(step.Excisions) != 0 {
			t.Fatalf("round %d: audit ran without a Byzantine config", r)
		}
		if got := math.Abs(step.Values[21] - truth[21]); got < 50 {
			t.Fatalf("round %d: exact wavg error %v, want divergence > 50", r, got)
		}
		if got := math.Abs(step.Values[22] - truth[22]); got > 10 {
			t.Fatalf("round %d: trimmed-mean error %v, want < 10", r, got)
		}
		if got := math.Abs(step.Values[23] - truth[23]); got > 10 {
			t.Fatalf("round %d: q-digest median error %v, want < 10", r, got)
		}
	}
}

// TestByzantineQuarantineSoak is the acceptance soak for the quarantine
// loop: the audit excises exactly the six liars (zero false quarantines),
// the two windowed liars are re-admitted after sustained clean behavior,
// the healed exact average converges back to the honest truth, and the
// post-excision plan is byte-identical to a from-scratch Optimize on the
// pruned workload.
func TestByzantineQuarantineSoak(t *testing.T) {
	net, specs, gen, _ := byzantineFixture(t)
	truth := honestTruth(t, net, specs, gen)
	inj, permanent, windowed := byzantineInjector(909)
	if err := inj.Validate(); err != nil {
		t.Fatal(err)
	}
	liars := make(map[NodeID]bool)
	for n := range permanent {
		liars[n] = true
	}
	for n := range windowed {
		liars[n] = true
	}
	cfg := ResilientConfig{Byzantine: true}
	s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 30
	everSuspect := make(map[NodeID]bool)
	readmitted := make(map[NodeID]bool)
	for r := 0; r < rounds; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for _, n := range step.Suspects {
			if !liars[n] {
				t.Fatalf("round %d: honest node %d flagged suspect", r, n)
			}
			everSuspect[n] = true
		}
		for _, ev := range step.Excisions {
			if !liars[ev.Node] {
				t.Fatalf("round %d: honest node %d excised (false quarantine)", r, ev.Node)
			}
			if ev.Round != r || ev.ReadmittedRound != -1 || ev.ReplanBytes <= 0 {
				t.Fatalf("round %d: malformed excision event %+v", r, ev)
			}
		}
		for _, n := range step.Readmissions {
			if !windowed[n] {
				t.Fatalf("round %d: node %d re-admitted but never reformed", r, n)
			}
			readmitted[n] = true
		}
		// The healed workload keeps the exact average near the truth once
		// the liars are out and the epochs have settled.
		if r >= 20 {
			if got := math.Abs(step.Values[21] - truth[21]); got > 5 {
				t.Fatalf("round %d: post-excision wavg error %v, want < 5", r, got)
			}
			if got := math.Abs(step.Values[22] - truth[22]); got > 10 {
				t.Fatalf("round %d: post-excision trimmed-mean error %v, want < 10", r, got)
			}
		}
	}

	for n := range liars {
		if !everSuspect[n] {
			t.Fatalf("liar %d was never flagged suspect", n)
		}
	}
	for n := range windowed {
		if !readmitted[n] {
			t.Fatalf("reformed liar %d was never re-admitted", n)
		}
	}
	excised := s.ExcisedNodes()
	if len(excised) != len(permanent) {
		t.Fatalf("final excised set %v, want exactly the permanent liars", excised)
	}
	for _, n := range excised {
		if !permanent[n] {
			t.Fatalf("final excised set %v contains non-permanent node %d", excised, n)
		}
	}
	for _, ev := range s.Excisions() {
		switch {
		case permanent[ev.Node] && ev.ReadmittedRound != -1:
			t.Fatalf("permanent liar %d marked re-admitted: %+v", ev.Node, ev)
		case windowed[ev.Node] && ev.ReadmittedRound < 0:
			t.Fatalf("reformed liar %d still marked excised: %+v", ev.Node, ev)
		}
	}
	if lag := s.EpochLaggingNodes(); len(lag) != 0 {
		t.Fatalf("epochs never settled: %v still lagging", lag)
	}
	if len(s.DeadNodes()) != 0 || len(s.Recoveries()) != 0 {
		t.Fatalf("excision leaked into the failure machinery: dead %v, recoveries %v",
			s.DeadNodes(), s.Recoveries())
	}
	checkExcisionByteIdentity(t, net, specs, gen, s)
}

// checkExcisionByteIdentity rebuilds, from scratch, the plan the
// session's excisions should have produced — the pristine workload pruned
// by each excised node in ascending order, routed and optimized on the
// unchanged graph — and checks the session's plan matches byte for byte:
// every node's table blob, and one executed round's values and energy.
func checkExcisionByteIdentity(t *testing.T, net *Network, specs []Spec, gen fixedGen, s *ResilientSession) {
	t.Helper()
	pruned := append([]Spec(nil), specs...)
	for _, n := range s.ExcisedNodes() {
		p, _, err := failure.PruneSpecs(pruned, n)
		if err != nil {
			t.Fatal(err)
		}
		pruned = p
	}
	scratchInst, err := net.NewInstance(pruned, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := Optimize(scratchInst)
	if err != nil {
		t.Fatal(err)
	}
	sessPlan := s.CurrentPlan()
	sessTab, err := sessPlan.BuildTables()
	if err != nil {
		t.Fatal(err)
	}
	scratchTab, err := scratch.BuildTables()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < net.Len(); i++ {
		n := NodeID(i)
		got, err := wire.EncodeNodeTables(sessPlan.Inst, sessTab, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wire.EncodeNodeTables(scratchInst, scratchTab, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("node %d: incremental excision tables differ from a from-scratch plan", n)
		}
	}
	want, err := Execute(scratch, net, gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	have, err := Execute(sessPlan, net, gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	if have.EnergyJ != want.EnergyJ {
		t.Fatalf("post-excision round energy %v != from-scratch %v", have.EnergyJ, want.EnergyJ)
	}
	for d, v := range want.Values {
		if math.Float64bits(have.Values[d]) != math.Float64bits(v) {
			t.Fatalf("post-excision value at %d = %v, want %v (bit-exact)", d, have.Values[d], v)
		}
	}
}

// TestByzantineHonestNoOp pins the honest-network contract: a session with
// the audit armed but a lie-free schedule never suspects, never excises,
// and keeps every round's estimates bit-identical to a fault-free session.
func TestByzantineHonestNoOp(t *testing.T) {
	net, specs, gen, _ := byzantineFixture(t)
	inj := NewFaultInjector(77) // injects nothing
	audited, err := NewResilientSession(net, specs, RouterReversePath, gen, inj, ResilientConfig{Byzantine: true})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewResilientSession(net, specs, RouterReversePath, gen, nil, ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		a, err := audited.Step()
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Suspects) != 0 || len(a.Excisions) != 0 || len(a.Readmissions) != 0 {
			t.Fatalf("round %d: audit fired on an honest network: %+v", r, a)
		}
		for d, v := range b.Values {
			if math.Float64bits(a.Values[d]) != math.Float64bits(v) {
				t.Fatalf("round %d: audited value at %d = %v, plain %v (bit-exact)", r, d, a.Values[d], v)
			}
		}
		if a.EnergyJ != b.EnergyJ {
			t.Fatalf("round %d: audited energy %v != plain %v", r, a.EnergyJ, b.EnergyJ)
		}
	}
	if got := audited.ExcisedNodes(); len(got) != 0 {
		t.Fatalf("honest network excised %v", got)
	}
}
