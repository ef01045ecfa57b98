package m2m

import (
	"math"
	"testing"

	"m2m/internal/failure"
)

// TestSessionSwitchesToTDMA pins the contention-adaptive loop: under a
// collision channel the unscheduled session observes heavy collision
// loss, crosses the switch threshold, floods a TDMA frame, and from then
// on runs collision-free rounds that are byte-identical to fault-free
// execution.
func TestSessionSwitchesToTDMA(t *testing.T) {
	net, specs, gen := chaosFixture(t, 13)
	inj := NewFaultInjector(13).WithCollisions(0)
	if err := inj.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj, ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}

	switched := -1
	sawCollisions := false
	for r := 0; r < 8 && switched < 0; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		sawCollisions = sawCollisions || step.Collisions > 0
		if step.TDMA {
			switched = r
		}
	}
	if !sawCollisions {
		t.Fatal("collision channel produced no collisions")
	}
	if switched < 0 {
		t.Fatalf("session never switched to TDMA (smoothed rate %v)", s.CollisionRate())
	}
	if !s.TDMAActive() {
		t.Fatal("TDMAActive disagrees with the step report")
	}

	// Post-switch steady state: scheduled, collision-free, and
	// byte-identical to the clean plan.
	inst, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(p, net, gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if step.Collisions != 0 || !step.TDMA {
			t.Fatalf("post-switch round %d: collisions=%d tdma=%v", r, step.Collisions, step.TDMA)
		}
		if step.Fresh != len(specs) || step.Stale != 0 || step.Starved != 0 {
			t.Fatalf("post-switch round %d not fresh: %+v", r, step)
		}
		if step.EnergyJ != want.EnergyJ {
			t.Fatalf("post-switch round %d: energy %v != clean %v", r, step.EnergyJ, want.EnergyJ)
		}
		for d, v := range want.Values {
			if step.Values[d] != v {
				t.Fatalf("post-switch round %d: value at %d = %v, want %v (bit-exact)", r, d, step.Values[d], v)
			}
		}
	}
}

// TestSessionTDMADisabled pins the opt-out: a negative threshold never
// switches, whatever the contention.
func TestSessionTDMADisabled(t *testing.T) {
	net, specs, gen := chaosFixture(t, 13)
	inj := NewFaultInjector(13).WithCollisions(0)
	s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj, ResilientConfig{TDMASwitchThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if step.TDMA {
			t.Fatalf("round %d switched despite disabled threshold", r)
		}
	}
	if s.TDMAActive() {
		t.Fatal("session switched despite disabled threshold")
	}
	if _, err := NewResilientSession(net, specs, RouterReversePath, gen, inj, ResilientConfig{TDMASwitchThreshold: 2}); err == nil {
		t.Fatal("threshold above 1 accepted")
	}
}

// TestCollisionSoakCrashMidFrame is the contention soak: a session that
// has already switched to TDMA loses a relay mid-run, detects it through
// the scheduled rounds, replans, re-derives a frame for the healed plan,
// and converges to values byte-identical to a from-scratch plan of the
// pruned workload.
func TestCollisionSoakCrashMidFrame(t *testing.T) {
	net, specs, gen := chaosFixture(t, 7)
	dead := specs[0].Func.Sources()[0]
	const crashRound = 4
	inj := NewFaultInjector(7).WithCollisions(0)
	inj.Crash(dead, crashRound)
	if err := inj.Validate(); err != nil {
		t.Fatal(err)
	}
	g2, err := failure.RemoveNode(net.Graph, dead)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Components()) > 2 { // dead node itself is one component
		t.Skip("crash partitions this network; recovery undefined")
	}

	s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj, ResilientConfig{MissThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	var recovery *RecoveryEvent
	for r := 0; r < 25 && recovery == nil; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if r == crashRound-1 && !step.TDMA {
			t.Fatalf("session still unscheduled at round %d; crash would not be mid-frame", r)
		}
		if len(step.Recoveries) > 0 {
			recovery = step.Recoveries[0]
		}
	}
	if recovery == nil {
		t.Fatal("crash never detected under the collision channel")
	}
	if recovery.Dead != dead {
		t.Fatalf("declared %d dead, want %d", recovery.Dead, dead)
	}
	if !s.TDMAActive() {
		t.Fatal("recovery dropped the TDMA switch")
	}

	// Settle on the healed, re-framed plan.
	var last *ResilientStep
	for r := 0; r < 3; r++ {
		last, err = s.Step()
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.Collisions != 0 || !last.TDMA {
		t.Fatalf("healed round not scheduled/clean: %+v", last)
	}
	if last.Starved != 0 || last.Stale != 0 {
		t.Fatalf("post-recovery round not fresh: %+v", last)
	}

	pruned, _, err := failure.PruneSpecs(specs, dead)
	if err != nil {
		t.Fatal(err)
	}
	net2 := &Network{Layout: net.Layout, Graph: g2, Radio: net.Radio}
	inst2, err := net2.NewInstance(pruned, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Optimize(inst2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(p2, net2, gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	if len(last.Values) != len(want.Values) {
		t.Fatalf("session serves %d destinations, from-scratch serves %d", len(last.Values), len(want.Values))
	}
	for d, v := range want.Values {
		if last.Values[d] != v {
			t.Fatalf("dest %d: recovered value %v, from-scratch %v (want exact)", d, last.Values[d], v)
		}
	}
}

// TestMinDegreeRouterGolden pins the facade router: plans routed over the
// minimum-degree tree still compute every aggregate exactly.
func TestMinDegreeRouterGolden(t *testing.T) {
	net, specs, gen := chaosFixture(t, 19)
	inst, err := net.NewInstance(specs, RouterMinDegree)
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
	ref, err := net.NewInstance(specs, RouterReversePath)
	if err != nil {
		t.Fatal(err)
	}
	pref, err := Optimize(ref)
	if err != nil {
		t.Fatal(err)
	}
	wref, err := Execute(pref, net, gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != len(wref.Values) {
		t.Fatalf("%d values vs %d", len(res.Values), len(wref.Values))
	}
	for d, v := range wref.Values {
		// Different tree shapes merge partials in different orders, so
		// compare to float tolerance, not bit-exactly.
		if diff := math.Abs(res.Values[d] - v); diff > 1e-6*(1+math.Abs(v)) {
			t.Fatalf("dest %d: min-degree value %v, reverse-path %v", d, res.Values[d], v)
		}
	}
}

// TestExcisionReplanKeepsTDMA pins that a Byzantine excision replan
// derives a frame for its new engine like every other replan: once the
// session has switched, every round runs scheduled and the rounds after
// the excision are collision-free.
func TestExcisionReplanKeepsTDMA(t *testing.T) {
	net, specs, gen, _ := byzantineFixture(t)
	inj, _, _ := byzantineInjector(909)
	inj = inj.WithCollisions(0)
	if err := inj.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj, ResilientConfig{Byzantine: true})
	if err != nil {
		t.Fatal(err)
	}
	excised := -1
	for r := 0; r < 12; r++ {
		step, err := s.Step()
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if s.TDMAActive() && s.engine.Frame() == nil {
			t.Fatalf("round %d: session reports TDMA but the engine has no frame", r)
		}
		if excised >= 0 && step.Collisions != 0 {
			t.Fatalf("round %d (after the round-%d excision): %d collisions", r, excised, step.Collisions)
		}
		if excised < 0 && len(step.Excisions) > 0 {
			if !step.TDMA {
				t.Fatalf("round %d: excision before the TDMA switch", r)
			}
			excised = r
		}
	}
	if excised < 0 {
		t.Fatal("no excision happened")
	}
}
