package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"m2m/internal/chaos"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
)

// conservationTol bounds the float drift between the energy an executor
// reports and the debits it books: the two differ only in association
// order (UnicastJoules vs txJ+rxJ), never in terms.
const conservationTol = 1e-12

func TestBatteryLedgerSemantics(t *testing.T) {
	if _, err := NewBattery(0, 1); err == nil {
		t.Error("zero-node battery accepted")
	}
	if _, err := NewBattery(3, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	b, err := NewBattery(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if !b.Spend(0, 1, 4) {
		t.Fatal("affordable debit refused")
	}
	if got := b.Residual(1); got != 6 {
		t.Fatalf("residual = %v, want 6", got)
	}
	if !b.Spend(0, 1, 0) || !b.Spend(0, 1, -5) {
		t.Fatal("free debit refused")
	}
	if got := b.Residual(1); got != 6 {
		t.Fatalf("free debits changed residual to %v", got)
	}
	// Brown-out: the unaffordable debit forfeits the remaining charge
	// without booking it as spend, and pins the death round.
	if b.Spend(7, 1, 100) {
		t.Fatal("unaffordable debit accepted")
	}
	if got := b.Residual(1); got != 0 {
		t.Fatalf("forfeited residual = %v, want 0", got)
	}
	if got := b.SpentJ(1); got != 4 {
		t.Fatalf("spent = %v, want only the paid 4 J", got)
	}
	if !b.Depleted(1) || b.DepletedAt(1) != 7 {
		t.Fatalf("depletion not recorded: depleted=%v at %d", b.Depleted(1), b.DepletedAt(1))
	}
	if b.Spend(8, 1, 0.001) {
		t.Fatal("dead node accepted a debit")
	}
	if got := b.FirstDeathRound(); got != 7 {
		t.Fatalf("first death = %d, want 7", got)
	}
	if got := b.DepletedNodes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("depleted nodes = %v, want [1]", got)
	}
	// MinResidualJ ignores the depleted node.
	b.Spend(8, 2, 3)
	if got := b.MinResidualJ(); got != 7 {
		t.Fatalf("min residual = %v, want 7", got)
	}
	if got := b.TotalSpentJ(); got != 7 {
		t.Fatalf("total spent = %v, want 7", got)
	}
	// SetCapacity resurrects and resizes.
	if err := b.SetCapacity(1, 2); err != nil {
		t.Fatal(err)
	}
	if b.Depleted(1) || b.Residual(1) != 2 || b.SpentJ(1) != 0 {
		t.Fatal("SetCapacity did not reset the node")
	}
	if err := b.SetCapacity(9, 1); err == nil {
		t.Error("out-of-range SetCapacity accepted")
	}
	if err := b.SetCapacity(1, 0); err == nil {
		t.Error("non-positive SetCapacity accepted")
	}
	// DrainPerRound browns out exactly the nodes that cannot pay.
	b2, _ := NewBattery(2, 10)
	b2.DrainPerRound(3, map[graph.NodeID]float64{0: 4, 1: 11})
	if b2.SpentJ(0) != 4 || !b2.Depleted(1) || b2.DepletedAt(1) != 3 || b2.Residual(1) != 0 {
		t.Fatalf("DrainPerRound semantics: spent0=%v dead1=%v at %d res1=%v",
			b2.SpentJ(0), b2.Depleted(1), b2.DepletedAt(1), b2.Residual(1))
	}
}

// TestBatteryConservation drives every executor with an attached ledger
// and checks, per round, that the energy the result reports, the sum of
// its per-node split, and the debits actually booked against the battery
// all agree to within float association error — no executor spends energy
// it does not debit or debits energy it does not report.
func TestBatteryConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := buildInstance(t, rng, 40, 6, 6, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, inst.Net.Len())
	n := inst.Net.Len()
	const rounds = 4

	fresh := func(t *testing.T) (*Engine, *Battery) {
		t.Helper()
		bat, err := NewBattery(n, 1e6) // ample: conservation, not depletion
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true, Battery: bat})
		if err != nil {
			t.Fatal(err)
		}
		return eng, bat
	}
	check := func(t *testing.T, bat *Battery, prevSpent, energyJ float64, perNode map[graph.NodeID]float64) float64 {
		t.Helper()
		spent := bat.TotalSpentJ()
		if d := math.Abs((spent - prevSpent) - energyJ); d > conservationTol {
			t.Fatalf("debits %.18g != reported energy %.18g (|diff| %g)", spent-prevSpent, energyJ, d)
		}
		var sum float64
		for _, j := range perNode {
			sum += j
		}
		if d := math.Abs(sum - energyJ); d > conservationTol {
			t.Fatalf("per-node split sums to %.18g, energy %.18g (|diff| %g)", sum, energyJ, d)
		}
		return spent
	}

	t.Run("reference", func(t *testing.T) {
		eng, bat := fresh(t)
		prev := 0.0
		for r := 0; r < rounds; r++ {
			res, err := eng.runMapBased(readings, nil)
			if err != nil {
				t.Fatal(err)
			}
			prev = check(t, bat, prev, res.EnergyJ, res.PerNodeJ)
		}
	})
	t.Run("compiled", func(t *testing.T) {
		eng, bat := fresh(t)
		prev := 0.0
		for r := 0; r < rounds; r++ {
			res, err := eng.Run(readings)
			if err != nil {
				t.Fatal(err)
			}
			prev = check(t, bat, prev, res.EnergyJ, res.PerNodeJ)
		}
	})
	t.Run("runinto", func(t *testing.T) {
		eng, bat := fresh(t)
		st := eng.NewRoundState()
		prev := 0.0
		for r := 0; r < rounds; r++ {
			res, err := eng.RunInto(readings, st)
			if err != nil {
				t.Fatal(err)
			}
			prev = check(t, bat, prev, res.EnergyJ, res.PerNodeJ)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		eng, bat := fresh(t)
		batch := make([]map[graph.NodeID]float64, rounds)
		for i := range batch {
			batch[i] = readings
		}
		results, err := eng.RunConcurrent(context.Background(), batch, 3)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, res := range results {
			total += res.EnergyJ
			var sum float64
			for _, j := range res.PerNodeJ {
				sum += j
			}
			if d := math.Abs(sum - res.EnergyJ); d > conservationTol {
				t.Fatalf("per-node split sums to %.18g, energy %.18g", sum, res.EnergyJ)
			}
		}
		if d := math.Abs(bat.TotalSpentJ() - total); d > conservationTol {
			t.Fatalf("debits %.18g != batch energy %.18g", bat.TotalSpentJ(), total)
		}
	})
	t.Run("lossy-fault-free", func(t *testing.T) {
		eng, bat := fresh(t)
		prev := 0.0
		for r := 0; r < rounds; r++ {
			res, err := eng.RunLossy(r, readings, nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			prev = check(t, bat, prev, res.EnergyJ, res.PerNodeJ)
		}
	})
	t.Run("lossy-chaotic", func(t *testing.T) {
		eng, bat := fresh(t)
		inj := chaos.New(23).WithUniformLoss(0.3)
		prev := 0.0
		retried := 0
		for r := 0; r < rounds; r++ {
			res, err := eng.RunLossy(r, readings, inj, 3)
			if err != nil {
				t.Fatal(err)
			}
			retried += res.Retries
			prev = check(t, bat, prev, res.EnergyJ, res.PerNodeJ)
		}
		if retried == 0 {
			t.Fatal("chaotic run exercised no retries — seed too tame for the test to mean anything")
		}
	})
	t.Run("async-fault-free", func(t *testing.T) {
		eng, bat := fresh(t)
		runner, err := NewAsyncRunner(eng, AsyncConfig{})
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for r := 0; r < rounds; r++ {
			res, err := runner.Run(r, readings, nil)
			if err != nil {
				t.Fatal(err)
			}
			prev = check(t, bat, prev, res.EnergyJ, res.PerNodeJ)
		}
	})
	t.Run("async-chaotic", func(t *testing.T) {
		eng, bat := fresh(t)
		runner, err := NewAsyncRunner(eng, AsyncConfig{})
		if err != nil {
			t.Fatal(err)
		}
		inj := chaos.New(9).WithUniformLoss(0.3).WithJitter(2, 10).WithDuplication(0.25)
		prev := 0.0
		for r := 0; r < rounds; r++ {
			res, err := runner.Run(r, readings, inj)
			if err != nil {
				t.Fatal(err)
			}
			prev = check(t, bat, prev, res.EnergyJ, res.PerNodeJ)
		}
	})
}

// attemptFaults drops the first ARQ attempt on the listed edges and
// delivers everything else.
type attemptFaults struct {
	NoFaults
	dropFirst map[routing.Edge]bool
}

func (f attemptFaults) Deliver(_ int, e routing.Edge, attempt int) bool {
	return !(f.dropFirst[e] && attempt == 0)
}

// TestBatteryMidARQDepletion browns a sender out halfway through its
// retry window: the battery affords the first transmission but not the
// retransmission, so the message dies with fewer attempts than the budget
// allows, the remaining charge is forfeited, and the books still balance.
func TestBatteryMidARQDepletion(t *testing.T) {
	inst := lineInstance(t, 2, []graph.NodeID{0})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 5, 1: 0}
	edge := routing.Edge{From: 0, To: 1}

	// Probe the per-attempt TX cost with an unconstrained ledger.
	probeBat, _ := NewBattery(2, 1e6)
	probe, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true, Battery: probeBat})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.RunLossy(0, readings, nil, 3); err != nil {
		t.Fatal(err)
	}
	txJ := probeBat.SpentJ(0)
	if txJ <= 0 {
		t.Fatal("probe round spent nothing at the sender")
	}

	bat, _ := NewBattery(2, 1e6)
	if err := bat.SetCapacity(0, 1.5*txJ); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true, Battery: bat})
	if err != nil {
		t.Fatal(err)
	}
	const maxRetries = 3
	res, err := eng.RunLossy(0, readings, attemptFaults{dropFirst: map[routing.Edge]bool{edge: true}}, maxRetries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 1 {
		t.Fatalf("%d outcomes, want 1", len(res.Outcomes))
	}
	out := res.Outcomes[0]
	if out.Delivered {
		t.Fatal("message delivered despite the sender browning out before the retry")
	}
	if out.Attempts != 1 {
		t.Fatalf("attempts = %d, want exactly 1 (paid first, browned out on the retry, budget %d unused)",
			out.Attempts, maxRetries)
	}
	if !bat.Depleted(0) || bat.DepletedAt(0) != 0 {
		t.Fatalf("sender not marked depleted mid-ARQ: depleted=%v at %d", bat.Depleted(0), bat.DepletedAt(0))
	}
	if got := bat.Residual(0); got != 0 {
		t.Fatalf("forfeited residual = %v, want 0", got)
	}
	// Only the one paid attempt is booked and reported.
	if d := math.Abs(bat.SpentJ(0) - txJ); d > conservationTol {
		t.Fatalf("sender booked %.18g, want one attempt %.18g", bat.SpentJ(0), txJ)
	}
	if d := math.Abs(res.EnergyJ - txJ); d > conservationTol {
		t.Fatalf("round energy %.18g, want one lost attempt %.18g", res.EnergyJ, txJ)
	}
	rep := res.Reports[1]
	if rep == nil || !rep.Starved {
		t.Fatalf("destination not starved by the browned-out sender: %+v", rep)
	}

	// The next round the node is terminally silent: no attempts, no energy
	// anywhere — the crash signature the resilient session condemns on.
	res2, err := eng.RunLossy(1, readings, nil, maxRetries)
	if err != nil {
		t.Fatal(err)
	}
	if res2.EnergyJ != 0 || res2.Dropped != 1 || res2.Outcomes[0].Attempts != 0 {
		t.Fatalf("depleted sender still active: energy=%v dropped=%d attempts=%d",
			res2.EnergyJ, res2.Dropped, res2.Outcomes[0].Attempts)
	}
}

// TestBatteryReceiverBrownOut depletes a receiver on the incoming frame:
// the frame goes unheard (undelivered), only the energy actually paid is
// booked, and from then on the node is deaf and silent.
func TestBatteryReceiverBrownOut(t *testing.T) {
	inst := lineInstance(t, 3, []graph.NodeID{0})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 5, 1: 0, 2: 0}

	probeBat, _ := NewBattery(3, 1e6)
	probe, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true, Battery: probeBat})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.RunLossy(0, readings, nil, 3); err != nil {
		t.Fatal(err)
	}
	// Node 1 relays: it pays RX on 0→1 and TX on 1→2. Give it half its
	// round spend so the incoming frame browns it out (its RX share comes
	// first in the round's message order on a line).
	bat, _ := NewBattery(3, 1e6)
	if err := bat.SetCapacity(1, 0.4*probeBat.SpentJ(1)); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true, Battery: bat})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunLossy(0, readings, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bat.Depleted(1) {
		t.Fatal("undersized relay survived the round")
	}
	var sum float64
	for _, j := range res.PerNodeJ {
		sum += j
	}
	if d := math.Abs(sum - res.EnergyJ); d > conservationTol {
		t.Fatalf("per-node split %.18g != energy %.18g after receiver brown-out", sum, res.EnergyJ)
	}
	if d := math.Abs(bat.TotalSpentJ() - res.EnergyJ); d > conservationTol {
		t.Fatalf("debits %.18g != energy %.18g after receiver brown-out", bat.TotalSpentJ(), res.EnergyJ)
	}
	if rep := res.Reports[2]; rep == nil || rep.Fresh {
		t.Fatalf("destination served despite its relay browning out: %+v", rep)
	}
}

// TestChaosDepleteInjection covers the deterministic depletion injection:
// it behaves like a crash from its round on, and unlike a crash no Revive
// resurrects the node.
func TestChaosDepleteInjection(t *testing.T) {
	in := chaos.New(0).Deplete(5, 2)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.NodeDead(1, 5) {
		t.Error("node dead before its depletion round")
	}
	for r := 2; r < 5; r++ {
		if !in.NodeDead(r, 5) {
			t.Errorf("node alive at round %d after depleting at 2", r)
		}
	}
	// An earlier Deplete wins; a later one is ignored.
	in.Deplete(5, 9)
	if !in.NodeDead(3, 5) {
		t.Error("later Deplete moved the depletion round")
	}
	// Revive resurrects a crash but never an exhausted battery.
	rev := chaos.New(0).Crash(7, 1).Revive(7, 3).Deplete(7, 2)
	if err := rev.Validate(); err != nil {
		t.Fatal(err)
	}
	if !rev.NodeDead(4, 7) {
		t.Error("revive resurrected a depleted node")
	}
	if err := chaos.New(0).Deplete(3, -1).Validate(); err == nil {
		t.Error("negative depletion round accepted")
	}

	// Integration: a depleted relay falls silent exactly like a crashed
	// one, byte-identically.
	inst := lineInstance(t, 3, []graph.NodeID{0})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 5, 1: 0, 2: 0}
	run := func(inj *chaos.Injector) *LossyResult {
		eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunLossy(3, readings, inj, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dep := run(chaos.New(1).Deplete(1, 3))
	crash := run(chaos.New(1).Crash(1, 3))
	if dep.EnergyJ != crash.EnergyJ || dep.Dropped != crash.Dropped || dep.Transmissions != crash.Transmissions {
		t.Fatalf("depletion != crash signature: %+v vs %+v", dep, crash)
	}
}

// TestBatteryBrownOutBeforeFirstFrameNoRetry drains every battery so a
// sender that starts the round alive cannot pay for its first frame: it
// transmits nothing, so it retried nothing. Both executors must book zero
// attempts for such a message and count retries only for attempts after
// the first.
func TestBatteryBrownOutBeforeFirstFrameNoRetry(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	inst := buildInstance(t, rng, 40, 6, 6, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, inst.Net.Len())
	engine := func() *Engine {
		bat, err := NewBattery(inst.Net.Len(), 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true, Battery: bat})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	lossy, err := engine().RunLossy(0, readings, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	async, err := engine().RunAsync(0, readings, nil, AsyncConfig{MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*LossyResult{"lossy": lossy, "async": &async.LossyResult} {
		want := 0
		for _, o := range res.Outcomes {
			if o.Attempts > 1 {
				want += o.Attempts - 1
			}
		}
		if res.Retries != want || res.Retries < 0 {
			t.Fatalf("%s: Retries = %d over %d messages, want %d (attempts after the first)",
				name, res.Retries, res.Messages, want)
		}
	}
	if lossy.Retries != async.Retries || lossy.Transmissions != async.Transmissions {
		t.Fatalf("lossy retries/tx %d/%d, async %d/%d",
			lossy.Retries, lossy.Transmissions, async.Retries, async.Transmissions)
	}
}
