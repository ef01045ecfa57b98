package sim

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"m2m/internal/chaos"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
)

// epochFaults is a test schedule with an epoch view: the channel itself is
// perfect, but the listed nodes still run an older plan epoch, so every
// edge they touch is fenced.
type epochFaults struct {
	NoFaults
	epoch   uint32
	lagging map[graph.NodeID]uint32
}

func (f epochFaults) PlanEpoch() uint32 { return f.epoch }
func (f epochFaults) NodeEpoch(n graph.NodeID) uint32 {
	if e, ok := f.lagging[n]; ok {
		return e
	}
	return f.epoch
}

// A lagging node fences every edge it touches: frames are heard (and
// priced) but never merged, so the destination starves exactly as if the
// links were down — except the receiver also pays for what it discarded.
func TestEpochFenceDropsStaleFrames(t *testing.T) {
	// 0—1—2—3, dest 3 sums {0, 2}; node 1 lags, severing 0→1 and 1→2.
	inst := lineInstance(t, 4, []graph.NodeID{0, 2})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 2, 2: 5}
	const maxRetries = 2
	fenced, err := eng.RunLossy(0, readings, epochFaults{epoch: 4, lagging: map[graph.NodeID]uint32{1: 3}}, maxRetries)
	if err != nil {
		t.Fatal(err)
	}
	if fenced.EpochDropped == 0 {
		t.Fatal("no frame was epoch-dropped across a lagging node")
	}
	for _, o := range fenced.Outcomes {
		touches := o.Edge.From == 1 || o.Edge.To == 1
		if touches && o.Delivered {
			t.Fatalf("fenced edge %v delivered", o.Edge)
		}
		if touches && o.Attempts != maxRetries+1 {
			t.Fatalf("fenced edge %v burned %d attempts, want the full budget %d", o.Edge, o.Attempts, maxRetries+1)
		}
		if !touches && !o.Delivered {
			t.Fatalf("open edge %v failed on a perfect channel", o.Edge)
		}
	}
	rep := fenced.Reports[3]
	if rep == nil || rep.Fresh {
		t.Fatalf("destination fresh despite a fenced relay: %+v", rep)
	}
	for d, rep := range fenced.Reports {
		if err := rep.Validate(); err != nil {
			t.Fatalf("dest %d: %v", d, err)
		}
	}

	// The same topology with those links simply down burns the same
	// attempts but hears nothing: the fenced run costs strictly more,
	// because its receivers paid RX for every frame they discarded.
	down, err := eng.RunLossy(0, readings, edgeFaults{down: map[routing.Edge]bool{
		{From: 0, To: 1}: true, {From: 1, To: 2}: true,
	}}, maxRetries)
	if err != nil {
		t.Fatal(err)
	}
	if fenced.EnergyJ <= down.EnergyJ {
		t.Fatalf("fenced energy %v not above link-down energy %v", fenced.EnergyJ, down.EnergyJ)
	}
	if fenced.Dropped != down.Dropped {
		t.Fatalf("fenced dropped %d messages, link-down %d", fenced.Dropped, down.Dropped)
	}
}

// A schedule whose every node runs the current epoch fences nothing: the
// round is byte-identical to the nil-faults run.
func TestEpochFenceCurrentEpochNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst := buildInstance(t, rng, 30, 4, 4, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, inst.Net.Len())
	plain, err := eng.RunLossy(0, readings, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	current, err := eng.RunLossy(0, readings, epochFaults{epoch: 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if current.EpochDropped != 0 {
		t.Fatalf("EpochDropped = %d with every node current", current.EpochDropped)
	}
	if current.EnergyJ != plain.EnergyJ || current.Dropped != 0 {
		t.Fatalf("all-current fence changed the round: energy %v vs %v, dropped %d",
			current.EnergyJ, plain.EnergyJ, current.Dropped)
	}
	for d, v := range plain.Values {
		if current.Values[d] != v {
			t.Fatalf("value at %d changed under a no-op fence", d)
		}
	}
}

// The asynchronous executor honors the same fence: heard copies are
// discarded and counted, no ack forms, and the message resolves lost
// instead of hanging the round.
func TestEpochFenceAsync(t *testing.T) {
	inst := lineInstance(t, 4, []graph.NodeID{0, 2})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 2, 2: 5}
	fence := epochFaults{epoch: 4, lagging: map[graph.NodeID]uint32{1: 3}}
	async, err := eng.RunAsync(0, readings, fence, AsyncConfig{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if async.EpochDropped == 0 {
		t.Fatal("async executor merged (or never heard) fenced frames")
	}
	sync, err := eng.RunLossy(0, readings, fence, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range async.Outcomes {
		if (o.Edge.From == 1 || o.Edge.To == 1) && o.Delivered {
			t.Fatalf("async delivered across fenced edge %v", o.Edge)
		}
	}
	for d, rep := range sync.Reports {
		arep := async.Reports[d]
		if arep == nil || arep.Fresh != rep.Fresh || arep.Starved != rep.Starved {
			t.Fatalf("dest %d: async report %+v, sync %+v", d, arep, rep)
		}
	}
	validateAll(t, async)
}

// sameRoundOutcome fails unless two executions of one round agree on
// everything both executors observe: per-message fates and payload bytes,
// the transmission counters, per-node energy bit for bit, the values, and
// each destination's covered/missing split. Total EnergyJ is left out: the
// two executors sum the same per-message terms in a different order.
func sameRoundOutcome(t *testing.T, r int, a, other *LossyResult) {
	t.Helper()
	if len(other.Outcomes) != len(a.Outcomes) {
		t.Fatalf("round %d: %d outcomes vs %d", r, len(other.Outcomes), len(a.Outcomes))
	}
	for i, o := range a.Outcomes {
		if oo := other.Outcomes[i]; oo != o {
			t.Fatalf("round %d message %d: %+v vs %+v", r, i, oo, o)
		}
	}
	if other.Transmissions != a.Transmissions || other.Retries != a.Retries || other.Dropped != a.Dropped ||
		other.EpochDropped != a.EpochDropped || other.Collisions != a.Collisions {
		t.Fatalf("round %d: counters tx/retry/drop/epoch/coll %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d", r,
			other.Transmissions, other.Retries, other.Dropped, other.EpochDropped, other.Collisions,
			a.Transmissions, a.Retries, a.Dropped, a.EpochDropped, a.Collisions)
	}
	if len(other.PerNodeJ) != len(a.PerNodeJ) {
		t.Fatalf("round %d: PerNodeJ has %d nodes vs %d", r, len(other.PerNodeJ), len(a.PerNodeJ))
	}
	for n, j := range a.PerNodeJ {
		if oj, ok := other.PerNodeJ[n]; !ok || oj != j {
			t.Fatalf("round %d node %d: PerNodeJ %v (present %v) vs %v", r, n, oj, ok, j)
		}
	}
	if len(other.Reports) != len(a.Reports) {
		t.Fatalf("round %d: %d reports vs %d", r, len(other.Reports), len(a.Reports))
	}
	for d, rep := range a.Reports {
		orep := other.Reports[d]
		if orep == nil || orep.Fresh != rep.Fresh || orep.Starved != rep.Starved ||
			!slices.Equal(orep.Covered, rep.Covered) || !slices.Equal(orep.Missing, rep.Missing) {
			t.Fatalf("round %d dest %d: report %+v vs %+v", r, d, orep, rep)
		}
	}
	if len(other.Values) != len(a.Values) {
		t.Fatalf("round %d: %d values vs %d", r, len(other.Values), len(a.Values))
	}
	for d, v := range a.Values {
		if other.Values[d] != v {
			t.Fatalf("round %d dest %d: value %v vs %v", r, d, other.Values[d], v)
		}
	}
}

// The chaos determinism contract across executors: one injector seed fixes
// every message's fate, so the synchronous and asynchronous executors
// agree outcome for outcome, and re-runs are identical.
func TestChaosCrossExecutorDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	inst := buildInstance(t, rng, 40, 6, 6, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := randomReadings(rng, inst.Net.Len())
	mkInj := func() *chaos.Injector {
		return chaos.New(77).WithUniformLoss(0.25).Crash(11, 2)
	}
	const maxRetries = 3
	for r := 0; r < 4; r++ {
		a, err := eng.RunLossy(r, readings, mkInj(), maxRetries)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng.RunLossy(r, readings, mkInj(), maxRetries)
		if err != nil {
			t.Fatal(err)
		}
		async, err := eng.RunAsync(r, readings, mkInj(), AsyncConfig{MaxRetries: maxRetries})
		if err != nil {
			t.Fatal(err)
		}
		sameRoundOutcome(t, r, a, b)
		sameRoundOutcome(t, r, a, &async.LossyResult)
		if a.EnergyJ != b.EnergyJ {
			t.Fatalf("round %d: same seed, different sync energy", r)
		}
	}

	// Same contract with the collision channel switched on: both executors
	// replay the same contention oracle, so per-message fates, collision
	// counts, and values agree exactly under loss, crash, and contention
	// at once.
	mkColl := func() *chaos.Injector {
		return chaos.New(77).WithUniformLoss(0.15).WithCollisions(0.3).Crash(11, 2)
	}
	for r := 0; r < 4; r++ {
		a, err := eng.RunLossy(r, readings, mkColl(), maxRetries)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eng.RunLossy(r, readings, mkColl(), maxRetries)
		if err != nil {
			t.Fatal(err)
		}
		async, err := eng.RunAsync(r, readings, mkColl(), AsyncConfig{MaxRetries: maxRetries})
		if err != nil {
			t.Fatal(err)
		}
		sameRoundOutcome(t, r, a, b)
		sameRoundOutcome(t, r, a, &async.LossyResult)
		if a.EnergyJ != b.EnergyJ {
			t.Fatalf("round %d: same seed, different sync energy", r)
		}
	}

	// The concurrent batch runner shares the compiled program: fault-free
	// values must be bit-identical to the lossy executor's under a nil
	// schedule, whatever the worker interleaving.
	batch := make([]map[graph.NodeID]float64, 8)
	for i := range batch {
		batch[i] = randomReadings(rng, inst.Net.Len())
	}
	conc, err := eng.RunConcurrent(context.Background(), batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, readings := range batch {
		ref, err := eng.RunLossy(0, readings, nil, maxRetries)
		if err != nil {
			t.Fatal(err)
		}
		for d, v := range ref.Values {
			if conc[i].Values[d] != v {
				t.Fatalf("batch %d dest %d: concurrent value %v, want %v", i, d, conc[i].Values[d], v)
			}
		}
	}
}
