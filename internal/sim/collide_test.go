package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/chaos"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/topology"
	"m2m/internal/workload"
)

// starInstance builds a hub at 0 with direct spokes 1..n: the worst-case
// fan-in workload where every planned message shares the receiver, so
// every concurrent transmission collides.
func starInstance(t *testing.T, spokes int) *plan.Instance {
	t.Helper()
	g := graph.NewUndirected(spokes + 1)
	w := make(map[graph.NodeID]float64, spokes)
	for i := 1; i <= spokes; i++ {
		if err := g.AddEdge(0, graph.NodeID(i), 1); err != nil {
			t.Fatal(err)
		}
		w[graph.NodeID(i)] = 1
	}
	specs := []agg.Spec{{Dest: 0, Func: agg.NewWeightedSum(w)}}
	inst, err := plan.NewInstance(g, routing.NewReversePath(g), specs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func collideEngine(t *testing.T, inst *plan.Instance) *Engine {
	t.Helper()
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestTDMAFaultFreeByteIdenticalLossy(t *testing.T) {
	// The acceptance bar: with collisions enabled but no link loss, a
	// validated TDMA frame is conflict-free, so the round must reproduce
	// Engine.Run bit for bit — values, total energy, and per-node energy —
	// with zero collisions and zero retries.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3; trial++ {
		inst := buildInstance(t, rng, 40, 6, 6, trial == 1)
		eng := collideEngine(t, inst)
		if err := eng.EnableTDMA(); err != nil {
			t.Fatal(err)
		}
		readings := randomReadings(rng, inst.Net.Len())
		plain, err := eng.Run(readings)
		if err != nil {
			t.Fatal(err)
		}
		inj := chaos.New(int64(trial)).WithCollisions(0.3)
		lossy, err := eng.RunLossy(trial, readings, inj, 2)
		if err != nil {
			t.Fatal(err)
		}
		if lossy.Collisions != 0 {
			t.Fatalf("trial %d: %d collisions under a validated frame", trial, lossy.Collisions)
		}
		if lossy.Retries != 0 || lossy.Dropped != 0 {
			t.Fatalf("trial %d: retries=%d dropped=%d on a fault-free TDMA round", trial, lossy.Retries, lossy.Dropped)
		}
		if lossy.EnergyJ != plain.EnergyJ {
			t.Fatalf("trial %d: energy %v != %v", trial, lossy.EnergyJ, plain.EnergyJ)
		}
		if len(lossy.Values) != len(plain.Values) {
			t.Fatalf("trial %d: %d values, want %d", trial, len(lossy.Values), len(plain.Values))
		}
		for d, v := range plain.Values {
			if lossy.Values[d] != v {
				t.Fatalf("trial %d: value at %d = %v, want %v (bit-exact)", trial, d, lossy.Values[d], v)
			}
		}
		for n, j := range plain.PerNodeJ {
			if lossy.PerNodeJ[n] != j {
				t.Fatalf("trial %d: per-node energy at %d differs", trial, n)
			}
		}
	}
}

func TestTDMAFaultFreeByteIdenticalAsync(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 3; trial++ {
		inst := buildInstance(t, rng, 35, 5, 5, trial == 2)
		eng := collideEngine(t, inst)
		if err := eng.EnableTDMA(); err != nil {
			t.Fatal(err)
		}
		readings := randomReadings(rng, inst.Net.Len())
		plain, err := eng.Run(readings)
		if err != nil {
			t.Fatal(err)
		}
		inj := chaos.New(int64(trial)).WithCollisions(0.3)
		async, err := eng.RunAsync(trial, readings, inj, AsyncConfig{})
		if err != nil {
			t.Fatal(err)
		}
		validateAll(t, async)
		if async.Collisions != 0 {
			t.Fatalf("trial %d: %d collisions under a validated frame", trial, async.Collisions)
		}
		if async.EnergyJ != plain.EnergyJ {
			t.Fatalf("trial %d: energy %v != %v", trial, async.EnergyJ, plain.EnergyJ)
		}
		for d, v := range plain.Values {
			if async.Values[d] != v {
				t.Fatalf("trial %d: value at %d = %v, want %v (bit-exact)", trial, d, async.Values[d], v)
			}
		}
		for n, j := range plain.PerNodeJ {
			if async.PerNodeJ[n] != j {
				t.Fatalf("trial %d: per-node energy at %d differs", trial, n)
			}
		}
	}
}

func TestContentionDisciplines(t *testing.T) {
	// Six spokes all firing at one hub. Unscheduled retries are lockstep
	// and re-collide until the budget dies: total loss. Backoff
	// de-synchronizes and recovers some messages. TDMA serializes the
	// frame and delivers everything collision-free.
	inst := starInstance(t, 6)
	readings := randomReadings(rand.New(rand.NewSource(7)), inst.Net.Len())
	inj := chaos.New(11).WithCollisions(0)

	eng := collideEngine(t, inst)
	plain, err := eng.Run(readings)
	if err != nil {
		t.Fatal(err)
	}

	unsched, err := eng.RunLossy(0, readings, inj, 3)
	if err != nil {
		t.Fatal(err)
	}
	if unsched.Dropped != unsched.Messages {
		t.Fatalf("unscheduled: %d/%d dropped, lockstep retries should all re-collide",
			unsched.Dropped, unsched.Messages)
	}
	if unsched.Collisions != unsched.Transmissions {
		t.Fatalf("unscheduled: %d collisions over %d transmissions, expected every attempt wrecked",
			unsched.Collisions, unsched.Transmissions)
	}
	if rep := unsched.Reports[0]; rep == nil || !rep.Starved {
		t.Fatalf("unscheduled: destination not starved: %+v", rep)
	}
	if unsched.EnergyJ <= plain.EnergyJ {
		t.Fatalf("unscheduled contention spent %v J, should exceed the clean round's %v J",
			unsched.EnergyJ, plain.EnergyJ)
	}

	if err := eng.SetTxMode(TxBackoff); err != nil {
		t.Fatal(err)
	}
	backoff, err := eng.RunLossy(0, readings, inj, 6)
	if err != nil {
		t.Fatal(err)
	}
	if backoff.Dropped >= unsched.Dropped {
		t.Fatalf("backoff dropped %d, no better than unscheduled's %d", backoff.Dropped, unsched.Dropped)
	}
	if delivered := backoff.Messages - backoff.Dropped; delivered == 0 {
		t.Fatal("backoff recovered nothing")
	}

	if err := eng.EnableTDMA(); err != nil {
		t.Fatal(err)
	}
	tdma, err := eng.RunLossy(0, readings, inj, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tdma.Collisions != 0 || tdma.Dropped != 0 || tdma.Retries != 0 {
		t.Fatalf("tdma: collisions=%d dropped=%d retries=%d, want a clean frame",
			tdma.Collisions, tdma.Dropped, tdma.Retries)
	}
	if tdma.EnergyJ != plain.EnergyJ {
		t.Fatalf("tdma energy %v != clean round %v", tdma.EnergyJ, plain.EnergyJ)
	}
	for d, v := range plain.Values {
		if tdma.Values[d] != v {
			t.Fatalf("tdma value at %d = %v, want %v", d, tdma.Values[d], v)
		}
	}
}

func TestCaptureRescuesFrames(t *testing.T) {
	// With a strong capture effect most colliding frames survive anyway,
	// so the same lockstep workload that totally starves without capture
	// now mostly delivers.
	inst := starInstance(t, 6)
	readings := randomReadings(rand.New(rand.NewSource(7)), inst.Net.Len())
	eng := collideEngine(t, inst)

	none, err := eng.RunLossy(0, readings, chaos.New(11).WithCollisions(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	capture, err := eng.RunLossy(0, readings, chaos.New(11).WithCollisions(0.95), 3)
	if err != nil {
		t.Fatal(err)
	}
	if capture.Dropped >= none.Dropped {
		t.Fatalf("capture dropped %d, no better than no-capture %d", capture.Dropped, none.Dropped)
	}
	if delivered := capture.Messages - capture.Dropped; delivered < capture.Messages/2 {
		t.Fatalf("capture at 0.95 delivered only %d of %d", delivered, capture.Messages)
	}
}

// TestDeadChainDoesNotReleaseLiveDependent: a message fed both by a
// chain of dead senders (0→1→2, with 0 and 1 crashed) and by a live
// sender (4→2) must wait for the live one. Resolving a dead-sender
// message twice released 2→3 in slot 0, next to 4→2, where the two
// collided round after round and starved the destination.
func TestDeadChainDoesNotReleaseLiveDependent(t *testing.T) {
	g := graph.NewUndirected(5)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {4, 2}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	w := map[graph.NodeID]float64{0: 1, 1: 1, 4: 1}
	inst, err := plan.NewInstance(g, routing.NewReversePath(g), []agg.Spec{{Dest: 3, Func: agg.NewWeightedSum(w)}})
	if err != nil {
		t.Fatal(err)
	}
	eng := collideEngine(t, inst)
	inj := chaos.New(1).WithCollisions(0).Crash(0, 0).Crash(1, 0)
	res, err := eng.RunLossy(0, map[graph.NodeID]float64{0: 1, 1: 2, 2: 3, 3: 4, 4: 5}, inj, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collisions != 0 || res.Values[3] != 5 {
		t.Errorf("collisions %d, value %v at 3; want 0 and 5 (source 4 alone)", res.Collisions, res.Values[3])
	}
}

func TestLoadFrameValidation(t *testing.T) {
	inst := starInstance(t, 5)
	eng := collideEngine(t, inst)
	s, msgs, err := eng.BuildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != len(s.SlotOf) {
		t.Fatalf("%d slots for %d messages", len(s.SlotOf), len(msgs))
	}
	if err := eng.LoadFrame(s.SlotOf); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	if eng.txMode != TxTDMA {
		t.Fatalf("mode %v after LoadFrame", eng.txMode)
	}

	// All-zero assignment packs every conflicting spoke into one slot.
	bad := make([]int, len(s.SlotOf))
	if err := eng.LoadFrame(bad); err == nil {
		t.Fatal("conflicting frame accepted")
	}
	// Truncated frame leaves messages unassigned.
	if err := eng.LoadFrame(s.SlotOf[:len(s.SlotOf)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Negative slots are malformed on their face.
	neg := append([]int(nil), s.SlotOf...)
	neg[0] = -1
	if err := eng.LoadFrame(neg); err == nil {
		t.Fatal("negative slot accepted")
	}
	// Failed loads must not clobber the installed frame.
	if eng.txMode != TxTDMA || eng.Frame() == nil {
		t.Fatal("failed LoadFrame corrupted the installed frame")
	}
}

func TestSetTxModeRules(t *testing.T) {
	eng := collideEngine(t, starInstance(t, 4))
	if eng.txMode != TxUnscheduled {
		t.Fatalf("default mode %v", eng.txMode)
	}
	if eng.Frame() != nil {
		t.Fatal("frame installed before EnableTDMA")
	}
	if err := eng.SetTxMode(TxTDMA); err == nil {
		t.Fatal("TxTDMA accepted without a frame")
	}
	if err := eng.SetTxMode(TxMode(9)); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := eng.SetTxMode(TxBackoff); err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableTDMA(); err != nil {
		t.Fatal(err)
	}
	if eng.txMode != TxTDMA || len(eng.Frame()) == 0 {
		t.Fatal("EnableTDMA did not install a frame")
	}
	if err := eng.SetTxMode(TxTDMA); err != nil {
		t.Fatalf("TxTDMA with a frame: %v", err)
	}
	for _, m := range []TxMode{TxUnscheduled, TxBackoff, TxTDMA, TxMode(9)} {
		if m.String() == "" {
			t.Fatal("empty TxMode string")
		}
	}
}

func TestBroadcastModeCollisionsUnsupported(t *testing.T) {
	inst := starInstance(t, 4)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true, Broadcast: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.EnableTDMA(); err == nil {
		t.Fatal("EnableTDMA accepted in broadcast mode")
	}
	readings := randomReadings(rand.New(rand.NewSource(1)), inst.Net.Len())
	if _, err := eng.RunLossy(0, readings, chaos.New(1).WithCollisions(0), 2); err == nil {
		t.Fatal("collision faults accepted in broadcast mode")
	}
}

func TestCollisionAsyncMatchesLossy(t *testing.T) {
	// Same seed, same retry budget: both executors replay the same oracle,
	// so collision counts and per-message fates agree exactly.
	inst := starInstance(t, 6)
	readings := randomReadings(rand.New(rand.NewSource(7)), inst.Net.Len())
	for _, capture := range []float64{0, 0.5} {
		eng := collideEngine(t, inst)
		inj := chaos.New(19).WithCollisions(capture)
		lossy, err := eng.RunLossy(3, readings, inj, 3)
		if err != nil {
			t.Fatal(err)
		}
		async, err := eng.RunAsync(3, readings, inj, AsyncConfig{MaxRetries: 3})
		if err != nil {
			t.Fatal(err)
		}
		validateAll(t, async)
		if async.Collisions != lossy.Collisions {
			t.Fatalf("capture %v: async %d collisions, lossy %d", capture, async.Collisions, lossy.Collisions)
		}
		if async.Dropped != lossy.Dropped {
			t.Fatalf("capture %v: async dropped %d, lossy %d", capture, async.Dropped, lossy.Dropped)
		}
		for d, v := range lossy.Values {
			if async.Values[d] != v {
				t.Fatalf("capture %v: value at %d = %v, want %v", capture, d, async.Values[d], v)
			}
		}
	}
}

// The collision replay is pinned: RunLossy and a reused AsyncRunner over
// random engines under every discipline, with loss, capture and crashed
// nodes (whose silent messages resolve before slot 0 and cascade to their
// dependents), hash to one digest of every outcome, counter, energy and
// value, so any change to how the oracle resolves a round shows here.
func TestCollisionReplayGolden(t *testing.T) {
	const want = "5a3bca8a900ff0f002dd2c46239a5865be1d83b9856fe74da5ee9d03b623391c"
	f := fingerprint{sha256.New()}
	float := func(x float64) { f.int(int64(math.Float64bits(x))) }
	hashRound := func(res *LossyResult) {
		for _, o := range res.Outcomes {
			f.ints([]int{int(o.Edge.From), int(o.Edge.To), o.Attempts, o.BodyBytes})
			f.bool(o.Delivered)
		}
		f.ints([]int{res.Transmissions, res.Retries, res.Dropped, res.EpochDropped, res.Collisions})
		float(res.EnergyJ)
		for _, m := range []map[graph.NodeID]float64{res.Values, res.PerNodeJ} {
			keys := make([]int, 0, len(m))
			for k := range m {
				keys = append(keys, int(k))
			}
			sort.Ints(keys)
			for _, k := range keys {
				f.int(int64(k))
				float(m[graph.NodeID(k)])
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		l := topology.UniformRandom(40, topology.GDIArea(), int64(trial))
		l.EnsureConnected(50)
		g := l.ConnectivityGraph(50)
		p := fingerprintPlan(t, g, routing.NewReversePath(g), workload.Config{
			DestFraction: 0.2, SourcesPerDest: 8, Dispersion: 0.9, MaxHops: 4, Seed: int64(trial),
		})
		readings := randomReadings(rng, g.Len())
		inj := chaos.New(int64(trial)).WithUniformLoss(0.15).WithCollisions(0.3)
		for k := 0; k < 3; k++ {
			inj.Crash(graph.NodeID(rng.Intn(g.Len())), rng.Intn(3))
		}
		for _, mode := range []TxMode{TxUnscheduled, TxBackoff, TxTDMA} {
			eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
			if err != nil {
				t.Fatal(err)
			}
			if mode == TxTDMA {
				err = eng.EnableTDMA()
			} else {
				err = eng.SetTxMode(mode)
			}
			if err != nil {
				t.Fatal(err)
			}
			runner, err := NewAsyncRunner(eng, AsyncConfig{MaxRetries: 2})
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 4; round++ {
				lossy, err := eng.RunLossy(round, readings, inj, 2)
				if err != nil {
					t.Fatal(err)
				}
				hashRound(lossy)
				async, err := runner.Run(round, readings, inj)
				if err != nil {
					t.Fatal(err)
				}
				hashRound(&async.LossyResult)
				float(async.MakespanMS)
			}
		}
	}
	if got := hex.EncodeToString(f.h.Sum(nil)); got != want {
		t.Fatalf("collision replay digest %s, want %s", got, want)
	}
}
