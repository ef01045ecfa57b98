package sim

import (
	"math"
	"math/rand"
	"testing"

	"m2m/internal/agg"
	"m2m/internal/chaos"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
)

// edgeFaults is a hand-written fault schedule for tests: listed edges
// never deliver, listed nodes are dead from round 0.
type edgeFaults struct {
	NoFaults
	down map[routing.Edge]bool
	dead map[graph.NodeID]bool
}

func (f edgeFaults) NodeDead(_ int, n graph.NodeID) bool { return f.dead[n] }
func (f edgeFaults) Deliver(_ int, e routing.Edge, _ int) bool {
	return !f.down[e]
}

func TestLossyZeroFaultsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		inst := buildInstance(t, rng, 40, 6, 6, trial == 1)
		p, err := plan.Optimize(inst)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
		if err != nil {
			t.Fatal(err)
		}
		readings := randomReadings(rng, inst.Net.Len())
		plain, err := eng.Run(readings)
		if err != nil {
			t.Fatal(err)
		}
		lossy, err := eng.RunLossy(trial, readings, nil, 2)
		if err != nil {
			t.Fatal(err)
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
		if lossy.Messages != plain.Messages || lossy.Transmissions != plain.Messages {
			t.Fatalf("trial %d: %d msgs / %d tx, want %d planned, zero retries",
				trial, lossy.Messages, lossy.Transmissions, plain.Messages)
		}
		if lossy.Dropped != 0 || lossy.Retries != 0 {
			t.Fatalf("trial %d: dropped=%d retries=%d on a fault-free run", trial, lossy.Dropped, lossy.Retries)
		}
		for d, rep := range lossy.Reports {
			if !rep.Fresh || rep.Starved || len(rep.Missing) != 0 {
				t.Fatalf("trial %d: dest %d not fresh: %+v", trial, d, rep)
			}
		}
	}
}

// lineInstance builds 0—1—2—…: one spec, dest at the end of the line.
func lineInstance(t *testing.T, n int, srcs []graph.NodeID) *plan.Instance {
	t.Helper()
	g := graph.NewUndirected(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	w := make(map[graph.NodeID]float64, len(srcs))
	for _, s := range srcs {
		w[s] = 1
	}
	specs := []agg.Spec{{Dest: graph.NodeID(n - 1), Func: agg.NewWeightedSum(w)}}
	inst, err := plan.NewInstance(g, routing.NewReversePath(g), specs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestLossyDroppedEdgeStarvesAndKeepsAlive(t *testing.T) {
	// 0—1—2—3, dest 3 sums sources {0, 2}. Killing every delivery on
	// 0→1 starves source 0; the relay at 1 still keep-alives, and node 2's
	// own reading keeps the destination partially served (stale).
	inst := lineInstance(t, 4, []graph.NodeID{0, 2})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 5, 1: 0, 2: 7, 3: 0}
	const retries = 2
	res, err := eng.RunLossy(0, readings, edgeFaults{down: map[routing.Edge]bool{{From: 0, To: 1}: true}}, retries)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Reports[3]
	if rep == nil || rep.Fresh || rep.Starved {
		t.Fatalf("report = %+v, want stale partial", rep)
	}
	if len(rep.Covered) != 1 || rep.Covered[0] != 2 || len(rep.Missing) != 1 || rep.Missing[0] != 0 {
		t.Fatalf("coverage = %v missing %v, want covered [2] missing [0]", rep.Covered, rep.Missing)
	}
	if got := res.Values[3]; got != 7 {
		t.Fatalf("partial value = %v, want 7 (source 2 only)", got)
	}
	sawDrop, sawKeepAlive := false, false
	for _, o := range res.Outcomes {
		if o.Edge == (routing.Edge{From: 0, To: 1}) {
			if o.Delivered || o.Attempts != retries+1 {
				t.Fatalf("broken edge outcome %+v, want %d failed attempts", o, retries+1)
			}
			sawDrop = true
		}
		if o.Edge == (routing.Edge{From: 1, To: 2}) {
			// Relay 1 lost its only payload but must transmit empty.
			if !o.Delivered || o.Attempts == 0 || o.BodyBytes != 0 {
				t.Fatalf("keep-alive outcome %+v, want delivered empty message", o)
			}
			sawKeepAlive = true
		}
	}
	if !sawDrop || !sawKeepAlive {
		t.Fatalf("outcomes missing drop (%v) or keep-alive (%v): %+v", sawDrop, sawKeepAlive, res.Outcomes)
	}
	if res.Retries != retries {
		t.Fatalf("retries = %d, want %d (only the broken edge retries)", res.Retries, retries)
	}
}

func TestLossyRetryEnergyAccounting(t *testing.T) {
	inst := lineInstance(t, 3, []graph.NodeID{0})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	model := radio.DefaultModel()
	eng, err := NewEngine(p, model, Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 1}
	res, err := eng.RunLossy(0, readings, edgeFaults{down: map[routing.Edge]bool{{From: 0, To: 1}: true}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the expected energy from the outcomes.
	want := 0.0
	for _, o := range res.Outcomes {
		if o.Delivered && o.Attempts == 1 {
			want += model.UnicastJoules(o.BodyBytes)
		} else {
			want += float64(o.Attempts) * model.TxJoules(o.BodyBytes)
			if o.Delivered {
				want += model.RxJoules(o.BodyBytes)
			}
		}
	}
	if math.Abs(res.EnergyJ-want) > 1e-15 {
		t.Fatalf("energy %v, want %v from outcomes", res.EnergyJ, want)
	}
	sum := 0.0
	for _, j := range res.PerNodeJ {
		sum += j
	}
	if math.Abs(sum-res.EnergyJ) > 1e-12 {
		t.Fatalf("per-node sum %v != total %v", sum, res.EnergyJ)
	}
	// Four failed attempts on 0→1, then 1→2 keep-alives: dest starves.
	if !res.Reports[2].Starved {
		t.Fatalf("report = %+v, want starved", res.Reports[2])
	}
	if len(res.Values) != 0 {
		t.Fatalf("starved destination produced value %v", res.Values)
	}
}

func TestLossyCrashedNode(t *testing.T) {
	// 0—1—2—3, dest 3 sums {0, 1, 2}; node 1 is dead. Its reading is gone
	// and it transmits nothing (silent), so 3 sees only what node 2
	// contributes.
	inst := lineInstance(t, 4, []graph.NodeID{0, 1, 2})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	readings := map[graph.NodeID]float64{0: 3, 1: 11, 2: 7, 3: 0}
	res, err := eng.RunLossy(0, readings, edgeFaults{dead: map[graph.NodeID]bool{1: true}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.Edge.From == 1 {
			if o.Attempts != 0 || o.Delivered {
				t.Fatalf("dead sender transmitted: %+v", o)
			}
		}
		if o.Edge.To == 1 && o.Delivered {
			t.Fatalf("dead receiver acked: %+v", o)
		}
	}
	rep := res.Reports[3]
	if rep.Fresh || rep.Starved {
		t.Fatalf("report = %+v, want stale partial", rep)
	}
	if got := res.Values[3]; got != 7 {
		t.Fatalf("value = %v, want 7 (only node 2 survives the cut)", got)
	}
	// A dead node spends nothing.
	if res.PerNodeJ[1] != 0 {
		t.Fatalf("dead node spent %v J", res.PerNodeJ[1])
	}
}

func TestLossyDeadDestination(t *testing.T) {
	inst := lineInstance(t, 3, []graph.NodeID{0})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunLossy(0, map[graph.NodeID]float64{0: 1}, edgeFaults{dead: map[graph.NodeID]bool{2: true}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Reports[2]
	if !rep.DestDead || !rep.Starved {
		t.Fatalf("report = %+v, want dead+starved", rep)
	}
	if _, ok := res.Values[2]; ok {
		t.Fatal("dead destination produced a value")
	}
	// The last-hop sender burned its full retry budget with no ACK.
	for _, o := range res.Outcomes {
		if o.Edge.To == 2 && (o.Delivered || o.Attempts != 2) {
			t.Fatalf("outcome toward dead dest: %+v", o)
		}
	}
}

func TestLossyRejectsNegativeRetries(t *testing.T) {
	inst := lineInstance(t, 3, []graph.NodeID{0})
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunLossy(0, nil, nil, -1); err == nil {
		t.Error("negative retry budget accepted")
	}
}

// benchExecutorEngine is the shared fixture of the executor benchmarks
// and allocation pins: a merged engine over a 150-node random instance.
func benchExecutorEngine(tb testing.TB) (*Engine, map[graph.NodeID]float64) {
	rng := rand.New(rand.NewSource(1))
	inst := buildInstance(tb, rng, 150, 12, 12, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		tb.Fatal(err)
	}
	return eng, randomReadings(rng, inst.Net.Len())
}

// steadyAllocBound caps a faulted round's allocations on a recycled
// state: the result and its Values, Reports and PerNodeJ maps, the
// outcome slice, and the report and source-id blocks. None of it grows
// with the round's messages, retries or events.
const steadyAllocBound = 30

// pinSteadyAllocs measures one executor's allocations per round at loss
// 0.1 and 0.3, with and without the collision channel, and requires each
// count within steadyAllocBound and all four equal. run executes round i
// of the schedule; each schedule is warmed up first, so the pooled
// scratch has reached its size.
func pinSteadyAllocs(t *testing.T, run func(i int, inj *chaos.Injector)) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops pooled states at random under the race detector")
	}
	var counts []float64
	for _, coll := range []bool{false, true} {
		for _, loss := range []float64{0.1, 0.3} {
			inj := chaos.New(77).WithUniformLoss(loss)
			if coll {
				inj.WithCollisions(0.3)
			}
			i := 0
			for ; i < 3; i++ {
				run(i, inj)
			}
			n := testing.AllocsPerRun(40, func() { run(i, inj); i++ })
			t.Logf("loss %.1f collisions %v: %.0f allocs/round", loss, coll, n)
			if n > steadyAllocBound {
				t.Errorf("loss %.1f collisions %v: %.0f allocs per round, want <= %d", loss, coll, n, steadyAllocBound)
			}
			counts = append(counts, n)
		}
	}
	for _, n := range counts[1:] {
		if n != counts[0] {
			t.Errorf("allocs per round vary with loss and contention: %v", counts)
			break
		}
	}
}

// A faulted RunLossy round on a reused engine allocates a constant,
// whatever its message, retry and collision counts.
func TestRunLossySteadyAllocs(t *testing.T) {
	eng, readings := benchExecutorEngine(t)
	pinSteadyAllocs(t, func(i int, inj *chaos.Injector) {
		if _, err := eng.RunLossy(i, readings, inj, 3); err != nil {
			t.Fatal(err)
		}
	})
}

func BenchmarkRunLossy(b *testing.B) {
	eng, readings := benchExecutorEngine(b)
	inj := chaos.New(77).WithUniformLoss(0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunLossy(i, readings, inj, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunLossyCollide is BenchmarkRunLossy over the collision
// channel, once per contention-aware transmission discipline.
func BenchmarkRunLossyCollide(b *testing.B) {
	for _, mode := range []TxMode{TxBackoff, TxTDMA} {
		b.Run(mode.String(), func(b *testing.B) {
			eng, readings := benchExecutorEngine(b)
			var err error
			if mode == TxTDMA {
				err = eng.EnableTDMA()
			} else {
				err = eng.SetTxMode(mode)
			}
			if err != nil {
				b.Fatal(err)
			}
			inj := chaos.New(77).WithUniformLoss(0.1).WithCollisions(0.3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunLossy(i, readings, inj, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRunAsync(b *testing.B) {
	eng, readings := benchExecutorEngine(b)
	inj := chaos.New(77).WithUniformLoss(0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunAsync(i, readings, inj, AsyncConfig{MaxRetries: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsyncRunner is BenchmarkRunAsync on one reused runner, the
// way sessions step: no per-call runner construction.
func BenchmarkAsyncRunner(b *testing.B) {
	eng, readings := benchExecutorEngine(b)
	runner, err := NewAsyncRunner(eng, AsyncConfig{MaxRetries: 3})
	if err != nil {
		b.Fatal(err)
	}
	inj := chaos.New(77).WithUniformLoss(0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(i, readings, inj); err != nil {
			b.Fatal(err)
		}
	}
}
