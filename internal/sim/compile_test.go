package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
)

// TestCompiledMatchesMapBased is the differential gate of the compiled
// executor: over random networks, workloads, aggregate kinds, and routers,
// the compiled program must reproduce the retained map-based reference
// executor bit for bit — every destination value and every cost field.
func TestCompiledMatchesMapBased(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(40)
		inst := buildInstance(t, rng, n, 2+rng.Intn(4), 3+rng.Intn(5), trial%2 == 1)
		for _, mk := range []struct {
			name string
			plan func() (*plan.Plan, error)
		}{
			{"optimal", func() (*plan.Plan, error) { return plan.Optimize(inst) }},
			{"multicast", func() (*plan.Plan, error) { return plan.Multicast(inst), nil }},
			{"aggregate", func() (*plan.Plan, error) { return plan.AggregateASAP(inst), nil }},
		} {
			p, err := mk.plan()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, mk.name, err)
			}
			eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: trial%2 == 0})
			if err != nil {
				t.Fatalf("trial %d %s: NewEngine: %v", trial, mk.name, err)
			}
			readings := randomReadings(rng, n)
			got, err := eng.Run(readings)
			if err != nil {
				t.Fatalf("trial %d %s: Run: %v", trial, mk.name, err)
			}
			want, err := eng.runMapBased(readings, nil)
			if err != nil {
				t.Fatalf("trial %d %s: runMapBased: %v", trial, mk.name, err)
			}
			if len(got.Values) != len(want.Values) {
				t.Fatalf("trial %d %s: %d values, reference has %d", trial, mk.name, len(got.Values), len(want.Values))
			}
			for d, wv := range want.Values {
				gv, ok := got.Values[d]
				if !ok {
					t.Fatalf("trial %d %s: destination %d missing", trial, mk.name, d)
				}
				if math.Float64bits(gv) != math.Float64bits(wv) {
					t.Fatalf("trial %d %s: destination %d = %v (%x), reference %v (%x)",
						trial, mk.name, d, gv, math.Float64bits(gv), wv, math.Float64bits(wv))
				}
			}
			if got.EnergyJ != want.EnergyJ || got.Messages != want.Messages ||
				got.Units != want.Units || got.BodyBytes != want.BodyBytes ||
				got.OnAirBytes != want.OnAirBytes {
				t.Fatalf("trial %d %s: costs %+v, reference %+v", trial, mk.name, got, want)
			}
		}
	}
}

func allocEngine(t testing.TB) (*Engine, map[graph.NodeID]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	n := 40
	inst := buildInstance(t, rng, n, 4, 6, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	return eng, randomReadings(rng, n)
}

// TestRunIntoZeroAllocs pins the zero-allocation contract of the compiled
// executor: a warmed RunInto round allocates nothing.
func TestRunIntoZeroAllocs(t *testing.T) {
	eng, readings := allocEngine(t)
	st := eng.NewRoundState()
	// Warm: the first round populates the state's Values map.
	if _, err := eng.RunInto(readings, st); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.RunInto(readings, st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RunInto allocated %v objects/round, want 0", allocs)
	}
}

// TestRunSteadyStateAllocs pins Run's steady-state allocation budget: with
// a warmed pool, only the returned result and its Values map remain.
func TestRunSteadyStateAllocs(t *testing.T) {
	eng, readings := allocEngine(t)
	// Warm the state pool.
	for i := 0; i < 3; i++ {
		if _, err := eng.Run(readings); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Run(readings); err != nil {
			t.Fatal(err)
		}
	})
	// The result struct, its Values map, and the map's storage. The pool
	// may refill occasionally under GC pressure; allow slack to 8 while
	// still catching any return of the old ~1000-allocation rounds.
	if allocs > 8 {
		t.Fatalf("Run allocated %v objects/round steady-state, want <= 8", allocs)
	}
}

// TestRunConcurrentMatchesSequential drives many concurrent batches of
// distinct rounds over one shared engine and checks every result against
// the sequential executor bit for bit. Run under -race this is also the
// data-race gate for the immutable compiled program and the state pool.
func TestRunConcurrentMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	n := 50
	inst := buildInstance(t, rng, n, 4, 6, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	batch := make([]map[graph.NodeID]float64, rounds)
	want := make([]*RoundResult, rounds)
	for i := range batch {
		batch[i] = randomReadings(rng, n)
		w, err := eng.Run(batch[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	// Exercise several worker counts, including oversubscription, plus
	// direct goroutine contention on Run itself.
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 2 * runtime.GOMAXPROCS(0)} {
		got, err := eng.RunConcurrent(context.Background(), batch, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if err := sameRound(got[i], want[i]); err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, i, err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < rounds; i += 8 {
				res, err := eng.Run(batch[i])
				if err != nil {
					errs <- err
					return
				}
				if err := sameRound(res, want[i]); err != nil {
					errs <- fmt.Errorf("round %d: %v", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func sameRound(got, want *RoundResult) error {
	if len(got.Values) != len(want.Values) {
		return fmt.Errorf("%d values, want %d", len(got.Values), len(want.Values))
	}
	for d, wv := range want.Values {
		if math.Float64bits(got.Values[d]) != math.Float64bits(wv) {
			return fmt.Errorf("destination %d = %v, want %v", d, got.Values[d], wv)
		}
	}
	if got.EnergyJ != want.EnergyJ || got.Messages != want.Messages || got.Units != want.Units {
		return fmt.Errorf("costs (%v,%d,%d), want (%v,%d,%d)",
			got.EnergyJ, got.Messages, got.Units, want.EnergyJ, want.Messages, want.Units)
	}
	return nil
}

// TestRunConcurrentCancellation pins the context seam: a canceled context
// makes RunConcurrent return the context's error instead of results, an
// already-canceled context never starts a round, and cancellation midway
// through a large batch stops the workers from claiming the tail.
func TestRunConcurrentCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := buildInstance(t, rng, 40, 4, 6, false)
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, radio.DefaultModel(), Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]map[graph.NodeID]float64, 64)
	for i := range batch {
		batch[i] = randomReadings(rng, inst.Net.Len())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RunConcurrent(ctx, batch, 4); err != context.Canceled {
		t.Fatalf("pre-canceled context: got %v, want context.Canceled", err)
	}

	// Deadline in the past behaves like cancellation with its own error.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := eng.RunConcurrent(dctx, batch, 4); err != context.DeadlineExceeded {
		t.Fatalf("expired deadline: got %v, want context.DeadlineExceeded", err)
	}

	// A background context keeps the exact pre-context behavior.
	got, err := eng.RunConcurrent(context.Background(), batch, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("got %d results, want %d", len(got), len(batch))
	}
	for i, r := range got {
		if r == nil || len(r.Values) == 0 {
			t.Fatalf("round %d missing values", i)
		}
	}
}
