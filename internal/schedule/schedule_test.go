// External test package: internal/sim imports schedule for its TDMA
// executor, so the tests that drive schedules through real engine plans
// must live outside the package to avoid an import cycle.
package schedule_test

import (
	"math/rand"
	"testing"

	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/schedule"
	"m2m/internal/sim"
	"m2m/internal/topology"
	"m2m/internal/workload"
)

func lineNet(n int) *graph.Undirected {
	g := graph.NewUndirected(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	return g
}

func TestBuildChain(t *testing.T) {
	// 0→1→2→3 relays: each hop depends on the previous, and adjacent hops
	// conflict, so the frame is exactly 3 slots.
	net := lineNet(4)
	msgs := []schedule.Message{
		{From: 0, To: 1},
		{From: 1, To: 2, Deps: []int{0}},
		{From: 2, To: 3, Deps: []int{1}},
	}
	s, err := schedule.Build(net, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(net, msgs); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Errorf("frame = %d slots, want 3", s.Len())
	}
}

func TestParallelNonConflicting(t *testing.T) {
	// Two transmissions far apart can share slot 0.
	net := lineNet(8)
	msgs := []schedule.Message{
		{From: 0, To: 1},
		{From: 6, To: 7},
	}
	s, err := schedule.Build(net, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("frame = %d slots, want 1", s.Len())
	}
}

func TestConflictRules(t *testing.T) {
	net := lineNet(6)
	cases := []struct {
		name string
		a, b schedule.Message
		want bool
	}{
		{"same sender", schedule.Message{From: 1, To: 0}, schedule.Message{From: 1, To: 2}, true},
		{"same receiver", schedule.Message{From: 0, To: 1}, schedule.Message{From: 2, To: 1}, true},
		{"receiver equals other sender", schedule.Message{From: 0, To: 1}, schedule.Message{From: 1, To: 2}, true},
		{"receiver hears other sender", schedule.Message{From: 0, To: 1}, schedule.Message{From: 2, To: 3}, true},
		{"far apart", schedule.Message{From: 0, To: 1}, schedule.Message{From: 4, To: 5}, false},
	}
	for _, c := range cases {
		if got := schedule.Conflicts(net, c.a, c.b); got != c.want {
			t.Errorf("%s: Conflicts = %v, want %v", c.name, got, c.want)
		}
		if got := schedule.Conflicts(net, c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): Conflicts = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	net := lineNet(3)
	if _, err := schedule.Build(net, []schedule.Message{{From: 0, To: 9}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := schedule.Build(net, []schedule.Message{{From: 0, To: 1, Deps: []int{5}}}); err == nil {
		t.Error("invalid dependency accepted")
	}
	cyclic := []schedule.Message{
		{From: 0, To: 1, Deps: []int{1}},
		{From: 1, To: 2, Deps: []int{0}},
	}
	if _, err := schedule.Build(net, cyclic); err == nil {
		t.Error("dependency cycle accepted")
	}
}

func TestValidateDetectsBrokenSchedules(t *testing.T) {
	net := lineNet(4)
	msgs := []schedule.Message{
		{From: 0, To: 1},
		{From: 1, To: 2, Deps: []int{0}},
	}
	if _, err := schedule.Build(net, msgs); err != nil {
		t.Fatal(err)
	}
	if err := (&schedule.Schedule{}).Validate(net, msgs); err == nil {
		t.Error("schedule covering no messages accepted")
	}
	// Violate the dependency by swapping slots.
	bad := &schedule.Schedule{SlotOf: []int{1, 0}, Slots: [][]int{{1}, {0}}}
	if err := bad.Validate(net, msgs); err == nil {
		t.Error("dependency violation accepted")
	}
	// Put conflicting messages into one slot.
	bad2 := &schedule.Schedule{SlotOf: []int{0, 0}, Slots: [][]int{{0, 1}}}
	if err := bad2.Validate(net, msgs); err == nil {
		t.Error("conflicting slot accepted")
	}
}

func TestFromSlotOf(t *testing.T) {
	s, err := schedule.FromSlotOf([]int{2, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("frame = %d slots, want 3", s.Len())
	}
	want := [][]int{{1, 2}, {3}, {0}}
	for si, slot := range want {
		if len(s.Slots[si]) != len(slot) {
			t.Fatalf("slot %d = %v, want %v", si, s.Slots[si], slot)
		}
		for j := range slot {
			if s.Slots[si][j] != slot[j] {
				t.Fatalf("slot %d = %v, want %v", si, s.Slots[si], slot)
			}
		}
	}
	if _, err := schedule.FromSlotOf([]int{0, -1}); err == nil {
		t.Error("negative slot accepted")
	}
	empty, err := schedule.FromSlotOf(nil)
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty assignment: %v, %d slots", err, empty.Len())
	}
}

// randomCase generates a random connected topology and a random message
// DAG over it: endpoints are random edges of the net and each message
// depends on a random subset of earlier messages, so the dependency graph
// is acyclic by construction.
func randomCase(rng *rand.Rand) (*graph.Undirected, []schedule.Message) {
	n := 4 + rng.Intn(12)
	g := lineNet(n) // connected spine
	for extra := rng.Intn(2 * n); extra > 0; extra-- {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, 1)
		}
	}
	edges := g.Edges()
	m := 1 + rng.Intn(3*n)
	msgs := make([]schedule.Message, m)
	for i := range msgs {
		e := edges[rng.Intn(len(edges))]
		from, to := e.U, e.V
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		msgs[i] = schedule.Message{From: from, To: to}
		for d := 0; d < i; d++ {
			if rng.Intn(2*m) == 0 {
				msgs[i].Deps = append(msgs[i].Deps, d)
			}
		}
	}
	return g, msgs
}

// TestPropertyRandomDAGs is the satellite property test: over random
// topologies and random dependency DAGs, Build always yields a schedule
// Validate accepts, and targeted corruptions of that schedule — a message
// pulled into its dependency's slot, or two conflicting messages forced
// to share one — are always rejected.
func TestPropertyRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(1789))
	for trial := 0; trial < 200; trial++ {
		net, msgs := randomCase(rng)
		s, err := schedule.Build(net, msgs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.Validate(net, msgs); err != nil {
			t.Fatalf("trial %d: built schedule rejected: %v", trial, err)
		}
		// Round-trip through the bare assignment, as a wire frame would.
		rt, err := schedule.FromSlotOf(s.SlotOf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := rt.Validate(net, msgs); err != nil {
			t.Fatalf("trial %d: round-tripped schedule rejected: %v", trial, err)
		}

		// Corruption 1: move a dependent message into its dependency's slot.
		for i, m := range msgs {
			if len(m.Deps) == 0 {
				continue
			}
			slotOf := append([]int(nil), s.SlotOf...)
			slotOf[i] = slotOf[m.Deps[0]]
			bad, err := schedule.FromSlotOf(slotOf)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := bad.Validate(net, msgs); err == nil {
				t.Fatalf("trial %d: dependency corruption on message %d accepted", trial, i)
			}
			break
		}
		// Corruption 2: force a conflicting pair into one slot.
	pairs:
		for i := range msgs {
			for j := i + 1; j < len(msgs); j++ {
				if !schedule.Conflicts(net, msgs[i], msgs[j]) || s.SlotOf[i] == s.SlotOf[j] {
					continue
				}
				// Move j into i's slot; only a dependency between them
				// could mask the conflict error, so skip that case.
				if dependsOn(msgs, i, j) || dependsOn(msgs, j, i) {
					continue
				}
				slotOf := append([]int(nil), s.SlotOf...)
				slotOf[j] = slotOf[i]
				bad, err := schedule.FromSlotOf(slotOf)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if err := bad.Validate(net, msgs); err == nil {
					t.Fatalf("trial %d: conflict corruption (%d,%d) accepted", trial, i, j)
				}
				break pairs
			}
		}
	}
}

// dependsOn reports whether message a transitively depends on message b.
func dependsOn(msgs []schedule.Message, a, b int) bool {
	seen := make(map[int]bool)
	var walk func(int) bool
	walk = func(i int) bool {
		if i == b {
			return true
		}
		if seen[i] {
			return false
		}
		seen[i] = true
		for _, d := range msgs[i].Deps {
			if walk(d) {
				return true
			}
		}
		return false
	}
	return walk(a)
}

// engineMessages builds the optimal plan's message graph on a random
// network and converts it to schedule input.
func engineMessages(t *testing.T, seed int64) (*graph.Undirected, []schedule.Message) {
	t.Helper()
	l := topology.UniformRandom(40, topology.GDIArea(), seed)
	l.EnsureConnected(50)
	g := l.ConnectivityGraph(50)
	specs, err := workload.Generate(g, workload.Config{
		NumDests: 6, SourcesPerDest: 6, Dispersion: 0.9, MaxHops: 4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := plan.NewInstance(g, routing.NewReversePath(g), specs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(inst)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(p, radio.DefaultModel(), sim.Options{MergeMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	infos, err := eng.MessageGraph()
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]schedule.Message, len(infos))
	for i, mi := range infos {
		msgs[i] = schedule.Message{From: mi.From, To: mi.To, Deps: mi.Deps}
	}
	return g, msgs
}

func TestScheduleRealPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		net, msgs := engineMessages(t, rng.Int63())
		s, err := schedule.Build(net, msgs)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(net, msgs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Len() > len(msgs) {
			t.Errorf("trial %d: frame %d longer than message count %d", trial, s.Len(), len(msgs))
		}
		ls := s.Listening(msgs)
		if ls.SavedFraction() <= 0 {
			t.Errorf("trial %d: schedule saved no listening time (%+v)", trial, ls)
		}
		if ls.AwakeSlots > ls.AlwaysOnSlots {
			t.Errorf("trial %d: awake %d exceeds always-on %d", trial, ls.AwakeSlots, ls.AlwaysOnSlots)
		}
	}
}

func TestListeningEmpty(t *testing.T) {
	s := &schedule.Schedule{}
	if got := s.Listening(nil).SavedFraction(); got != 0 {
		t.Errorf("empty schedule saved %v", got)
	}
}

// TestSlotSeconds pins the slot clock: a 45-byte slot at 38.4 kbaud, and
// a chain of three dependent hops takes a three-slot frame of it.
func TestSlotSeconds(t *testing.T) {
	if got, want := schedule.SlotSeconds(45), 45*8/38400.0; got != want {
		t.Fatalf("SlotSeconds(45) = %v, want %v", got, want)
	}
	net := lineNet(4)
	msgs := []schedule.Message{
		{From: 0, To: 1},
		{From: 1, To: 2, Deps: []int{0}},
		{From: 2, To: 3, Deps: []int{1}},
	}
	s, err := schedule.Build(net, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(net, msgs); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("chain frame has %d slots, want 3", s.Len())
	}
}
