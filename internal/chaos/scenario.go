package chaos

// Deterministic scenario generation for simulation testing. One int64
// seed fully determines a run: the topology, workload, router, executor
// and sketch kinds, and every fault dimension's on/off state and
// schedule are all drawn from it through the same splitmix64 stream the
// injector uses for its own draws. A Scenario is pure data — plain
// ints, floats and strings with JSON tags — so a failing case shrinks
// to a small replayable JSON repro.
//
// Generation is two-phase because some schedules need the connectivity
// graph (an outage wants a real link, a partition side must be a
// connected component, crash sets must not disconnect the survivors):
//
//	sc := chaos.NewScenario(seed)        // shape: topology/workload/router/dims
//	... build the network and workload from the shape ...
//	sc.PopulateSchedules(g, protected, sources)  // concrete fault schedules
//
// Both phases are pure functions of the seed (plus the graph, itself a
// pure function of the shape), so the two-phase split never costs
// reproducibility.
//
// Scenarios are drawn from one of several composition families. Each
// family is a set of fault dimensions that legally compose (mirroring
// the compositions the executors and the resilient session support);
// within a family every dimension still flips on or off independently,
// so the legal combinatorial space is explored without generating
// compositions the runtime rejects by construction:
//
//	mild      sync or async; loss and timing chaos only
//	churn     sync; loss + outages + crashes/revives + partitions
//	async     event-driven; loss/jitter/dup/reorder/deadline + crashes + depletions
//	battery   sync; energy ledger + evacuation + loss + crashes
//	byzantine sync; lying windows + loss + crashes, often on sketch workloads
//	collide   sync; slot contention + TDMA + loss + outages + crashes
//	extreme   sync; battery + partitions + outages + crashes + loss together
import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"m2m/internal/graph"
	"m2m/internal/routing"
)

// Scenario families (the Family field).
const (
	FamilyMild      = "mild"
	FamilyChurn     = "churn"
	FamilyAsync     = "async"
	FamilyBattery   = "battery"
	FamilyByzantine = "byzantine"
	FamilyCollide   = "collide"
	FamilyExtreme   = "extreme"
)

// AsyncDim selects the event-driven executor and its timing chaos.
type AsyncDim struct {
	BaseMS      float64 `json:"base_ms"`
	JitterMS    float64 `json:"jitter_ms"`
	DupProb     float64 `json:"dup_prob,omitempty"`
	ReorderProb float64 `json:"reorder_prob,omitempty"`
	ReorderMS   float64 `json:"reorder_ms,omitempty"`
	DeadlineMS  float64 `json:"deadline_ms,omitempty"`
}

// OutageDim is a scheduled window during which one link drops every
// frame.
type OutageDim struct {
	U      int `json:"u"`
	V      int `json:"v"`
	Start  int `json:"start"`
	Rounds int `json:"rounds"`
}

// PartitionDim severs a connected side from the rest of the network for
// a window of rounds. Side is populated by PopulateSchedules.
type PartitionDim struct {
	Size   int   `json:"size"`
	Start  int   `json:"start"`
	Rounds int   `json:"rounds"`
	Side   []int `json:"side,omitempty"`
}

// CrashDim fail-stops a node, optionally reviving it later (Revive 0 =
// permanent).
type CrashDim struct {
	Node   int `json:"node"`
	Round  int `json:"round"`
	Revive int `json:"revive,omitempty"`
}

// DepletionDim silences a node permanently from Round on (scheduled
// battery exhaustion, independent of any ledger).
type DepletionDim struct {
	Node  int `json:"node"`
	Round int `json:"round"`
}

// BatteryDim attaches a per-node energy ledger. CapacityJ zero means
// "derive from Headroom": the builder prices one fault-free round and
// sets CapacityJ = Headroom × maxPerNodeJ × Rounds, then writes the
// result back so the JSON repro pins the exact ledger.
type BatteryDim struct {
	Headroom    float64 `json:"headroom"`
	CapacityJ   float64 `json:"capacity_j,omitempty"`
	EvacHorizon int     `json:"evac_horizon,omitempty"`
}

// ByzDim is one lying window: Node reports corrupted readings per Mode
// between Start and Start+Rounds (Rounds 0 = forever).
type ByzDim struct {
	Node   int     `json:"node"`
	Mode   string  `json:"mode"`
	Param  float64 `json:"param"`
	Start  int     `json:"start"`
	Rounds int     `json:"rounds,omitempty"`
}

// CollideDim turns on the slot-contention channel. EagerTDMA makes the
// session switch to scheduled transmission at the first observed
// collision instead of the smoothed default threshold.
type CollideDim struct {
	Capture   float64 `json:"capture,omitempty"`
	EagerTDMA bool    `json:"eager_tdma,omitempty"`
}

// Scenario is one fully-determined simulation run: shape (topology,
// workload, router, executor, readings), session knobs, and every fault
// dimension's schedule. The zero value of every dimension field means
// "off".
type Scenario struct {
	Seed   int64  `json:"seed"`
	Family string `json:"family"`

	// Topology.
	Nodes    int     `json:"nodes"`
	Topology string  `json:"topology"` // random | clustered | grid
	GridX    int     `json:"grid_x,omitempty"`
	GridY    int     `json:"grid_y,omitempty"`
	Spacing  float64 `json:"spacing,omitempty"`
	TopoSeed int64   `json:"topo_seed"`

	// Workload.
	Router         string  `json:"router"` // reverse | shared | spt | mindeg
	Rounds         int     `json:"rounds"`
	Dests          int     `json:"dests"`
	SourcesPerDest int     `json:"sources_per_dest"`
	Dispersion     float64 `json:"dispersion"`
	MaxHops        int     `json:"max_hops,omitempty"`
	FuncKind       string  `json:"func_kind"`        // wsum | wavg
	Sketch         string  `json:"sketch,omitempty"` // "" | qdigest | hll | tmean
	WorkloadSeed   int64   `json:"workload_seed"`

	// Readings stream.
	Readings     string `json:"readings"` // const | walk | diurnal | pulse
	ReadingsSeed int64  `json:"readings_seed"`

	// Session knobs (0 = session default).
	MaxRetries    int `json:"max_retries,omitempty"`
	MissThreshold int `json:"miss_threshold,omitempty"`
	DetourBudget  int `json:"detour_budget,omitempty"`

	// Fault dimensions.
	FaultSeed  int64          `json:"fault_seed"`
	Loss       float64        `json:"loss,omitempty"`
	Async      *AsyncDim      `json:"async,omitempty"`
	Outages    []OutageDim    `json:"outages,omitempty"`
	Partition  *PartitionDim  `json:"partition,omitempty"`
	Crashes    []CrashDim     `json:"crashes,omitempty"`
	Depletions []DepletionDim `json:"depletions,omitempty"`
	Battery    *BatteryDim    `json:"battery,omitempty"`
	Byzantine  []ByzDim       `json:"byzantine,omitempty"`
	Collide    *CollideDim    `json:"collide,omitempty"`

	// built is the network and workload the generator drew, waiting for
	// the first run built from this scenario (see StashShape). It is not
	// part of the repro: JSON skips unexported fields.
	built *builtShape
}

// srng is a tiny deterministic stream over the package's splitmix64
// finalizer — good enough for parameter draws and fully reproducible.
type srng struct{ state uint64 }

func (r *srng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}
func (r *srng) f64() float64           { return float64(r.next()>>11) / (1 << 53) }
func (r *srng) intn(n int) int         { return int(r.next() % uint64(n)) }
func (r *srng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) } // inclusive
func (r *srng) rangeF(lo, hi float64) float64 {
	return lo + (hi-lo)*r.f64()
}
func (r *srng) coin(p float64) bool { return r.f64() < p }

// pick returns one of the choices with the matching weights.
func (r *srng) pick(choices []string, weights []float64) string {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := r.f64() * total
	for i, w := range weights {
		if x < w {
			return choices[i]
		}
		x -= w
	}
	return choices[len(choices)-1]
}

// NewScenario draws a scenario's shape from the seed: topology,
// workload, router, executor, readings, session knobs, and which fault
// dimensions are armed with which parameters. Schedules that need the
// concrete graph (outage links, partition sides, crash targets, liar
// identities) are left empty until PopulateSchedules.
func NewScenario(seed int64) *Scenario {
	r := &srng{state: uint64(seed) ^ 0x5ca1ab1e5ca1ab1e}
	sc := &Scenario{
		Seed:         seed,
		TopoSeed:     int64(r.next() >> 1),
		WorkloadSeed: int64(r.next() >> 1),
		ReadingsSeed: int64(r.next() >> 1),
		FaultSeed:    int64(r.next() >> 1),
		Rounds:       r.between(8, 24),
	}

	sc.Family = r.pick(
		[]string{FamilyMild, FamilyChurn, FamilyAsync, FamilyBattery, FamilyByzantine, FamilyCollide, FamilyExtreme},
		[]float64{0.14, 0.22, 0.14, 0.14, 0.14, 0.14, 0.08})

	// Topology.
	switch r.pick([]string{"random", "clustered", "grid"}, []float64{0.6, 0.2, 0.2}) {
	case "random":
		sc.Topology = "random"
		sc.Nodes = r.between(24, 56)
	case "clustered":
		sc.Topology = "clustered"
		sc.Nodes = r.between(30, 60)
	default:
		sc.Topology = "grid"
		sc.GridX = r.between(5, 7)
		sc.GridY = r.between(5, 7)
		sc.Spacing = 35
		sc.Nodes = sc.GridX * sc.GridY
	}

	// Workload.
	sc.Dests = r.between(3, 7)
	sc.SourcesPerDest = r.between(3, 8)
	sc.Dispersion = []float64{0, 0.5, 0.9, 1}[r.intn(4)]
	if r.coin(0.8) {
		sc.MaxHops = r.between(3, 4)
	}
	sc.FuncKind = r.pick([]string{"wsum", "wavg"}, []float64{0.6, 0.4})
	sc.Readings = r.pick([]string{"const", "walk", "diurnal", "pulse"}, []float64{0.25, 0.35, 0.2, 0.2})

	// Session knobs: mostly defaults, sometimes exercised.
	if r.coin(0.3) {
		sc.MaxRetries = r.between(1, 4)
	}
	if r.coin(0.3) {
		sc.MissThreshold = r.between(2, 4)
	}
	if r.coin(0.3) {
		sc.DetourBudget = r.between(2, 6)
	}

	// Router (family-specific weights; battery evacuation and TDMA have
	// router requirements).
	routerFor := func() string {
		return r.pick([]string{"reverse", "shared", "spt", "mindeg"}, []float64{0.5, 0.2, 0.15, 0.15})
	}

	// Fault dimensions per family.
	drawLoss := func(pOn, lo, hi float64) {
		if r.coin(pOn) {
			sc.Loss = math.Round(r.rangeF(lo, hi)*1000) / 1000
		}
	}
	drawAsync := func() {
		a := &AsyncDim{
			BaseMS:   math.Round(r.rangeF(2, 15)*10) / 10,
			JitterMS: math.Round(r.rangeF(0, 25)*10) / 10,
		}
		if r.coin(0.5) {
			a.DupProb = math.Round(r.rangeF(0.01, 0.12)*1000) / 1000
		}
		if r.coin(0.5) {
			a.ReorderProb = math.Round(r.rangeF(0.01, 0.12)*1000) / 1000
			a.ReorderMS = math.Round(r.rangeF(5, 40)*10) / 10
		}
		if r.coin(0.4) {
			a.DeadlineMS = float64(r.between(8000, 20000))
		}
		sc.Async = a
	}
	// Schedule-bearing dimensions only record how many draws
	// PopulateSchedules should make; the targets need the graph.
	wantOutages := 0
	wantCrashes := 0
	wantDepletions := 0
	wantByz := 0

	switch sc.Family {
	case FamilyMild:
		sc.Router = routerFor()
		drawLoss(0.7, 0.02, 0.3)
		if r.coin(0.25) {
			drawAsync()
		}
		if r.coin(0.2) {
			sc.Sketch = []string{"qdigest", "hll", "tmean"}[r.intn(3)]
		}
	case FamilyChurn:
		sc.Router = routerFor()
		drawLoss(0.7, 0.02, 0.35)
		if r.coin(0.6) {
			wantOutages = r.between(1, 3)
		}
		if r.coin(0.75) {
			wantCrashes = r.between(1, 2)
		}
		if r.coin(0.5) {
			sc.Partition = &PartitionDim{
				Start:  r.between(1, sc.Rounds/2),
				Rounds: r.between(2, 5),
			}
		}
	case FamilyAsync:
		sc.Router = routerFor()
		drawAsync()
		drawLoss(0.7, 0.02, 0.3)
		if r.coin(0.5) {
			wantCrashes = 1
		}
		if r.coin(0.3) {
			wantDepletions = 1
		}
	case FamilyBattery:
		sc.Battery = &BatteryDim{Headroom: math.Round(r.rangeF(0.5, 2.5)*100) / 100}
		if r.coin(0.6) {
			sc.Battery.EvacHorizon = r.between(2, 6)
			sc.Router = "reverse" // evacuation requires weighted reverse-path detours
		} else {
			sc.Router = r.pick([]string{"reverse", "shared"}, []float64{0.7, 0.3})
		}
		drawLoss(0.5, 0.02, 0.25)
		if r.coin(0.4) {
			wantCrashes = 1
		}
	case FamilyByzantine:
		sc.Router = routerFor()
		if sc.Readings == "pulse" || sc.Readings == "walk" {
			// The residual gate assumes co-moving honest signals. An
			// honest pulse spike is indistinguishable from a lie, and a
			// random walk's excursions are persistent — exactly what the
			// excision persistence window cannot filter.
			sc.Readings = []string{"const", "diurnal"}[r.intn(2)]
		}
		wantByz = r.between(1, 2)
		drawLoss(0.5, 0.02, 0.25)
		if r.coin(0.3) {
			wantCrashes = 1
		}
		if r.coin(0.5) {
			sc.Sketch = []string{"qdigest", "hll", "tmean"}[r.intn(3)]
		}
	case FamilyCollide:
		sc.Router = r.pick([]string{"mindeg", "reverse", "shared"}, []float64{0.5, 0.3, 0.2})
		sc.Collide = &CollideDim{EagerTDMA: r.coin(0.5)}
		if r.coin(0.5) {
			sc.Collide.Capture = math.Round(r.rangeF(0.05, 0.3)*1000) / 1000
		}
		drawLoss(0.4, 0.02, 0.2)
		if r.coin(0.3) {
			wantOutages = 1
		}
		if r.coin(0.3) {
			wantCrashes = 1
		}
		if r.coin(0.2) {
			wantDepletions = 1
		}
	case FamilyExtreme:
		sc.Router = r.pick([]string{"reverse", "shared"}, []float64{0.7, 0.3})
		sc.Battery = &BatteryDim{Headroom: math.Round(r.rangeF(0.8, 2.5)*100) / 100}
		drawLoss(0.8, 0.05, 0.35)
		if r.coin(0.6) {
			wantOutages = r.between(1, 2)
		}
		if r.coin(0.7) {
			wantCrashes = r.between(1, 2)
		}
		if r.coin(0.5) {
			sc.Partition = &PartitionDim{
				Start:  r.between(1, sc.Rounds/2),
				Rounds: r.between(2, 4),
			}
		}
	}

	// Record the pending schedule draws in placeholder entries with
	// node/link -1; PopulateSchedules resolves them against the graph.
	for i := 0; i < wantOutages; i++ {
		sc.Outages = append(sc.Outages, OutageDim{U: -1, V: -1})
	}
	for i := 0; i < wantCrashes; i++ {
		sc.Crashes = append(sc.Crashes, CrashDim{Node: -1})
	}
	for i := 0; i < wantDepletions; i++ {
		sc.Depletions = append(sc.Depletions, DepletionDim{Node: -1})
	}
	for i := 0; i < wantByz; i++ {
		sc.Byzantine = append(sc.Byzantine, ByzDim{Node: -1})
	}

	// Tightened retry/condemnation knobs combined with heavy loss make
	// genuine false condemnation statistically reachable (a live node can
	// lose MissThreshold+DetourBudget consecutive windows by chance), so
	// only keep the knob overrides when the channel is near-clean.
	if sc.Loss > 0.1 {
		sc.MaxRetries, sc.MissThreshold, sc.DetourBudget = 0, 0, 0
	}
	return sc
}

// aliveConnected reports whether the graph restricted to non-dead nodes
// is connected (vacuously true with no alive nodes).
func aliveConnected(g *graph.Undirected, dead map[int]bool) bool {
	n := g.Len()
	start := -1
	alive := 0
	for i := 0; i < n; i++ {
		if !dead[i] {
			alive++
			if start < 0 {
				start = i
			}
		}
	}
	if alive == 0 {
		return true
	}
	seen := make([]bool, n)
	seen[start] = true
	reached := 1
	queue := []graph.NodeID{graph.NodeID(start)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dead[int(v)] || seen[v] {
				continue
			}
			seen[v] = true
			reached++
			queue = append(queue, v)
		}
	}
	return reached == alive
}

// PopulateSchedules resolves the shape's pending fault draws against
// the concrete connectivity graph: outages land on real links, the
// partition side is grown to a connected set excluding node 0, crash
// and depletion targets never disconnect the survivors or touch the
// protected set, and liars are picked from the workload's sources.
// Deterministic in (Seed, g, protected, sources).
func (sc *Scenario) PopulateSchedules(g *graph.Undirected, protected, sources []graph.NodeID) error {
	if g.Len() != sc.Nodes {
		return fmt.Errorf("chaos: graph has %d nodes, scenario %d", g.Len(), sc.Nodes)
	}
	r := &srng{state: uint64(sc.FaultSeed) ^ 0x0ddba11c0ffee000}
	n := sc.Nodes

	noTouch := map[int]bool{0: true} // node 0 anchors the base station
	for _, p := range protected {
		noTouch[int(p)] = true
	}

	// Outages on real links.
	edges := g.Edges()
	if len(sc.Outages) > 0 && len(edges) == 0 {
		sc.Outages = nil
	}
	for i := range sc.Outages {
		e := edges[r.intn(len(edges))]
		o := &sc.Outages[i]
		o.U, o.V = int(e.U), int(e.V)
		o.Start = r.between(1, max(1, sc.Rounds-3))
		o.Rounds = r.between(1, max(1, min(6, sc.Rounds/2)))
	}

	// Partition side: a connected region grown from a random seed node,
	// retried until it excludes node 0 and the protected set's spec
	// anchor keeps a base-side majority.
	if p := sc.Partition; p != nil {
		if p.Size == 0 {
			p.Size = r.between(max(2, n/6), max(3, n/3))
		}
		placed := false
		for attempt := 0; attempt < 8 && !placed; attempt++ {
			seedNode := graph.NodeID(r.between(1, n-1))
			side, err := GrowSide(g, seedNode, p.Size)
			if err != nil {
				continue
			}
			ok := true
			for _, s := range side {
				if s == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			p.Side = p.Side[:0]
			for _, s := range side {
				p.Side = append(p.Side, int(s))
			}
			placed = true
		}
		if !placed {
			sc.Partition = nil
		}
	}

	// Crash and depletion targets: never the protected set, never node
	// 0, never disconnecting the survivors, at most n/5 permanent
	// deaths in total.
	dead := map[int]bool{}
	maxDead := max(1, n/5)
	pickTarget := func() int {
		for attempt := 0; attempt < 24; attempt++ {
			c := r.between(1, n-1)
			if noTouch[c] || dead[c] {
				continue
			}
			dead[c] = true
			if aliveConnected(g, dead) {
				return c
			}
			delete(dead, c)
		}
		return -1
	}
	crashes := sc.Crashes[:0]
	for range sc.Crashes {
		if len(dead) >= maxDead {
			break
		}
		c := pickTarget()
		if c < 0 {
			break
		}
		cd := CrashDim{Node: c, Round: r.between(1, max(1, sc.Rounds-3))}
		if sc.Collide == nil && r.coin(0.4) && cd.Round+2 < sc.Rounds {
			cd.Revive = r.between(cd.Round+2, sc.Rounds-1)
			delete(dead, c) // revived: not a permanent death
		}
		crashes = append(crashes, cd)
	}
	sc.Crashes = crashes
	depl := sc.Depletions[:0]
	for range sc.Depletions {
		if len(dead) >= maxDead {
			break
		}
		c := pickTarget()
		if c < 0 {
			break
		}
		depl = append(depl, DepletionDim{Node: c, Round: r.between(1, max(1, sc.Rounds-3))})
	}
	sc.Depletions = depl

	// Liars: workload sources that are neither protected nor ever dead
	// (the injector rejects lying windows overlapping dead spans).
	var liarPool []int
	seen := map[int]bool{}
	for _, s := range sources {
		i := int(s)
		if noTouch[i] || dead[i] || seen[i] {
			continue
		}
		everDead := false
		for _, c := range sc.Crashes {
			if c.Node == i {
				everDead = true
			}
		}
		if everDead {
			continue
		}
		seen[i] = true
		liarPool = append(liarPool, i)
	}
	sort.Ints(liarPool)
	byz := sc.Byzantine[:0]
	for range sc.Byzantine {
		if len(liarPool) == 0 {
			break
		}
		i := r.intn(len(liarPool))
		liar := liarPool[i]
		liarPool = append(liarPool[:i], liarPool[i+1:]...)
		b := ByzDim{
			Node:  liar,
			Mode:  []string{"stuck", "offset", "amplify", "spray"}[r.intn(4)],
			Start: r.between(0, sc.Rounds/2),
		}
		switch b.Mode {
		case "stuck":
			b.Param = math.Round(r.rangeF(100, 500))
		case "offset":
			b.Param = math.Round(r.rangeF(50, 300))
		case "amplify":
			b.Param = math.Round(r.rangeF(3, 10)*10) / 10
		case "spray":
			b.Param = math.Round(r.rangeF(100, 1000))
		}
		if r.coin(0.5) {
			b.Rounds = r.between(3, max(3, sc.Rounds-b.Start))
		}
		byz = append(byz, b)
	}
	sc.Byzantine = byz
	return sc.Validate()
}

// Validate checks structural sanity and the composition rules the
// runtime supports. Populated scenarios (after PopulateSchedules) must
// pass; a scenario that fails here is a generator or shrinker bug.
func (sc *Scenario) Validate() error {
	if sc.Nodes < 4 {
		return fmt.Errorf("chaos: scenario with %d nodes", sc.Nodes)
	}
	if sc.Rounds < 1 {
		return fmt.Errorf("chaos: scenario with %d rounds", sc.Rounds)
	}
	switch sc.Topology {
	case "random", "clustered":
	case "grid":
		if sc.GridX*sc.GridY != sc.Nodes {
			return fmt.Errorf("chaos: %dx%d grid is not %d nodes", sc.GridX, sc.GridY, sc.Nodes)
		}
	default:
		return fmt.Errorf("chaos: unknown topology %q", sc.Topology)
	}
	switch sc.Router {
	case "reverse", "shared", "spt", "mindeg":
	default:
		return fmt.Errorf("chaos: unknown router %q", sc.Router)
	}
	switch sc.FuncKind {
	case "wsum", "wavg":
	default:
		return fmt.Errorf("chaos: unknown func kind %q", sc.FuncKind)
	}
	switch sc.Sketch {
	case "", "qdigest", "hll", "tmean":
	default:
		return fmt.Errorf("chaos: unknown sketch %q", sc.Sketch)
	}
	switch sc.Readings {
	case "const", "walk", "diurnal", "pulse":
	default:
		return fmt.Errorf("chaos: unknown readings kind %q", sc.Readings)
	}
	if sc.Dests < 1 || sc.SourcesPerDest < 1 || sc.SourcesPerDest > sc.Nodes-1 {
		return fmt.Errorf("chaos: workload %d dests × %d sources out of range", sc.Dests, sc.SourcesPerDest)
	}
	if sc.Loss < 0 || sc.Loss >= 1 {
		return fmt.Errorf("chaos: loss %v outside [0,1)", sc.Loss)
	}
	// Composition rules: the collision channel is synchronous and
	// excludes the ledger, partitions and lying; the async executor
	// excludes partitions, the ledger and lying; evacuation needs the
	// reverse-path router.
	if sc.Collide != nil {
		if sc.Async != nil || sc.Battery != nil || sc.Partition != nil || len(sc.Byzantine) > 0 {
			return fmt.Errorf("chaos: collision scenarios compose only with loss/outages/crashes/depletions")
		}
		for _, c := range sc.Crashes {
			if c.Revive > 0 {
				return fmt.Errorf("chaos: collision scenarios do not revive crashed nodes")
			}
		}
	}
	if sc.Async != nil && (sc.Partition != nil || sc.Battery != nil || len(sc.Byzantine) > 0) {
		return fmt.Errorf("chaos: async scenarios compose only with loss/timing/outages/crashes/depletions")
	}
	if len(sc.Byzantine) > 0 && (sc.Battery != nil || sc.Partition != nil) {
		return fmt.Errorf("chaos: byzantine scenarios exclude the ledger and partitions")
	}
	if len(sc.Byzantine) > 0 && (sc.Readings == "pulse" || sc.Readings == "walk") {
		return fmt.Errorf("chaos: byzantine scenarios require co-moving readings (const | diurnal); honest %s excursions are indistinguishable from lies", sc.Readings)
	}
	if sc.Battery != nil {
		if sc.Battery.Headroom <= 0 && sc.Battery.CapacityJ <= 0 {
			return fmt.Errorf("chaos: battery dimension without headroom or capacity")
		}
		if sc.Battery.EvacHorizon > 0 && sc.Router != "reverse" {
			return fmt.Errorf("chaos: evacuation requires the reverse router, scenario has %q", sc.Router)
		}
	}
	for _, o := range sc.Outages {
		if o.U < 0 || o.V < 0 || o.U >= sc.Nodes || o.V >= sc.Nodes || o.Rounds < 1 || o.Start < 0 {
			return fmt.Errorf("chaos: malformed outage %+v", o)
		}
	}
	if p := sc.Partition; p != nil {
		if len(p.Side) == 0 || p.Rounds < 1 || p.Start < 0 {
			return fmt.Errorf("chaos: malformed partition %+v", p)
		}
		for _, s := range p.Side {
			if s <= 0 || s >= sc.Nodes {
				return fmt.Errorf("chaos: partition side node %d out of range", s)
			}
		}
	}
	for _, c := range sc.Crashes {
		if c.Node <= 0 || c.Node >= sc.Nodes || c.Round < 0 || (c.Revive != 0 && c.Revive <= c.Round) {
			return fmt.Errorf("chaos: malformed crash %+v", c)
		}
	}
	for _, d := range sc.Depletions {
		if d.Node <= 0 || d.Node >= sc.Nodes || d.Round < 0 {
			return fmt.Errorf("chaos: malformed depletion %+v", d)
		}
	}
	for _, b := range sc.Byzantine {
		if b.Node <= 0 || b.Node >= sc.Nodes || b.Start < 0 {
			return fmt.Errorf("chaos: malformed byzantine window %+v", b)
		}
		if _, err := ParseByzMode(b.Mode); err != nil {
			return err
		}
		if math.IsNaN(b.Param) || math.IsInf(b.Param, 0) {
			return fmt.Errorf("chaos: non-finite byzantine param %v", b.Param)
		}
	}
	if c := sc.Collide; c != nil && (c.Capture < 0 || c.Capture >= 1) {
		return fmt.Errorf("chaos: capture probability %v outside [0,1)", c.Capture)
	}
	return nil
}

// Injector builds the fault injector this scenario describes and
// validates the composed schedule. The injector's own draws are seeded
// from FaultSeed, so loss patterns and capture outcomes are as
// reproducible as the schedule itself.
func (sc *Scenario) Injector() (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	in := New(sc.FaultSeed)
	if sc.Loss > 0 {
		in.WithUniformLoss(sc.Loss)
	}
	if a := sc.Async; a != nil {
		in.WithJitter(a.BaseMS, a.JitterMS)
		if a.DupProb > 0 {
			in.WithDuplication(a.DupProb)
		}
		if a.ReorderProb > 0 {
			in.WithReorder(a.ReorderProb, a.ReorderMS)
		}
	}
	for _, o := range sc.Outages {
		in.AddOutage(routing.Edge{From: graph.NodeID(o.U), To: graph.NodeID(o.V)}, o.Start, o.Rounds)
	}
	if p := sc.Partition; p != nil {
		side := make([]graph.NodeID, len(p.Side))
		for i, s := range p.Side {
			side[i] = graph.NodeID(s)
		}
		in.AddPartition(side, p.Start, p.Rounds)
	}
	for _, c := range sc.Crashes {
		in.Crash(graph.NodeID(c.Node), c.Round)
		if c.Revive > 0 {
			in.Revive(graph.NodeID(c.Node), c.Revive)
		}
	}
	for _, d := range sc.Depletions {
		in.Deplete(graph.NodeID(d.Node), d.Round)
	}
	for _, b := range sc.Byzantine {
		m, err := ParseByzMode(b.Mode)
		if err != nil {
			return nil, err
		}
		rounds := b.Rounds
		if rounds == 0 {
			rounds = Forever
		}
		in.WithByzantine(graph.NodeID(b.Node), m, b.Param, b.Start, rounds)
	}
	if c := sc.Collide; c != nil {
		in.WithCollisions(c.Capture)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// MarshalJSON/Unmarshal round-trip through the plain struct; EncodeJSON
// and DecodeScenario are the repro file format.
func (sc *Scenario) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}

// DecodeScenario parses a repro produced by EncodeJSON and validates
// it.
func DecodeScenario(data []byte) (*Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("chaos: bad scenario repro: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// String is a compact one-line description for logs.
func (sc *Scenario) String() string {
	s := fmt.Sprintf("seed=%d %s %s/%d %s rounds=%d wl=%dx%d %s",
		sc.Seed, sc.Family, sc.Topology, sc.Nodes, sc.Router, sc.Rounds,
		sc.Dests, sc.SourcesPerDest, sc.FuncKind)
	if sc.Sketch != "" {
		s += "/" + sc.Sketch
	}
	if sc.Loss > 0 {
		s += fmt.Sprintf(" loss=%.3g", sc.Loss)
	}
	if sc.Async != nil {
		s += " async"
	}
	if len(sc.Outages) > 0 {
		s += fmt.Sprintf(" outages=%d", len(sc.Outages))
	}
	if sc.Partition != nil {
		s += fmt.Sprintf(" partition=%d", len(sc.Partition.Side))
	}
	if len(sc.Crashes) > 0 {
		s += fmt.Sprintf(" crashes=%d", len(sc.Crashes))
	}
	if len(sc.Depletions) > 0 {
		s += fmt.Sprintf(" depletions=%d", len(sc.Depletions))
	}
	if sc.Battery != nil {
		s += fmt.Sprintf(" battery(h=%.2g,evac=%d)", sc.Battery.Headroom, sc.Battery.EvacHorizon)
	}
	if len(sc.Byzantine) > 0 {
		s += fmt.Sprintf(" byzantine=%d", len(sc.Byzantine))
	}
	if sc.Collide != nil {
		s += " collide"
	}
	return s
}
