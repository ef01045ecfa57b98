package m2m

// Scenario building for the deterministic simulation-testing subsystem:
// one int64 seed determines a topology, workload, router, executor,
// readings stream and a composed fault schedule (internal/chaos
// scenario generator), and NewScenarioRun turns the pure-data scenario
// into a live ResilientSession ready to step. The invariant checkers
// (internal/invariant) and the m2mfuzz runner drive runs through this
// file.

import (
	"fmt"

	"m2m/internal/chaos"
	"m2m/internal/workload"
)

// scenarioWorkloadNodes extracts the nodes PopulateSchedules needs: the
// protected anchor (the first spec's destination and sources, which the
// generator never kills so the pruned workload stays non-empty) and the
// deduplicated source pool liars are drawn from.
func scenarioWorkloadNodes(specs []Spec) (protected, sources []NodeID) {
	protected = append(protected, specs[0].Dest)
	protected = append(protected, specs[0].Func.Sources()...)
	seen := map[NodeID]bool{}
	for _, sp := range specs {
		for _, s := range sp.Func.Sources() {
			if !seen[s] {
				seen[s] = true
				sources = append(sources, s)
			}
		}
	}
	return protected, sources
}

// Scenario is one fully-determined simulation-testing run: pure data,
// JSON-serializable, shrinkable (see internal/chaos/scenario.go).
type Scenario = chaos.Scenario

// DecodeScenario parses and validates a JSON scenario repro.
func DecodeScenario(data []byte) (*Scenario, error) { return chaos.DecodeScenario(data) }

// GenerateScenario draws the complete scenario for a seed: the shape
// first, then the concrete network and workload, then fault schedules
// resolved against them (outages on real links, partition sides grown
// connected, crash sets that never disconnect the survivors, liars
// drawn from the workload's sources). The network and workload stay
// with the scenario for the first NewScenarioRun built from it.
func GenerateScenario(seed int64) (*Scenario, error) {
	sc := chaos.NewScenario(seed)
	shape, err := buildScenarioShape(sc)
	if err != nil {
		return nil, err
	}
	protected, sources := scenarioWorkloadNodes(shape.specs)
	if err := sc.PopulateSchedules(shape.net.Graph, protected, sources); err != nil {
		return nil, err
	}
	chaos.StashShape(sc, shape)
	return sc, nil
}

// ScenarioRun is a live scenario: the built network and workload, the
// composed fault injector, the optional battery ledger, and the
// resilient session stepping under all of them.
type ScenarioRun struct {
	Scenario *Scenario
	Net      *Network
	Specs    []Spec
	Injector *FaultInjector
	Battery  *Battery // nil unless the scenario carries a ledger
	Session  *ResilientSession
	// Kind is the resolved router, so checkers can rebuild plans from
	// scratch with the session's exact routing policy.
	Kind RouterKind

	gen *recordingGen
}

// NewScenarioRun builds the network, workload, injector, ledger and
// session a populated scenario describes. Building the same scenario
// twice yields byte-identical runs; building from a decoded JSON repro
// yields the original run. The first run of a generated scenario adopts
// the network and workload GenerateScenario drew, unless a shape field
// was edited since; every other run builds its own.
func NewScenarioRun(sc *Scenario) (*ScenarioRun, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	shape, ok := chaos.TakeShape(sc).(*scenarioShape)
	if !ok {
		var err error
		if shape, err = buildScenarioShape(sc); err != nil {
			return nil, err
		}
	}
	net, specs := shape.net, shape.specs
	inj, err := sc.Injector()
	if err != nil {
		return nil, err
	}
	kind, err := scenarioRouter(sc.Router)
	if err != nil {
		return nil, err
	}
	gen := &recordingGen{inner: buildScenarioReadings(sc)}

	cfg := ResilientConfig{
		MaxRetries:    sc.MaxRetries,
		MissThreshold: sc.MissThreshold,
		DetourBudget:  sc.DetourBudget,
		Byzantine:     len(sc.Byzantine) > 0,
	}
	if a := sc.Async; a != nil {
		cfg.Async = &AsyncConfig{DeadlineMS: a.DeadlineMS}
	}
	if c := sc.Collide; c != nil && c.EagerTDMA {
		cfg.TDMASwitchThreshold = 0.01
	}
	inst, err := net.NewInstance(specs, kind)
	if err != nil {
		return nil, err
	}
	p, err := Optimize(inst)
	if err != nil {
		return nil, err
	}
	var bat *Battery
	if b := sc.Battery; b != nil {
		if b.CapacityJ == 0 {
			capJ, err := scenarioBatteryCapacity(sc, net, p)
			if err != nil {
				return nil, err
			}
			b.CapacityJ = capJ
		}
		if bat, err = NewBattery(net.Len(), b.CapacityJ); err != nil {
			return nil, err
		}
		cfg.Battery = bat
		cfg.EvacuateHorizonRounds = b.EvacHorizon
	}

	sess, err := NewResilientSessionWithPlan(net, specs, kind, inst, p, gen, inj, cfg)
	if err != nil {
		return nil, err
	}
	return &ScenarioRun{
		Scenario: sc,
		Net:      net,
		Specs:    specs,
		Injector: inj,
		Battery:  bat,
		Session:  sess,
		Kind:     kind,
		gen:      gen,
	}, nil
}

// Step runs the next round.
func (r *ScenarioRun) Step() (*ResilientStep, error) { return r.Session.Step() }

// Readings returns the reading map of the last stepped round (nil
// before the first step). Checkers use it as the ground truth the
// in-network aggregates are compared against.
func (r *ScenarioRun) Readings() map[NodeID]float64 { return r.gen.last }

// recordingGen remembers the last emitted reading map so checkers can
// evaluate the out-of-network reference aggregate for the same round.
type recordingGen struct {
	inner ReadingGenerator
	last  map[NodeID]float64
}

func (g *recordingGen) Next() map[NodeID]float64 {
	g.last = g.inner.Next()
	return g.last
}

// scenarioShape is a scenario's network and the workload drawn over it.
type scenarioShape struct {
	net   *Network
	specs []Spec
}

func buildScenarioShape(sc *Scenario) (*scenarioShape, error) {
	var net *Network
	switch sc.Topology {
	case "random":
		net = RandomNetwork(sc.Nodes, sc.TopoSeed)
	case "clustered":
		net = ClusteredNetwork(sc.Nodes, sc.TopoSeed)
	case "grid":
		net = GridNetwork(sc.GridX, sc.GridY, sc.Spacing)
	default:
		return nil, fmt.Errorf("m2m: unknown scenario topology %q", sc.Topology)
	}
	specs, err := net.GenerateWorkload(WorkloadConfig{
		NumDests:       sc.Dests,
		SourcesPerDest: sc.SourcesPerDest,
		Dispersion:     sc.Dispersion,
		MaxHops:        sc.MaxHops,
		Kind:           workload.FuncKind(sc.FuncKind),
		Seed:           sc.WorkloadSeed,
	})
	if err != nil {
		return nil, err
	}
	if sc.Sketch != "" {
		for i, sp := range specs {
			f, err := scenarioSketchFunc(sc.Sketch, sp.Func.Sources())
			if err != nil {
				return nil, err
			}
			specs[i] = Spec{Dest: sp.Dest, Func: f}
		}
	}
	return &scenarioShape{net: net, specs: specs}, nil
}

// scenarioSketchFunc swaps a generated workload function for a robust
// sketch over the same source set (domain [0,100], matching the reading
// generators; out-of-domain byzantine values clamp to the edge bucket).
func scenarioSketchFunc(kind string, sources []NodeID) (Func, error) {
	switch kind {
	case "qdigest":
		return NewQDigest(sources, 6, 0, 100, 0.5)
	case "tmean":
		return NewTrimmedMean(sources, 6, 0, 100, 0.25)
	case "hll":
		return NewHyperLogLog(sources, 4)
	default:
		return nil, fmt.Errorf("m2m: unknown scenario sketch %q", kind)
	}
}

func scenarioRouter(name string) (RouterKind, error) {
	switch name {
	case "reverse":
		return RouterReversePath, nil
	case "shared":
		return RouterSharedTree, nil
	case "spt":
		return RouterSourceSPT, nil
	case "mindeg":
		return RouterMinDegree, nil
	default:
		return 0, fmt.Errorf("m2m: unknown scenario router %q", name)
	}
}

func buildScenarioReadings(sc *Scenario) ReadingGenerator {
	n := sc.Nodes
	switch sc.Readings {
	case "walk":
		return NewRandomWalkReadings(n, sc.ReadingsSeed, 20, 1)
	case "diurnal":
		return NewDiurnalReadings(n, sc.ReadingsSeed, 12, 20, 10, 0.5)
	case "pulse":
		return NewPulseReadings(n, sc.ReadingsSeed, 0.1, 30)
	default: // "const"
		return NewConstantReadings(n, 20)
	}
}

// scenarioBatteryCapacity prices one fault-free round of the scenario's
// plan p and scales the hottest node's burn by the headroom over the full
// horizon, so headroom < 1 makes relays brown out mid-run and headroom
// well above 1 keeps the ledger a pure accounting check. The result is
// written back into the scenario so its JSON repro pins the ledger.
func scenarioBatteryCapacity(sc *Scenario, net *Network, p *Plan) (float64, error) {
	probe := buildScenarioReadings(sc)
	res, err := Execute(p, net, probe.Next())
	if err != nil {
		return 0, err
	}
	maxJ := 0.0
	for _, j := range res.PerNodeJ {
		if j > maxJ {
			maxJ = j
		}
	}
	if maxJ == 0 {
		maxJ = net.Radio.UnicastJoules(16)
	}
	return sc.Battery.Headroom * maxJ * float64(sc.Rounds), nil
}
