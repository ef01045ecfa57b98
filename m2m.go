// Package m2m implements many-to-many aggregation for wireless sensor
// networks, reproducing Silberstein & Yang, "Many-to-Many Aggregation for
// Sensor Networks" (ICDE 2007).
//
// A workload assigns each destination node an aggregation function over a
// set of source nodes (sources and destinations overlap arbitrarily). The
// planner minimizes radio energy by deciding, independently for every
// multicast edge, which values cross it raw (multicast-style, reusable by
// many destinations) and which cross as destination-specific partial
// aggregate records (in-network aggregation) — an exact weighted bipartite
// vertex cover per edge, assembled into a globally consistent plan
// (Theorem 1 of the paper).
//
// Typical use:
//
//	net := m2m.GreatDuckIsland()
//	specs := []m2m.Spec{{Dest: 5, Func: m2m.NewWeightedSum(weights)}}
//	inst, _ := net.NewInstance(specs, m2m.RouterReversePath)
//	p, _ := m2m.Optimize(inst)
//	res, _ := m2m.Execute(p, net, readings)
//	fmt.Println(res.Values[5], res.EnergyJ)
//
// The subsystems live in internal/ packages: topology, routing, the vertex
// cover solver, the aggregation framework, the planner, and the execution
// engine. This package is the stable facade over them.
package m2m

import (
	"fmt"
	"io"

	"m2m/internal/agg"
	"m2m/internal/graph"
	"m2m/internal/plan"
	"m2m/internal/radio"
	"m2m/internal/routing"
	"m2m/internal/sim"
	"m2m/internal/specfile"
	"m2m/internal/topology"
	"m2m/internal/workload"
)

// NodeID identifies a sensor node.
type NodeID = graph.NodeID

// Spec binds a destination node to its aggregation function.
type Spec = agg.Spec

// Func is an aggregation function (generalized algebraic aggregate).
type Func = agg.Func

// Record is a constant-size partial aggregate record.
type Record = agg.Record

// Instance is a resolved optimization input (network + workload + routes).
type Instance = plan.Instance

// Plan is a global many-to-many aggregation plan.
type Plan = plan.Plan

// Tables is the per-node runtime state of a plan (Section 3's four tables).
type Tables = plan.Tables

// UpdateStats quantifies an incremental re-optimization.
type UpdateStats = plan.UpdateStats

// RoundResult reports one executed round.
type RoundResult = sim.RoundResult

// FloodResult reports one flooded round.
type FloodResult = sim.FloodResult

// SuppressionRound reports one temporally suppressed round.
type SuppressionRound = sim.SuppressionRound

// Suppressor executes a plan in temporal-suppression mode.
type Suppressor = sim.Suppressor

// Policy selects an override heuristic for suppression.
type Policy = sim.Policy

// RadioModel is the per-byte energy model of the motes.
type RadioModel = radio.Model

// Battery is a per-node residual-energy ledger shared by the executors:
// they debit each node's actual radio spend and a node whose residual
// hits zero stops transmitting.
type Battery = sim.Battery

// NewBattery creates a ledger for n nodes, each starting with capacityJ
// joules of charge.
func NewBattery(n int, capacityJ float64) (*Battery, error) { return sim.NewBattery(n, capacityJ) }

// DefaultBatteryCapacityJ is the per-node capacity the CLI and
// experiments use when none is specified.
const DefaultBatteryCapacityJ = sim.DefaultBatteryCapacityJ

// Override policies (Section 3).
const (
	PolicyNone         = sim.PolicyNone
	PolicyConservative = sim.PolicyConservative
	PolicyMedium       = sim.PolicyMedium
	PolicyAggressive   = sim.PolicyAggressive
)

// Aggregation constructors re-exported from the framework.
var (
	NewWeightedSum     = agg.NewWeightedSum
	NewWeightedAverage = agg.NewWeightedAverage
	NewWeightedStdDev  = agg.NewWeightedStdDev
	NewMin             = agg.NewMin
	NewMax             = agg.NewMax
	NewRange           = agg.NewRange
	NewCountAbove      = agg.NewCountAbove
	NewQDigest         = agg.NewQDigest
	NewHyperLogLog     = agg.NewHyperLogLog
	NewTrimmedMean     = agg.NewTrimmedMean
)

// RouterKind selects the routing strategy for an instance.
type RouterKind int

// Available routers.
const (
	// RouterReversePath routes every pair along destination-rooted
	// shortest-path trees (the sensor-network standard). Both of the
	// paper's routing restrictions hold (see routing.Router), so Theorem 1
	// applies.
	RouterReversePath RouterKind = iota
	// RouterSharedTree routes inside one global spanning tree, satisfying
	// both of the paper's routing restrictions so Theorem 1 applies.
	RouterSharedTree
	// RouterSourceSPT is the paper's literal per-source shortest-path-tree
	// construction. Its smallest-ID tiebreak keeps the per-destination
	// suffix property the planner requires (NewInstance checks it for
	// every router, and no rejection has been observed), but it builds one
	// BFS tree per source and routes on one goroutine; RouterReversePath
	// is the faster default.
	RouterSourceSPT
	// RouterMinDegree routes inside one low-degree global spanning tree
	// (local-search degree reduction over the BFS tree). Both routing
	// restrictions hold as for RouterSharedTree; receiver fan-in — and
	// with it per-receiver contention — is bounded, at a path-stretch
	// cost that can deepen precedence chains.
	RouterMinDegree
)

// Network bundles node placement, radio connectivity, and the energy
// model.
type Network struct {
	Layout *topology.Layout
	Graph  *graph.Undirected
	Radio  radio.Model
}

// newNetwork bundles a layout with its connectivity graph at the default
// radio range under the default radio. The repaired layouts hand over
// the graph their repair proved connected.
func newNetwork(l *topology.Layout, g *graph.Undirected) *Network {
	return &Network{Layout: l, Graph: g, Radio: radio.DefaultModel()}
}

// GreatDuckIsland returns the paper's evaluation network: 68 nodes in a
// 106×203 m² area with 50 m radio range (synthetic coordinates; see
// DESIGN.md §4).
func GreatDuckIsland() *Network { return newNetwork(topology.GreatDuckIsland()) }

// RandomNetwork returns n uniformly placed nodes at Great-Duck-Island
// density, repaired to be connected.
func RandomNetwork(n int, seed int64) *Network { return newNetwork(topology.Scaled(n, seed)) }

// ClusteredNetwork returns n nodes grouped around burrow-like cluster
// centers at Great-Duck-Island density (the adversarial case for planning:
// clusters make dense per-edge cover problems), connected at 50 m range.
func ClusteredNetwork(n int, seed int64) *Network {
	return newNetwork(topology.ScaledClustered(n, seed))
}

// GridNetwork returns an nx × ny lattice with the given spacing in meters.
func GridNetwork(nx, ny int, spacing float64) *Network {
	l := topology.Grid(nx, ny, spacing)
	return newNetwork(l, l.ConnectivityGraph(radio.DefaultRangeMeters))
}

// Len returns the node count.
func (n *Network) Len() int { return n.Graph.Len() }

// NewInstance resolves routes for the workload under the chosen router.
func (n *Network) NewInstance(specs []Spec, kind RouterKind) (*Instance, error) {
	var router routing.Router
	switch kind {
	case RouterReversePath:
		router = routing.NewReversePath(n.Graph)
	case RouterSharedTree:
		st, err := routing.NewSharedTree(n.Graph)
		if err != nil {
			return nil, err
		}
		router = st
	case RouterSourceSPT:
		router = routing.NewSourceSPT(n.Graph)
	case RouterMinDegree:
		mt, err := routing.NewMinDegreeTree(n.Graph)
		if err != nil {
			return nil, err
		}
		router = mt
	default:
		return nil, fmt.Errorf("m2m: unknown router kind %d", kind)
	}
	return plan.NewInstance(n.Graph, router, specs)
}

// WorkloadConfig parameterizes random workload generation (the paper's
// evaluation workloads).
type WorkloadConfig = workload.Config

// GenerateWorkload draws a random workload over the network (see
// workload.Config for the dispersion semantics).
func (n *Network) GenerateWorkload(cfg WorkloadConfig) ([]Spec, error) {
	return workload.Generate(n.Graph, cfg)
}

// ParseWorkload reads a workload from the textual format documented in
// internal/specfile: `<dest> = <kind>(<src>[:<weight>], ...) [@ <thr>]`.
func ParseWorkload(r io.Reader) ([]Spec, error) { return specfile.Parse(r) }

// FormatWorkload writes specs in the same textual format ParseWorkload
// reads.
func FormatWorkload(w io.Writer, specs []Spec) error { return specfile.Format(w, specs) }

// Optimize computes the paper's optimal plan (per-edge vertex covers with
// the canonical tiebreak, assembled per Theorem 1).
func Optimize(inst *Instance) (*Plan, error) { return plan.Optimize(inst) }

// Multicast returns the pure-multicast baseline plan.
func Multicast(inst *Instance) *Plan { return plan.Multicast(inst) }

// AggregateASAP returns the pure in-network aggregation baseline plan.
func AggregateASAP(inst *Instance) *Plan { return plan.AggregateASAP(inst) }

// Reoptimize incrementally replans after a workload change, reusing every
// unchanged single-edge solution (Corollary 1).
func Reoptimize(old *Plan, inst *Instance) (*Plan, *UpdateStats, error) {
	return plan.Reoptimize(old, inst)
}

// Execute runs one round of p on net with the given readings, returning
// the destinations' exact aggregates and the round's communication cost.
func Execute(p *Plan, net *Network, readings map[NodeID]float64) (*RoundResult, error) {
	eng, err := sim.NewEngine(p, net.Radio, sim.Options{MergeMessages: true})
	if err != nil {
		return nil, err
	}
	return eng.Run(readings)
}

// ExecuteLossy runs one round of p on net under the fault schedule:
// messages actually drop, stop-and-wait retransmits at most maxRetries
// times per message, and the result reports exact, partial, and starved
// destinations. With a nil schedule the round is byte-identical to
// Execute.
func ExecuteLossy(p *Plan, net *Network, round int, readings map[NodeID]float64, faults FaultSchedule, maxRetries int) (*LossyResult, error) {
	eng, err := sim.NewEngine(p, net.Radio, sim.Options{MergeMessages: true})
	if err != nil {
		return nil, err
	}
	return eng.RunLossy(round, readings, faults, maxRetries)
}

// ExecuteAsync runs one event-driven round of p on net: every
// transmission takes a per-link latency draw, lost ones are retransmitted
// under an adaptive per-link RTO, duplicate deliveries are absorbed by
// the (epoch, seq) dedup window, and destinations close at cfg.DeadlineMS
// (if set) with their best partial aggregate. With a nil schedule the
// round is byte-identical to Execute.
func ExecuteAsync(p *Plan, net *Network, round int, readings map[NodeID]float64, faults FaultSchedule, cfg AsyncConfig) (*AsyncResult, error) {
	eng, err := sim.NewEngine(p, net.Radio, sim.Options{MergeMessages: true})
	if err != nil {
		return nil, err
	}
	return eng.RunAsync(round, readings, faults, cfg)
}

// Flood runs the paper's flood baseline for one round.
func Flood(net *Network, specs []Spec, readings map[NodeID]float64) (*FloodResult, error) {
	return sim.Flood(net.Graph, specs, net.Radio, readings)
}

// OutOfNetworkResult reports one round of base-station-mediated control.
type OutOfNetworkResult = sim.OutOfNetworkResult

// OutOfNetwork runs the introduction's strawman for one round: sources
// report to a base station, which computes and returns all control
// signals.
func OutOfNetwork(net *Network, specs []Spec, base NodeID, readings map[NodeID]float64) (*OutOfNetworkResult, error) {
	return sim.OutOfNetwork(net.Graph, specs, net.Radio, base, readings)
}

// NewSuppressor prepares temporal-suppression execution of p under the
// given override policy. All aggregation functions must be linear
// (weighted sums).
func NewSuppressor(p *Plan, net *Network, policy Policy) (*Suppressor, error) {
	return sim.NewSuppressor(p, net.Radio, policy)
}
