package serve

import (
	"m2m"
)

// newSimulator wires the per-session parts (readings, faults, battery)
// around a cached plan entry. Everything session-private is freshly
// constructed; everything shared (network, instance, plan) is adopted
// by reference and never mutated by the ResilientSession.
func newSimulator(entry *planEntry, req *CreateSessionRequest) (*m2m.ResilientSession, error) {
	n := entry.net.Len()
	gen := req.Readings.build(n)
	faults, err := req.Faults.build()
	if err != nil {
		return nil, err
	}
	rcfg := m2m.ResilientConfig{MaxRetries: req.MaxRetries}
	if req.Battery != nil {
		bat, err := m2m.NewBattery(n, req.Battery.CapacityJ)
		if err != nil {
			return nil, err
		}
		rcfg.Battery = bat
		rcfg.EvacuateHorizonRounds = req.Battery.EvacHorizonRounds
	}
	return m2m.NewResilientSessionWithPlan(
		entry.net, entry.sessionSpecs(), entry.kind, entry.inst, entry.plan,
		gen, faults, rcfg)
}

// BuildSession materializes a validated create request into a standalone
// ResilientSession, paying for its own optimization — no cache, no
// server. The load harness uses it to replay a served session locally and
// compare value hashes round for round.
func BuildSession(req *CreateSessionRequest) (*m2m.ResilientSession, error) {
	entry, err := buildEntry(&req.Topology, &req.Workload, req.Router)
	if err != nil {
		return nil, err
	}
	return newSimulator(entry, req)
}
