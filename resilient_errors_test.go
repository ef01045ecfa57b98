package m2m

import (
	"math"
	"strings"
	"testing"

	"m2m/internal/agg"
)

// TestResilientConfigValidate walks every rejection in
// ResilientConfig.Validate and checks NewResilientSession refuses the
// same configs — validation is wired into construction, not advisory.
func TestResilientConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  ResilientConfig
		want string
	}{
		{"negative retries", ResilientConfig{MaxRetries: -1}, "retry budget"},
		{"negative miss threshold", ResilientConfig{MissThreshold: -2}, "miss threshold"},
		{"negative detour budget", ResilientConfig{DetourBudget: -1}, "detour budget"},
		{"negative evacuation horizon", ResilientConfig{EvacuateHorizonRounds: -3}, "evacuation horizon"},
		{"horizon without battery", ResilientConfig{EvacuateHorizonRounds: 2}, "battery ledger"},
		{"NaN evacuate threshold", ResilientConfig{EvacuateThreshold: math.NaN()}, "evacuation threshold"},
		{"evacuate threshold above 1", ResilientConfig{EvacuateThreshold: 1.5}, "outside [0,1]"},
		{"NaN TDMA threshold", ResilientConfig{TDMASwitchThreshold: math.NaN()}, "TDMA"},
		{"TDMA threshold above 1", ResilientConfig{TDMASwitchThreshold: 1.5}, "TDMA"},
	}
	net, specs, gen := chaosFixture(t, 5)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
			if _, serr := NewResilientSession(net, specs, RouterReversePath, gen, nil, tc.cfg); serr == nil {
				t.Fatal("NewResilientSession accepted a config Validate rejects")
			}
		})
	}
}

// lineSession builds a 1×n line (30 m spacing under the 50 m default
// radio range, so only consecutive nodes hear each other) — the minimal
// topology where a single removal partitions the survivors.
func lineSession(t *testing.T, n int, specs []Spec, inj *FaultInjector, cfg ResilientConfig) *ResilientSession {
	t.Helper()
	net := GridNetwork(n, 1, 30)
	gen := make(fixedGen, n)
	for i := 0; i < n; i++ {
		gen[NodeID(i)] = float64(i) + 0.5
	}
	s, err := NewResilientSession(net, specs, RouterReversePath, gen, inj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionErrorAllNodesDead crashes every node at once: with nothing
// left to condemn around, the session must surface an error within a few
// condemnation cycles instead of wedging on an empty network.
func TestSessionErrorAllNodesDead(t *testing.T) {
	const n = 4
	inj := NewFaultInjector(1)
	for i := 0; i < n; i++ {
		inj.Crash(NodeID(i), 1)
	}
	specs := []Spec{{Dest: 0, Func: agg.NewWeightedSum(map[NodeID]float64{2: 1, 3: 1})}}
	s := lineSession(t, n, specs, inj, ResilientConfig{MissThreshold: 1})
	var got error
	for r := 0; r < 25 && got == nil; r++ {
		_, got = s.Step()
	}
	if got == nil {
		t.Fatal("session never surfaced an error with every node crashed")
	}
	t.Logf("surfaced: %v", got)
}

// TestSessionErrorRecoveryDisconnects crashes the middle relay of a
// line: the crash is silent (condemnation path, not quarantine), and
// condemning it splits the survivors, so the incremental replan inside
// recover must fail loudly mid-recovery rather than disseminate a plan
// that cannot route the surviving source.
func TestSessionErrorRecoveryDisconnects(t *testing.T) {
	inj := NewFaultInjector(2)
	inj.Crash(NodeID(2), 2)
	specs := []Spec{{Dest: 0, Func: agg.NewWeightedSum(map[NodeID]float64{2: 1, 4: 1})}}
	s := lineSession(t, 5, specs, inj, ResilientConfig{MissThreshold: 2})
	var got error
	for r := 0; r < 25 && got == nil; r++ {
		_, got = s.Step()
	}
	if got == nil {
		t.Fatal("condemning the partition-point relay did not surface a replan error")
	}
	t.Logf("surfaced: %v", got)
}

// TestSessionErrorRejoinIsolated revives a condemned node whose only
// neighbor is still dead: RestoreNode has no live link to reattach, so
// the rejoin replan cannot route the re-admitted source and the error
// must surface from Step rather than silently re-burying the node.
func TestSessionErrorRejoinIsolated(t *testing.T) {
	// Stagger the crashes so node 3 is condemned (and cleanly pruned)
	// before its relay 2 dies; both recoveries then succeed and the only
	// remaining error path is the rejoin itself.
	inj := NewFaultInjector(3)
	inj.Crash(NodeID(3), 1)
	inj.Crash(NodeID(2), 5)
	inj.Revive(NodeID(3), 12)
	specs := []Spec{{Dest: 0, Func: agg.NewWeightedSum(map[NodeID]float64{1: 1, 2: 1, 3: 1})}}
	s := lineSession(t, 4, specs, inj, ResilientConfig{MissThreshold: 2})
	var got error
	rounds := 0
	for r := 0; r < 20 && got == nil; r++ {
		rounds++
		_, got = s.Step()
	}
	if got == nil {
		t.Fatal("rejoining an isolated node did not surface an error")
	}
	if rounds < 12 {
		t.Fatalf("error surfaced at round %d, before the revive at 12: %v", rounds, got)
	}
	t.Logf("surfaced at round %d: %v", rounds, got)
}
