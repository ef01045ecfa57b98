package chaos

import (
	"math"
	"strings"
	"testing"

	"m2m/internal/graph"
	"m2m/internal/routing"
)

func TestByzModeRoundTrip(t *testing.T) {
	for _, m := range []ByzMode{ByzStuck, ByzOffset, ByzAmplify, ByzSpray} {
		got, err := ParseByzMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseByzMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseByzMode("evil"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestCorruptReadingModes(t *testing.T) {
	in := New(7).
		WithByzantine(1, ByzStuck, 99, 0, Forever).
		WithByzantine(2, ByzOffset, 2, 5, 10).
		WithByzantine(3, ByzAmplify, -1, 0, Forever).
		WithByzantine(4, ByzSpray, 1000, 0, Forever)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := in.CorruptReading(3, 1, 42); got != 99 {
		t.Errorf("stuck: %g", got)
	}
	// Offset drifts: round 5 is the first window round (+2), round 9 the
	// fifth (+10).
	if got := in.CorruptReading(5, 2, 10); got != 12 {
		t.Errorf("offset round 5: %g", got)
	}
	if got := in.CorruptReading(9, 2, 10); got != 20 {
		t.Errorf("offset round 9: %g", got)
	}
	if got := in.CorruptReading(3, 3, 42); got != -42 {
		t.Errorf("amplify: %g", got)
	}
	s := in.CorruptReading(0, 4, 0)
	if s < -1000 || s >= 1000 {
		t.Errorf("spray out of range: %g", s)
	}
	if again := in.CorruptReading(0, 4, 123); again != s {
		t.Errorf("spray not a pure function of (seed, round, node): %g vs %g", again, s)
	}
	if in.CorruptReading(1, 4, 0) == s {
		t.Error("spray identical across rounds")
	}
	// Honest nodes and out-of-window rounds pass through.
	if got := in.CorruptReading(3, 9, 1.5); got != 1.5 {
		t.Errorf("honest node corrupted: %g", got)
	}
	if got := in.CorruptReading(4, 2, 10); got != 10 {
		t.Errorf("round before window corrupted: %g", got)
	}
	if got := in.CorruptReading(15, 2, 10); got != 10 {
		t.Errorf("round after window corrupted: %g", got)
	}
}

func TestByzantineActiveAndNodes(t *testing.T) {
	in := New(1).
		WithByzantine(5, ByzStuck, 0, 10, 5).
		WithByzantine(5, ByzAmplify, 2, 30, 5).
		WithByzantine(8, ByzSpray, 1, 0, Forever)
	for r, want := range map[int]bool{9: false, 10: true, 14: true, 15: false, 30: true, 35: false} {
		if got := in.CorruptReading(r, 5, 7) != 7; got != want {
			t.Errorf("round %d: node 5 corrupting = %v, want %v", r, got, want)
		}
	}
	if in.CorruptReading(1<<20, 8, 7) == 7 {
		t.Error("Forever window expired")
	}
	if New(1).CorruptReading(10, 5, 7) != 7 {
		t.Error("empty injector corrupts a reading")
	}
}

func TestByzantineNegativeDurationClamped(t *testing.T) {
	// The LinkLoss clamp analogue: a nonsensical negative duration
	// injects nothing rather than failing the schedule.
	in := New(1).WithByzantine(2, ByzStuck, 99, 5, -3)
	if err := in.Validate(); err != nil {
		t.Fatalf("negative duration should validate as empty: %v", err)
	}
	for r := 0; r < 10; r++ {
		if got := in.CorruptReading(r, 2, 7); got != 7 {
			t.Errorf("round %d: clamped window corrupted reading to %g", r, got)
		}
	}
}

func TestByzantineValidateOverlaps(t *testing.T) {
	cases := []struct {
		name string
		in   *Injector
		ok   bool
	}{
		{"crash overlap", New(1).Crash(3, 10).WithByzantine(3, ByzStuck, 0, 5, 10), false},
		{"crash after window", New(1).Crash(3, 20).WithByzantine(3, ByzStuck, 0, 5, 10), true},
		{"window inside revive gap ok", New(1).Crash(3, 5).Revive(3, 10).WithByzantine(3, ByzStuck, 0, 10, 5), true},
		{"window inside dead gap", New(1).Crash(3, 5).Revive(3, 20).WithByzantine(3, ByzStuck, 0, 10, 5), false},
		{"forever window before crash", New(1).Crash(3, 50).WithByzantine(3, ByzStuck, 0, 0, Forever), false},
		{"depletion overlap", New(1).Deplete(3, 10).WithByzantine(3, ByzStuck, 0, 5, 10), false},
		{"window ends at depletion", New(1).Deplete(3, 10).WithByzantine(3, ByzStuck, 0, 5, 5), true},
		{"other node dead", New(1).Crash(4, 0).WithByzantine(3, ByzStuck, 0, 0, Forever), true},
		{"negative start", New(1).WithByzantine(3, ByzStuck, 0, -1, 5), false},
		{"nan param", New(1).WithByzantine(3, ByzStuck, math.NaN(), 0, 5), false},
		{"inf param", New(1).WithByzantine(3, ByzAmplify, math.Inf(1), 0, 5), false},
		{"clamped window over crash ok", New(1).Crash(3, 0).WithByzantine(3, ByzStuck, 0, 5, -1), true},
	}
	for _, tc := range cases {
		err := tc.in.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: schedule accepted", tc.name)
		}
		if !tc.ok && err != nil && !strings.Contains(err.Error(), "byzantine") {
			t.Errorf("%s: error does not name the byzantine window: %v", tc.name, err)
		}
	}
}

func TestByzantineComposesWithOtherFaults(t *testing.T) {
	// A node can lie before it crashes; delivery draws are untouched by
	// the byzantine schedule.
	in := New(9).
		WithUniformLoss(0.2).
		Crash(3, 50).
		WithByzantine(3, ByzStuck, 77, 0, 50)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	plain := New(9).WithUniformLoss(0.2)
	e := routing.Edge{From: 1, To: 2}
	for r := 0; r < 40; r++ {
		if in.Deliver(r, e, 0) != plain.Deliver(r, e, 0) {
			t.Fatalf("round %d: byzantine schedule perturbed the delivery draw", r)
		}
	}
	if got := in.CorruptReading(49, 3, 0); got != 77 {
		t.Errorf("pre-crash corruption missing: %g", got)
	}
	if !in.NodeDead(50, graph.NodeID(3)) {
		t.Error("crash schedule lost")
	}
}
