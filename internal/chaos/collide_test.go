package chaos

import (
	"math"
	"testing"

	"m2m/internal/routing"
)

func TestCollisionDefaults(t *testing.T) {
	in := New(7)
	if in.CollisionsEnabled() {
		t.Fatal("zero injector has collisions enabled")
	}
	if p := in.CaptureProb(); p != 0 {
		t.Fatalf("zero injector capture prob %v", p)
	}
	e := routing.Edge{From: 1, To: 2}
	if in.CaptureWins(0, e, 0) {
		t.Fatal("capture with no collision config")
	}
}

func TestCaptureProbClampsLikeLinkLoss(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0.3, 0.3},
		{math.NaN(), 0},
		{-0.5, 0},
		{1.0, math.Nextafter(1, 0)},
		{2.5, math.Nextafter(1, 0)},
	}
	for _, c := range cases {
		got := New(1).WithCollisions(c.in).CaptureProb()
		if got != c.want && !(math.IsNaN(c.in) && got == 0) {
			t.Errorf("CaptureProb(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCollisionValidate(t *testing.T) {
	if err := New(1).WithCollisions(0.1).Validate(); err != nil {
		t.Fatalf("valid collision config rejected: %v", err)
	}
	if err := New(1).WithCollisions(-0.1).Validate(); err == nil {
		t.Fatal("negative capture probability accepted")
	}
	if err := New(1).WithCollisions(1.0).Validate(); err == nil {
		t.Fatal("capture probability 1 accepted")
	}
	if err := New(1).WithCollisions(math.NaN()).Validate(); err == nil {
		t.Fatal("NaN capture probability accepted")
	}
}

func TestCaptureDrawsDeterministicAndDecorrelated(t *testing.T) {
	a := New(42).WithCollisions(0.5)
	b := New(42).WithCollisions(0.5)
	e := routing.Edge{From: 1, To: 2}
	wins := 0
	for r := 0; r < 200; r++ {
		for att := 0; att < 3; att++ {
			if a.CaptureWins(r, e, att) != b.CaptureWins(r, e, att) {
				t.Fatalf("same seed diverged at round %d attempt %d", r, att)
			}
			if a.CaptureWins(r, e, att) {
				wins++
			}
		}
	}
	if wins < 200 || wins > 400 { // ~300 expected of 600 at p=0.5
		t.Fatalf("capture rate wildly off: %d/600 at p=0.5", wins)
	}
	// The capture draw must not mirror the delivery draw: an injector with
	// loss 0.5 and capture 0.5 should disagree between the two somewhere.
	c := New(42).WithUniformLoss(0.5).WithCollisions(0.5)
	agree := true
	for r := 0; r < 50 && agree; r++ {
		if c.Deliver(r, e, 0) == c.CaptureWins(r, e, 0) {
			continue
		}
		agree = false
	}
	if agree {
		t.Fatal("capture draw correlated with delivery draw")
	}
}

func TestBackoffSlots(t *testing.T) {
	in := New(9).WithCollisions(0)
	e := routing.Edge{From: 0, To: 1}
	if s := in.BackoffSlots(0, e, 0, 0); s != 0 {
		t.Fatalf("window 0 backed off %d", s)
	}
	if s := in.BackoffSlots(0, e, 0, 1); s != 0 {
		t.Fatalf("window 1 backed off %d", s)
	}
	seen := make(map[int]bool)
	for att := 0; att < 100; att++ {
		s := in.BackoffSlots(3, e, att, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("backoff %d outside [0,8)", s)
		}
		seen[s] = true
		if s2 := New(9).WithCollisions(0).BackoffSlots(3, e, att, 8); s2 != s {
			t.Fatalf("backoff not deterministic: %d vs %d", s, s2)
		}
	}
	if len(seen) < 4 {
		t.Fatalf("backoff draws hit only %d of 8 slots in 100 tries", len(seen))
	}
}
