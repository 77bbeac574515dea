package chaos

import (
	"reflect"
	"testing"
	"time"
)

func TestClockJumpAndFreeze(t *testing.T) {
	c := NewClock()
	before := c.Now()
	c.Jump(time.Hour)
	if d := c.Now().Sub(before); d < time.Hour {
		t.Fatalf("jump of 1h moved the clock only %v", d)
	}
	c.Freeze()
	a := c.Now()
	time.Sleep(20 * time.Millisecond)
	b := c.Now()
	if !a.Equal(b) {
		t.Fatalf("frozen clock advanced: %v -> %v", a, b)
	}
	c.Thaw()
	time.Sleep(5 * time.Millisecond)
	if !c.Now().After(b) {
		t.Fatal("thawed clock did not resume")
	}
	// Negative jumps are clamped: time never goes backwards.
	now := c.Now()
	c.Jump(-time.Hour)
	if c.Now().Before(now) {
		t.Fatal("negative jump moved the clock backwards")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not a pure function of the seed:\n%v\nvs\n%v", seed, a, b)
		}
	}
	if reflect.DeepEqual(Generate(1), Generate(2)) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateCorpusCoversAllPlanes(t *testing.T) {
	// The soak test runs seeds 1..K; the corpus those seeds generate
	// must collectively arm every plane or the soak's coverage claim is
	// hollow. 25 is the full (non -short) soak count.
	var net, disk, clock, kills, crashes, quiet int
	for seed := int64(1); seed <= 25; seed++ {
		s := Generate(seed)
		n, d, c := s.Planes()
		if n {
			net++
		}
		if d {
			disk++
		}
		if c {
			clock++
		}
		if s.KillWorkers > 0 {
			kills++
		}
		if s.CoordCrash {
			crashes++
		}
		if s.quiet() {
			quiet++
		}
	}
	if net == 0 || disk == 0 || clock == 0 || kills == 0 || crashes == 0 {
		t.Fatalf("seed corpus 1..25 misses a plane: net=%d disk=%d clock=%d kills=%d crashes=%d",
			net, disk, clock, kills, crashes)
	}
	t.Logf("corpus: net=%d disk=%d clock=%d kills=%d crashes=%d control=%d", net, disk, clock, kills, crashes, quiet)
}

// TestProfilesAndRegressionsWellFormed: every pinned regression
// schedule carries a unique name.
func TestProfilesAndRegressionsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Regressions() {
		if r.Name == "" {
			t.Fatal("regression schedule without a name")
		}
		if seen[r.Name] {
			t.Fatalf("duplicate regression name %q", r.Name)
		}
		seen[r.Name] = true
	}
	if len(seen) < 3 {
		t.Fatalf("expected at least 3 pinned regressions, have %d", len(seen))
	}
}

func TestDecideDeterministicAndProportional(t *testing.T) {
	fired := 0
	const trials = 2000
	for n := uint64(0); n < trials; n++ {
		if decide(9, 0, "k", n, 0.25) {
			fired++
		}
		if decide(9, 0, "k", n, 0.25) != decide(9, 0, "k", n, 0.25) {
			t.Fatal("decide is nondeterministic")
		}
	}
	// 25% ± generous slop.
	if fired < trials/8 || fired > trials/2 {
		t.Fatalf("decide(p=0.25) fired %d/%d — badly out of proportion", fired, trials)
	}
	if decide(1, 0, "k", 0, 0) {
		t.Fatal("p=0 fired")
	}
	if !decide(1, 0, "k", 0, 1) {
		t.Fatal("p=1 did not fire")
	}
}
