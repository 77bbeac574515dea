// Chaos soak: the distributed sweep driven through seeded fault
// schedules spanning all three planes (network, disk, clock), with the
// full invariant suite checked after every run. Lives in package
// dist_test because internal/chaos imports dist.
package dist_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/chaos"
	"tevot/internal/dist"
	"tevot/internal/experiments"
	"tevot/internal/runner"
)

// soakSpec mirrors the cluster tests' small spec: 1 FU x 3 datasets x
// 2 corners = 6 cells, each sub-second. Small on purpose — the soak's
// value is in schedule count, not sweep size.
func soakSpec() dist.Spec {
	return dist.Spec{
		Cycles:    400,
		FUs:       []string{"INT_ADD"},
		Corners:   []cells.Corner{{V: 0.81, T: 0}, {V: 1.00, T: 100}},
		Images:    2,
		ImageSize: 16,
		Seed:      1,
	}
}

// The fault-free reference bytes and the shared Lab are built once per
// test binary; every schedule's merged output must byte-match them.
var (
	soakOnce sync.Once
	soakLab  *experiments.Lab
	soakRef  []byte
	soakErr  error
)

func soakFixtures(t *testing.T) (*experiments.Lab, []byte) {
	t.Helper()
	soakOnce.Do(func() {
		spec := soakSpec()
		soakLab, soakErr = spec.NewLab()
		if soakErr != nil {
			return
		}
		dir, err := os.MkdirTemp("", "chaos-ref-*")
		if err != nil {
			soakErr = err
			return
		}
		defer os.RemoveAll(dir)
		ref := filepath.Join(dir, "ref.jsonl")
		_, rep, err := dist.SingleProcessMerged(context.Background(), spec, experiments.Memo{}, runner.Config{}, ref)
		if err == nil {
			err = rep.Err()
		}
		if soakErr = err; soakErr != nil {
			return
		}
		soakRef, soakErr = os.ReadFile(ref)
	})
	if soakErr != nil {
		t.Fatalf("soak fixtures: %v", soakErr)
	}
	return soakLab, soakRef
}

func runSoak(t *testing.T, sched chaos.Schedule) {
	t.Helper()
	lab, ref := soakFixtures(t)
	res, err := chaos.Soak(context.Background(), chaos.SoakConfig{
		Spec:      soakSpec(),
		Lab:       lab,
		Reference: ref,
		Logf:      t.Logf,
	}, sched)
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	t.Logf("%s", res)
}

// TestChaosSoak runs generated schedules seeds 1..25 (1..5 under
// -short) — a corpus TestGenerateCorpusCoversAllPlanes proves spans
// every fault plane plus worker kills and coordinator crashes. Set
// TEVOT_CHAOS_SEED to replay a single schedule verbatim (the same knob
// scripts/chaos_soak.sh -seed uses).
func TestChaosSoak(t *testing.T) {
	if s := os.Getenv("TEVOT_CHAOS_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("TEVOT_CHAOS_SEED=%q: %v", s, err)
		}
		sched := chaos.Generate(seed)
		t.Run(fmt.Sprintf("replay-seed-%d", seed), func(t *testing.T) { runSoak(t, sched) })
		return
	}
	n := int64(25)
	if testing.Short() {
		n = 5
	}
	for seed := int64(1); seed <= n; seed++ {
		sched := chaos.Generate(seed)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { runSoak(t, sched) })
	}
}

// TestChaosRegressions replays the pinned schedules — each one exposed
// a real bug during development (see chaos.Regressions for what each
// pins). They run in -short mode too: regressions are the cheapest
// insurance in the suite.
func TestChaosRegressions(t *testing.T) {
	for _, sched := range chaos.Regressions() {
		sched := sched
		t.Run(sched.Name, func(t *testing.T) { runSoak(t, sched) })
	}
}
