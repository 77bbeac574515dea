package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Schedule is one complete fault plan for a soak run: which rules are
// armed on each plane plus the lifecycle events (worker kills,
// coordinator crash/resume, clock abuse). A Schedule is a pure function
// of its seed via Generate, so `scripts/chaos_soak.sh -seed N` replays
// the exact adversary a failure report names.
type Schedule struct {
	Seed int64
	// Name tags pinned regression schedules; generated ones use the
	// seed.
	Name string

	Net  []NetRule
	Disk []FSRule

	// ClockJumps is how many forward clock jumps (each ≥ the lease TTL:
	// an expiry storm) the soak stages while the run is in flight.
	ClockJumps int
	// ClockFreeze stages one freeze/thaw cycle longer than the TTL —
	// the renew-after-expiry race.
	ClockFreeze bool
	// KillWorkers is how many workers get hard-stopped mid-run (their
	// goroutines abandoned mid-cell, leases left to expire).
	KillWorkers int
	// CoordCrash crashes the coordinator mid-run — server stopped,
	// journal torn at the disk plane's discretion — and resumes a new
	// incarnation from the journal on the same address.
	CoordCrash bool
	// HeartbeatLag stretches worker heartbeats past the lease TTL so
	// every lease must survive on lates and re-issues.
	HeartbeatLag bool
}

// String renders a compact one-line description for logs and failure
// reports.
func (s Schedule) String() string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "%s(seed=%d)", s.Name, s.Seed)
	} else {
		fmt.Fprintf(&b, "seed=%d", s.Seed)
	}
	for _, r := range s.Net {
		fmt.Fprintf(&b, " net:%s@%s p=%.2f", r.Kind, r.Route, r.Prob)
	}
	for _, r := range s.Disk {
		fmt.Fprintf(&b, " disk:%s p=%.2f", r.Kind, r.Prob)
	}
	if s.ClockJumps > 0 {
		fmt.Fprintf(&b, " clock:jumps=%d", s.ClockJumps)
	}
	if s.ClockFreeze {
		b.WriteString(" clock:freeze")
	}
	if s.KillWorkers > 0 {
		fmt.Fprintf(&b, " kill=%d", s.KillWorkers)
	}
	if s.CoordCrash {
		b.WriteString(" coord-crash")
	}
	if s.HeartbeatLag {
		b.WriteString(" hb-lag")
	}
	return b.String()
}

// Planes reports which of the three fault planes the schedule arms —
// the soak test asserts its schedule corpus covers all of them.
func (s Schedule) Planes() (network, disk, clock bool) {
	network = len(s.Net) > 0
	disk = len(s.Disk) > 0 || s.CoordCrash
	clock = s.ClockJumps > 0 || s.ClockFreeze || s.HeartbeatLag
	return
}

// Routes the generator draws fault targets from. /v1/lease and
// /v1/result are where redelivery and loss actually change accounting;
// /v1/renew faults force lease-expiry recovery.
var netRoutes = []string{"/v1/lease", "/v1/renew", "/v1/result", ""}

// Generate derives a schedule deterministically from seed. The
// distribution is tuned so most schedules arm 1–3 faults across
// planes at probabilities the retry budgets can absorb: the point is to
// search interleavings of recoverable faults, not to prove that
// unbounded loss loses (rules carry MaxFires caps so a finite retry
// budget — 8 per RPC — is never exhausted by an unlucky stream alone).
func Generate(seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed}

	// Network plane: 0–3 rules.
	nNet := rng.Intn(4)
	for i := 0; i < nNet; i++ {
		kind := []string{NetDrop, NetDelay, NetDup, NetReset, NetTruncate, NetForge}[rng.Intn(6)]
		r := NetRule{
			Kind:     kind,
			Route:    netRoutes[rng.Intn(len(netRoutes))],
			Prob:     0.05 + rng.Float64()*0.20, // 5–25%
			MaxFires: 3 + rng.Intn(10),
		}
		if kind == NetDelay {
			r.MinDelay = time.Duration(5+rng.Intn(20)) * time.Millisecond
			r.MaxDelay = r.MinDelay + time.Duration(10+rng.Intn(100))*time.Millisecond
		}
		if kind == NetForge {
			r.ForgeStatus = []int{500, 502, 503, 429}[rng.Intn(4)]
			if r.ForgeStatus == 429 && rng.Intn(2) == 0 {
				// Pathological Retry-After: the client must cap it.
				r.RetryAfter = "100000"
			}
		}
		s.Net = append(s.Net, r)
	}

	// Disk plane: 0–2 rules against the journal.
	nDisk := rng.Intn(3)
	for i := 0; i < nDisk; i++ {
		kind := []string{FaultShortWrite, FaultENOSPC, FaultSyncFail, FaultSyncLie, FaultTornWrite}[rng.Intn(5)]
		s.Disk = append(s.Disk, FSRule{
			Kind:     kind,
			PathGlob: "*.jsonl",
			Prob:     0.05 + rng.Float64()*0.15, // 5–20%
			MaxFires: 1 + rng.Intn(3),
			CutAt:    -1,
		})
	}

	// Clock plane.
	if rng.Intn(3) == 0 {
		s.ClockJumps = 1 + rng.Intn(2)
	}
	s.ClockFreeze = rng.Intn(4) == 0
	s.HeartbeatLag = rng.Intn(4) == 0

	// Lifecycle.
	s.KillWorkers = rng.Intn(2)
	s.CoordCrash = rng.Intn(3) == 0

	// A schedule that armed nothing is a control run — keep it; the
	// soak's invariants must hold there too, and a fault-free pass
	// through the harness itself is a useful canary.
	return s
}

// Regressions returns the pinned schedules that exposed real bugs
// during this harness's development. Each is preserved verbatim; the
// soak test runs them by name so the fixes cannot silently regress.
func Regressions() []Schedule {
	return []Schedule{
		{
			// A forged 429 carrying Retry-After: 100000 parked the old
			// client for the full server-supplied delay — ~27 hours —
			// because the header was honored uncapped. Fixed by clamping
			// server delays to the backoff policy max.
			Name: "retry-after-storm",
			Seed: 4291,
			Net: []NetRule{
				{Kind: NetForge, Route: "/v1/lease", Prob: 0.5, MaxFires: 3,
					ForgeStatus: 429, RetryAfter: "100000"},
			},
		},
		{
			// A renew delayed long enough to straddle cell completion
			// delivered ErrLeaseGone after the result was already
			// computed; the old worker discarded the finished result
			// instead of reporting it late, forcing a full re-run of the
			// cell on another worker.
			Name: "late-lease-loss",
			Seed: 7001,
			Net: []NetRule{
				{Kind: NetDelay, Route: "/v1/renew", Prob: 0.6, MaxFires: 6,
					MinDelay: 150 * time.Millisecond, MaxDelay: 400 * time.Millisecond},
			},
			HeartbeatLag: true,
			ClockJumps:   1,
		},
		{
			// A duplicated /v1/result delivery (retransmit racing the
			// ACK) made Σ cells_done come up short of rows + duplicates:
			// the coordinator counted a duplicate no worker execution
			// backed. The balance invariant had to learn about transport
			// redelivery — bounded by the transport's delivery books.
			Name: "result-redelivery",
			Seed: 8181,
			Net: []NetRule{
				{Kind: NetDup, Route: "/v1/result", Prob: 0.5, MaxFires: 4},
			},
		},
		{
			// Sync lied, then the coordinator crashed: the journal's tail
			// record was torn mid-bytes despite every Record fsyncing.
			// Resume must truncate the tear and re-run exactly the torn
			// cell — and the merge must still come out byte-identical.
			Name: "sync-lie-crash",
			Seed: 9119,
			Disk: []FSRule{
				{Kind: FaultSyncLie, PathGlob: "*.jsonl", Prob: 0.5, MaxFires: 3, CutAt: -1},
			},
			CoordCrash: true,
		},
	}
}
