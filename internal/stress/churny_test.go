package stress

import (
	"context"
	"testing"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/fleet"
	"hyrec/internal/server"
)

// TestChurnyWorkersConverge is the acceptance scenario of the
// asynchronous scheduler, promoted to the deterministic fleet
// simulator: a seed-planned browser fleet that silently abandons ≥ 50%
// of its leased jobs — and additionally loses 40% of its sessions to a
// mass disconnect the moment half the users have converged — must
// still leave every active user's KNN row refreshed within the
// lease-retry budget, with the fallback pool absorbing the leases that
// burn out. Run under -race in CI.
func TestChurnyWorkersConverge(t *testing.T) {
	cfg := server.DefaultConfig()
	cfg.K = 4
	cfg.R = 4
	cfg.LeaseTTL = 30 * time.Millisecond
	cfg.LeaseRetries = 1
	cfg.FallbackWorkers = 4
	e := server.NewEngine(cfg)
	defer e.Close()

	const users = 50
	ctx := context.Background()
	for u := core.UserID(1); u <= users; u++ {
		for j := 0; j < 4; j++ {
			if err := e.Rate(ctx, u, core.ItemID((int(u)+j)%12), true); err != nil {
				t.Fatal(err)
			}
		}
	}

	const abandonProb = 0.6 // ≥ 0.5 per the acceptance criterion
	plan := fleet.NewPlan(fleet.Config{
		Seed:        7,
		Sessions:    64,
		ChurnyFrac:  1, // the whole fleet churns, all silently
		SilentFrac:  1,
		AbandonProb: abandonProb,
		Disconnects: []fleet.Disconnect{
			{Frac: 0.4, AtConvergedFrac: 0.5},
		},
		MeanTabLifetime: 30 * time.Second,
		JoinSpread:      time.Second,
	})
	target, err := fleet.NewServiceTarget(e)
	if err != nil {
		t.Fatal(err)
	}
	report, err := fleet.Run(ctx, plan, fleet.Options{
		Target:    target,
		Sched:     e.Scheduler(),
		Users:     users,
		TimeScale: 0.01,
		Budget:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", report)
	if report.Dispatched == 0 {
		t.Fatal("fleet never leased a job")
	}
	if report.SilentAbandons == 0 {
		t.Fatal("churn model never abandoned — the scenario is vacuous")
	}
	if report.Dropped == 0 {
		t.Fatalf("mass disconnect at 50%% convergence never fired: %s", report)
	}
	if !report.Converged {
		t.Fatalf("fleet failed to converge: %s (stats %+v)", report, e.Scheduler().Stats())
	}

	// Every user's row was refreshed at least once despite the churn.
	s := e.Scheduler()
	if un := s.Unrefreshed(); len(un) != 0 {
		t.Fatalf("%d users never refreshed under churn: %v (stats %+v)", len(un), un, s.Stats())
	}
	for u := core.UserID(1); u <= users; u++ {
		hood, err := e.Neighbors(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if len(hood) == 0 {
			t.Fatalf("user %d has an empty KNN row after convergence", u)
		}
	}

	st := s.Stats()
	if st.Expired == 0 {
		t.Fatalf("no lease ever expired under %.0f%% silent abandon: %+v", abandonProb*100, st)
	}
	if st.FallbackRuns == 0 {
		t.Fatalf("fallback pool absorbed nothing: %+v", st)
	}
}
