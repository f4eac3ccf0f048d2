package server

import (
	"testing"

	"hyrec/internal/core"
)

func populatedEngine(t *testing.T, users int) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DisableAnonymizer = true
	e := NewEngine(cfg)
	for u := 1; u <= users; u++ {
		e.Rate(tctx, core.UserID(u), core.ItemID(u%7), true)
	}
	return e
}

func TestRandomOnlySamplerBudgetAndExclusion(t *testing.T) {
	e := populatedEngine(t, 300)
	s := RandomOnlySampler{Engine: e}
	const k = 5
	got := s.Sample(e.pinView(), 7, k)
	if len(got) == 0 || len(got) > core.MaxCandidateSetSize(k) {
		t.Fatalf("sample size %d outside (0, %d]", len(got), core.MaxCandidateSetSize(k))
	}
	seen := map[core.UserID]bool{}
	for _, v := range got {
		if v == 7 {
			t.Fatal("sampled the requesting user")
		}
		if seen[v] {
			t.Fatalf("duplicate candidate %v", v)
		}
		seen[v] = true
	}
}

func TestNoRandomSamplerPureTwoHop(t *testing.T) {
	e := populatedEngine(t, 50)
	// Hand-build a closed triangle 1-2-3 in the KNN table.
	e.KNN().Put(1, []core.UserID{2, 3})
	e.KNN().Put(2, []core.UserID{1, 3})
	e.KNN().Put(3, []core.UserID{1, 2})
	s := NoRandomSampler{Engine: e}
	got := s.Sample(e.pinView(), 1, 2)
	for _, v := range got {
		if v != 2 && v != 3 {
			t.Fatalf("no-random sampler escaped the clique: %v in %v", v, got)
		}
	}
	if len(got) != 2 {
		t.Fatalf("sample = %v, want exactly {2,3}", got)
	}
}

func TestNoRandomSamplerBootstrapsEmptyKNN(t *testing.T) {
	e := populatedEngine(t, 20)
	s := NoRandomSampler{Engine: e}
	got := s.Sample(e.pinView(), 1, 4) // user 1 has no KNN entry yet
	if len(got) != 1 {
		t.Fatalf("bootstrap sample = %v, want one random candidate", got)
	}
	if got[0] == 1 {
		t.Fatal("bootstrapped with self")
	}
}

// The design claim behind the default rule: starting from a wrong
// neighbourhood, the two-hop-only sampler cannot escape its clique while
// the full rule (with random exploration) finds the true community.
func TestRandomComponentEscapesLocalOptimum(t *testing.T) {
	build := func() *Engine {
		cfg := DefaultConfig()
		cfg.DisableAnonymizer = true
		cfg.K = 2
		cfg.Seed = 9
		e := NewEngine(cfg)
		// Users 1-3: community A (items 0-5); users 4-9: decoys with no
		// overlap at all; user 10-12: community A too but unknown to 1.
		for _, u := range []core.UserID{1, 2, 3, 10, 11, 12} {
			for j := 0; j < 4; j++ {
				e.Rate(tctx, u, core.ItemID((int(u)+j)%6), true)
			}
		}
		for u := core.UserID(4); u <= 9; u++ {
			e.Rate(tctx, u, core.ItemID(100+u), true)
		}
		// Adversarial start: 1's clique is the disjoint decoys, closed
		// under two-hop.
		e.KNN().Put(1, []core.UserID{4, 5})
		e.KNN().Put(4, []core.UserID{5, 6})
		e.KNN().Put(5, []core.UserID{4, 6})
		e.KNN().Put(6, []core.UserID{4, 5})
		return e
	}

	iterate := func(e *Engine, s Sampler, rounds int) float64 {
		e.SetSampler(s)
		metric := core.Cosine{}
		for r := 0; r < rounds; r++ {
			p := e.Profiles().Get(1)
			var candidates []core.Profile
			for _, c := range s.Sample(e.pinView(), 1, e.Config().K) {
				candidates = append(candidates, e.Profiles().Get(c))
			}
			hood := core.SelectKNN(p, candidates, e.Config().K, metric)
			ids := make([]core.UserID, len(hood))
			for i, n := range hood {
				ids[i] = n.User
			}
			// Merge with current hood as the widget cycle would via the
			// candidate set containing one-hop neighbours.
			e.KNN().Put(1, ids)
		}
		p := e.Profiles().Get(1)
		var sum float64
		hood := e.KNN().Get(1)
		for _, v := range hood {
			sum += metric.Score(p, e.Profiles().Get(v))
		}
		if len(hood) == 0 {
			return 0
		}
		return sum / float64(len(hood))
	}

	eFull := build()
	full := iterate(eFull, &defaultSampler{engine: eFull}, 30)
	eNoRand := build()
	noRand := iterate(eNoRand, NoRandomSampler{Engine: eNoRand}, 30)

	if noRand > 0 {
		t.Fatalf("two-hop-only escaped a closed disjoint clique: view sim %v", noRand)
	}
	if full <= 0 {
		t.Fatalf("full sampler never found the community: view sim %v", full)
	}
}
