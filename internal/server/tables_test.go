package server

import (
	"math/rand"
	"sync"
	"testing"

	"hyrec/internal/core"
)

func TestProfileTableGetUnknown(t *testing.T) {
	tb := NewProfileTable()
	p := tb.Get(5)
	if p.User() != 5 || p.Size() != 0 {
		t.Fatalf("unknown user profile: %v", p)
	}
	if tb.Known(5) {
		t.Error("Get must not register users")
	}
}

func TestProfileTablePutGet(t *testing.T) {
	tb := NewProfileTable()
	p := core.NewProfile(1).WithRating(3, true)
	tb.Put(p)
	if !tb.Known(1) || tb.Len() != 1 {
		t.Fatal("Put did not register")
	}
	got := tb.Get(1)
	if !got.Equal(p) {
		t.Fatalf("Get = %v", got)
	}
}

func TestProfileTableUpdate(t *testing.T) {
	tb := NewProfileTable()
	got := tb.Update(2, func(p core.Profile) core.Profile { return p.WithRating(9, true) })
	if !got.LikedContains(9) {
		t.Fatal("update result wrong")
	}
	if !tb.Get(2).LikedContains(9) {
		t.Fatal("update not stored")
	}
	if tb.Len() != 1 {
		t.Fatal("update did not register user")
	}
	// Second update of same user must not re-register.
	tb.Update(2, func(p core.Profile) core.Profile { return p.WithRating(10, true) })
	if tb.Len() != 1 {
		t.Fatal("duplicate roster entry")
	}
}

// viewEngine returns an engine whose profile table holds users
// [0, n), so its pinned view has a roster to draw from.
func viewEngine(n int) *Engine {
	e := NewEngine(DefaultConfig())
	for u := core.UserID(0); u < core.UserID(n); u++ {
		e.Profiles().Put(core.NewProfile(u))
	}
	return e
}

func TestProfileTableRandomUsers(t *testing.T) {
	e := viewEngine(50)
	rng := rand.New(rand.NewSource(1))
	got := e.pinView().randomUsers(nil, rng, 10, 7)
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[core.UserID]bool{}
	for _, u := range got {
		if u == 7 {
			t.Fatal("excluded user drawn")
		}
		if seen[u] {
			t.Fatal("duplicate draw in one call")
		}
		seen[u] = true
	}
}

func TestProfileTableRandomUsersSmallPopulation(t *testing.T) {
	e := NewEngine(DefaultConfig())
	e.Profiles().Put(core.NewProfile(1))
	v := e.pinView()
	rng := rand.New(rand.NewSource(1))
	// Asking for more users than exist must terminate and return what's
	// available (possibly less).
	got := v.randomUsers(nil, rng, 5, 1)
	if len(got) != 0 {
		t.Fatalf("only excluded user exists, got %v", got)
	}
	if got := v.randomUsers(nil, rng, 3, 99); len(got) != 1 {
		t.Fatalf("got %v, want just user 1", got)
	}
	// Empty table.
	empty := NewEngine(DefaultConfig())
	if got := empty.pinView().randomUsers(nil, rng, 3, 0); got != nil {
		t.Fatalf("empty table returned %v", got)
	}
	if got := empty.RandomUsers(3, 0); got != nil {
		t.Fatalf("empty engine returned %v", got)
	}
	// Asking for no users, or a negative count, draws none instead of
	// sizing a buffer from the count.
	for _, n := range []int{0, -1, -100} {
		if got := e.RandomUsers(n, 0); got != nil {
			t.Fatalf("RandomUsers(%d) = %v, want nil", n, got)
		}
		if got := v.randomUsers(nil, rng, n, 0); got != nil {
			t.Fatalf("randomUsers(%d) = %v, want nil", n, got)
		}
	}
}

func TestProfileTableRandomUsersUniformish(t *testing.T) {
	const n = 20
	v := viewEngine(n).pinView()
	rng := rand.New(rand.NewSource(42))
	counts := map[core.UserID]int{}
	const draws = 4000
	for i := 0; i < draws; i++ {
		for _, u := range v.randomUsers(nil, rng, 1, n+1) {
			counts[u]++
		}
	}
	// Each user should get ~draws/n = 200; allow wide tolerance.
	for u := core.UserID(0); u < n; u++ {
		if counts[u] < 100 || counts[u] > 320 {
			t.Errorf("user %v drawn %d times, expected ≈200", u, counts[u])
		}
	}
}

func TestProfileTableForEachAndUsers(t *testing.T) {
	tb := NewProfileTable()
	for u := core.UserID(0); u < 10; u++ {
		tb.Put(core.NewProfile(u).WithRating(core.ItemID(u), true))
	}
	count := 0
	tb.ForEach(func(p core.Profile) {
		if !p.LikedContains(core.ItemID(p.User())) {
			t.Errorf("wrong profile for %v", p.User())
		}
		count++
	})
	if count != 10 {
		t.Fatalf("ForEach visited %d", count)
	}
	if len(tb.Users()) != 10 {
		t.Fatal("Users() wrong length")
	}
}

// TestProfileTableConcurrent races writers against view pins and draws:
// every pin may rebuild the view while other goroutines write.
func TestProfileTableConcurrent(t *testing.T) {
	e := NewEngine(DefaultConfig())
	tb := e.Profiles()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				u := core.UserID(rng.Intn(100))
				tb.Update(u, func(p core.Profile) core.Profile {
					return p.WithRating(core.ItemID(i), true)
				})
				tb.Get(u)
				e.pinView().randomUsers(nil, rng, 3, u)
			}
		}(g)
	}
	wg.Wait()
	if tb.Len() == 0 || tb.Len() > 100 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestKNNTable(t *testing.T) {
	kt := NewKNNTable()
	if kt.Get(1) != nil {
		t.Fatal("unknown user has neighbors")
	}
	kt.Put(1, []core.UserID{2, 3})
	if got := kt.Get(1); len(got) != 2 || got[0] != 2 {
		t.Fatalf("Get = %v", got)
	}
	kt.Put(1, []core.UserID{4})
	if got := kt.Get(1); len(got) != 1 || got[0] != 4 {
		t.Fatalf("overwrite failed: %v", got)
	}
	if kt.Len() != 1 {
		t.Fatalf("Len = %d", kt.Len())
	}
}

func TestKNNTableConcurrent(t *testing.T) {
	kt := NewKNNTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				u := core.UserID(i % 64)
				kt.Put(u, []core.UserID{core.UserID(g), core.UserID(i)})
				kt.Get(u)
			}
		}(g)
	}
	wg.Wait()
	if kt.Len() != 64 {
		t.Fatalf("Len = %d", kt.Len())
	}
}

// TestRosterDoesNotGrowOnRestore pins the dedup-on-insert invariant:
// re-storing an existing user — any interleaving of Put and Update —
// never grows the dense roster, so uniform sampling stays uniform.
func TestRosterDoesNotGrowOnRestore(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		tab := NewProfileTable()
		for i := 0; i < 5; i++ {
			tab.Put(core.NewProfile(7).WithRating(core.ItemID(i), true))
			tab.Update(7, func(p core.Profile) core.Profile {
				return p.WithRating(core.ItemID(100+i), true)
			})
		}
		if got := tab.Len(); got != 1 {
			t.Fatalf("roster length = %d after re-storing one user, want 1", got)
		}
		if users := tab.Users(); len(users) != 1 || users[0] != 7 {
			t.Fatalf("roster = %v, want [7]", users)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		tab := NewProfileTable()
		const users, writersPerUser = 32, 8
		var wg sync.WaitGroup
		for u := core.UserID(1); u <= users; u++ {
			for w := 0; w < writersPerUser; w++ {
				wg.Add(1)
				go func(u core.UserID, w int) {
					defer wg.Done()
					if w%2 == 0 {
						tab.Put(core.NewProfile(u))
					} else {
						tab.Update(u, func(p core.Profile) core.Profile {
							return p.WithRating(core.ItemID(w), true)
						})
					}
				}(u, w)
			}
		}
		wg.Wait()
		if got := tab.Len(); got != users {
			t.Fatalf("roster length = %d, want %d (duplicates slipped in)", got, users)
		}
		seen := make(map[core.UserID]bool)
		for _, u := range tab.Users() {
			if seen[u] {
				t.Fatalf("duplicate roster entry for user %d", u)
			}
			seen[u] = true
		}
	})
}
