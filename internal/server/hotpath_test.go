package server

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// This file certifies the zero-allocation hot path: epoch-pinned table
// snapshots (view.go) plus pooled encode buffers keep job assembly +
// encode near one allocation per job, while the cached-fragment payload
// stays byte-identical to encoding the job message itself. The capacity
// benchmark (internal/bench) tracks the same quantities over time in
// BENCH_hotpath.json.

// hotPathEngine builds a churned engine: users ratings and a converged-ish
// KNN graph so candidate sets exercise one-hop, two-hop and random picks.
func hotPathEngine(t testing.TB, cfg Config, users, items int) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	ctx := context.Background()
	for u := 1; u <= users; u++ {
		for j := 0; j < 8; j++ {
			item := core.ItemID((u*7 + j*13) % items)
			if err := e.Rate(ctx, core.UserID(u), item, j%3 != 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Seed KNN rows directly (deterministic, no widget round-trip): each
	// user points at the next few users, giving two-hop fan-out.
	for u := 1; u <= users; u++ {
		var hood []core.UserID
		for d := 1; d <= cfg.K; d++ {
			hood = append(hood, core.UserID((u+d-1)%users+1))
		}
		e.KNN().Put(core.UserID(u), hood)
	}
	return e
}

// measureJobPayloadAllocs reports allocations per AppendJobPayload call
// with pooled buffers after a warmup pass that populates the pools and
// the serialized-profile cache.
func measureJobPayloadAllocs(t testing.TB, e *Engine, users, rounds int) float64 {
	t.Helper()
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	run := func() {
		for u := 1; u <= users; u++ {
			j, g, err := e.AppendJobPayload(context.Background(), core.UserID(u), bufs.JSON[:0], bufs.Gz[:0])
			if err != nil {
				t.Fatal(err)
			}
			bufs.JSON, bufs.Gz = j, g
		}
	}
	run() // warm pools, caches and buffer capacities
	allocs := testing.AllocsPerRun(rounds, run)
	return allocs / float64(users)
}

// TestHotPathAllocReduction is the serving path's allocation gate: job
// assembly + encode with pooled buffers may allocate at most half the
// 22.0 allocs/op the retired per-lookup-locked read path measured on
// this workload (the path itself measures about 1).
func TestHotPathAllocReduction(t *testing.T) {
	const users, items = 256, 500
	e := hotPathEngine(t, DefaultConfig(), users, items)
	defer e.Close()

	allocs := measureJobPayloadAllocs(t, e, users, 5)
	t.Logf("allocs/op: %.1f", allocs)
	bound := 11.0
	if raceEnabled {
		// sync.Pool drops a fraction of Puts under the race detector,
		// so the pooled path cannot reach its real count there.
		bound = 16
	}
	if allocs > bound {
		t.Fatalf("hot path allocates %.1f/op, want <= %.1f", allocs, bound)
	}
}

// assertPayloadMatchesJob checks e's served payload for u against the
// encoding of twin's job message for u (wire.AppendJob over Engine.Job):
// identical JSON, and a gzip body that inflates to that JSON. e and twin
// must hold the same state and seed and have served the same sequence of
// jobs, so both draw the same candidates.
func assertPayloadMatchesJob(t *testing.T, e, twin *Engine, u core.UserID) {
	t.Helper()
	js, gz, err := e.JobPayload(u)
	if err != nil {
		t.Fatal(err)
	}
	job, err := twin.Job(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	if want := wire.AppendJob(nil, job, nil); !bytes.Equal(js, want) {
		t.Fatalf("user %d: payload JSON differs from the encoded job:\n payload %s\n job     %s", u, js, want)
	}
	raw, err := wire.Decompress(gz)
	if err != nil || !bytes.Equal(raw, js) {
		t.Fatalf("user %d: gzip body does not inflate to the JSON (err %v)", u, err)
	}
}

// TestSnapshotPathByteEquivalence: on the snapshot read path, the payload
// assembled from cached (and spliced) fragments is byte-identical to the
// job message Engine.Job assembles on a twin engine — the serving
// optimizations may not change the protocol.
func TestSnapshotPathByteEquivalence(t *testing.T) {
	const users, items = 64, 200
	e := hotPathEngine(t, DefaultConfig(), users, items)
	defer e.Close()
	twin := hotPathEngine(t, DefaultConfig(), users, items)
	defer twin.Close()
	for u := 1; u <= users; u++ {
		assertPayloadMatchesJob(t, e, twin, core.UserID(u))
	}
}

// TestSnapshotReadPathSeesSequentialWrites pins the freshness contract:
// a pin after a write always observes the write (rebuilds are
// generation-driven, not time-driven), so sequential workloads cannot
// read stale candidate data. After every kind of table write, a fresh
// view must equal the authoritative tables exactly.
func TestSnapshotReadPathSeesSequentialWrites(t *testing.T) {
	e := NewEngine(DefaultConfig())
	defer e.Close()
	const n = 50
	universe := make([]core.UserID, 0, n+1)
	for i := 1; i <= n+1; i++ {
		universe = append(universe, core.UserID(i))
	}
	check := func(write string, u core.UserID) {
		t.Helper()
		assertViewMatchesTables(t, e, universe, fmt.Sprintf("%s(%d)", write, u))
	}

	for i := 1; i <= n; i++ {
		u := core.UserID(i)
		e.Profiles().Put(core.NewProfile(u).WithRating(core.ItemID(i), true))
		check("Put", u)
		e.Profiles().Update(u, func(p core.Profile) core.Profile {
			return p.WithRating(core.ItemID(i*3), false)
		})
		check("Update", u)
		e.KNN().Put(u, []core.UserID{core.UserID(i%7 + 1)})
		check("KNN.Put", u)
		// u+1 has no row yet: the first call stores, the second is a
		// no-op that must leave the view equal too.
		e.KNN().PutIfAbsent(u+1, []core.UserID{u})
		check("KNN.PutIfAbsent", u+1)
		e.KNN().PutIfAbsent(u+1, []core.UserID{u + 2})
		check("KNN.PutIfAbsent", u+1)
		if i%3 == 0 {
			e.KNN().Delete(u)
			check("KNN.Delete", u)
			e.Profiles().Entomb(u)
			check("Entomb", u)
			e.Profiles().Exhume(u)
			check("Exhume", u)
			e.Profiles().Put(core.NewProfile(u).WithRating(core.ItemID(i*5), true))
			check("Put", u)
		}
	}
	if got := e.pinView().NumUsers(); got != n {
		t.Fatalf("view roster has %d users, want %d", got, n)
	}
}

// assertViewMatchesTables pins a view and compares it with the
// authoritative tables: every user's profile (or its absence) against
// ProfileTable.Get and Known, every KNN row against KNNTable.Get, and
// the roster membership against Users().
func assertViewMatchesTables(t *testing.T, e *Engine, universe []core.UserID, after string) {
	t.Helper()
	v := e.pinView()
	for _, u := range universe {
		p, ok := v.Profile(u)
		if ok != e.Profiles().Known(u) {
			t.Fatalf("after %s: view knows user %d = %v, table %v", after, u, ok, !ok)
		}
		if ok && !p.Equal(e.Profiles().Get(u)) {
			t.Fatalf("after %s: view profile of user %d = %v, table %v", after, u, p, e.Profiles().Get(u))
		}
		if got, want := v.KNN(u), e.KNN().Get(u); !slices.Equal(got, want) {
			t.Fatalf("after %s: view KNN row of user %d = %v, table %v", after, u, got, want)
		}
	}
	got := slices.Clone(v.roster)
	want := e.Profiles().Users()
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("after %s: view roster %v, table roster %v", after, got, want)
	}
}

func BenchmarkJobAssemblyEncode(b *testing.B) {
	const users, items = 256, 500
	b.Run("snapshot", func(b *testing.B) {
		e := hotPathEngine(b, DefaultConfig(), users, items)
		defer e.Close()
		bufs := wire.GetPayloadBufs()
		defer wire.PutPayloadBufs(bufs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := core.UserID(i%users + 1)
			j, g, err := e.AppendJobPayload(context.Background(), u, bufs.JSON[:0], bufs.Gz[:0])
			if err != nil {
				b.Fatal(err)
			}
			bufs.JSON, bufs.Gz = j, g
		}
	})
}

// BenchmarkJobAssemblyEncodeParallel measures the contended case the
// snapshot path exists for: many goroutines assembling jobs at once.
func BenchmarkJobAssemblyEncodeParallel(b *testing.B) {
	const users, items = 256, 500
	b.Run("snapshot", func(b *testing.B) {
		e := hotPathEngine(b, DefaultConfig(), users, items)
		defer e.Close()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			bufs := wire.GetPayloadBufs()
			defer wire.PutPayloadBufs(bufs)
			i := 0
			for pb.Next() {
				i++
				u := core.UserID(i%users + 1)
				j, g, err := e.AppendJobPayload(context.Background(), u, bufs.JSON[:0], bufs.Gz[:0])
				if err != nil {
					b.Fatal(err)
				}
				bufs.JSON, bufs.Gz = j, g
			}
		})
	})
}
