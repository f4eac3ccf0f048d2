package server

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"hyrec/internal/core"
)

// This file implements the epoch-pinned copy-on-write read path for job
// assembly. The authoritative Profile and KNN tables stay lock-sharded
// (tables.go); what changes is how the Sampler and the candidate-profile
// loader read them. Instead of taking a shard RWMutex per candidate
// lookup — dozens of lock acquisitions per job, all contending with the
// rating ingest path — the engine publishes an immutable TableView and
// each job assembly pins one view for its whole duration: every lookup
// after the pin is a plain map read with no synchronization at all.
//
// Freshness is generation-driven and deterministic: every table write
// bumps a table-level counter, and pinning compares three atomic counters
// against the published view's stamp. A stale view is rebuilt before use,
// but copy-on-write at shard granularity keeps the rebuild proportional
// to what actually changed — clean shards carry their map pointer over,
// only dirty shards are re-copied under a brief RLock. Sequential
// workloads therefore always observe their own writes (pin-after-write
// rebuilds exactly the dirty shards), while concurrent workloads accept
// bounded staleness: a pin that loses the rebuild TryLock race runs on
// the previous view, which is at most one write burst old. Bounded
// staleness of *candidate* data is free in HyRec — the KNN table is an
// approximation by design, and the requesting user's own profile is
// always read fresh from the authoritative table.

// TableView is an immutable point-in-time view of one engine's Profile
// and KNN tables. All methods are safe for unsynchronized concurrent use
// by any number of readers.
type TableView struct {
	// Gen stamps: the table-level generation counters observed before
	// the shards were copied. A view may contain slightly newer data
	// than its stamp (a write can land mid-rebuild) — never older — so
	// comparing stamps against the live counters errs toward rebuilding.
	profGen   uint64
	knnGen    uint64
	rosterGen uint64

	// Per-shard generations recorded at copy time, so the next rebuild
	// re-copies only shards that changed since.
	profShardGen [numShards]uint64
	knnShardGen  [numShards]uint64

	profiles [numShards]map[core.UserID]core.Profile
	knn      [numShards]map[core.UserID][]core.UserID
	roster   []core.UserID
}

// Profile returns u's profile at view time. Users registered after the
// view was pinned report ok=false (callers fall back to the live table).
func (v *TableView) Profile(u core.UserID) (core.Profile, bool) {
	p, ok := v.profiles[shardOf(u)][u]
	return p, ok
}

// KNN returns u's neighbor list at view time (nil when none was stored).
// The slice is immutable by the KNN table's contract.
func (v *TableView) KNN(u core.UserID) []core.UserID {
	return v.knn[shardOf(u)][u]
}

// NumUsers returns the roster size at view time.
func (v *TableView) NumUsers() int { return len(v.roster) }

// randomUsers appends up to n users drawn uniformly from the pinned
// roster (with replacement across calls, without duplicates in one
// call), excluding `exclude`. Fewer than n are appended when the
// population is too small, and none when n <= 0. It is lock-free and
// deduplicates by a linear scan over the output — n is at most a few
// dozen, and the scan beats a map allocation at that size.
func (v *TableView) randomUsers(dst []core.UserID, rng *rand.Rand, n int, exclude core.UserID) []core.UserID {
	total := len(v.roster)
	if total == 0 || n <= 0 {
		return dst
	}
	base := len(dst)
	// Cap attempts so a tiny population cannot loop forever.
	for attempts := 0; len(dst)-base < n && attempts < 8*n; attempts++ {
		u := v.roster[rng.Intn(total)]
		if u == exclude {
			continue
		}
		dup := false
		for _, got := range dst[base:] {
			if got == u {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		dst = append(dst, u)
	}
	return dst
}

// viewState is the engine-side holder of the published view. mu is the
// single-flight rebuild slot: pinners TryLock it so the hot path never
// blocks behind a sibling's rebuild.
type viewState struct {
	cur atomic.Pointer[TableView]
	mu  sync.Mutex
}

// pinView returns a view no staler than the tables were when the call
// began, or — if another goroutine is mid-rebuild — the most recently
// published view. It never returns nil.
func (e *Engine) pinView() *TableView {
	vs := &e.views
	v := vs.cur.Load()
	pg, kg, rg := e.profiles.gen.Load(), e.knn.gen.Load(), e.profiles.rosterGen.Load()
	if v != nil && v.profGen == pg && v.knnGen == kg && v.rosterGen == rg {
		return v
	}
	if !vs.mu.TryLock() {
		// A sibling is rebuilding. Use whatever is published rather than
		// blocking the hot path; if nothing has ever been published,
		// wait for the first build.
		if v != nil {
			return v
		}
		vs.mu.Lock()
	}
	defer vs.mu.Unlock()
	// Re-check under the lock: a racing rebuild may have published a
	// fresh-enough view while we acquired.
	v = vs.cur.Load()
	if v == nil || v.profGen != pg || v.knnGen != kg || v.rosterGen != rg {
		v = e.rebuildView(v)
		vs.cur.Store(v)
	}
	return v
}

// rebuildView builds a view incrementally on top of prev: shards whose
// generation is unchanged carry their immutable map over; dirty shards
// are copied under their RLock. prev may be nil (full build).
func (e *Engine) rebuildView(prev *TableView) *TableView {
	nv := &TableView{
		// Stamp before copying: the view can only be newer than its
		// stamp, so staleness checks stay conservative.
		profGen:   e.profiles.gen.Load(),
		knnGen:    e.knn.gen.Load(),
		rosterGen: e.profiles.rosterGen.Load(),
	}
	for i := range e.profiles.shards {
		s := &e.profiles.shards[i]
		s.mu.RLock()
		if prev != nil && prev.profShardGen[i] == s.gen {
			nv.profiles[i] = prev.profiles[i]
		} else {
			m := make(map[core.UserID]core.Profile, len(s.m))
			for u, p := range s.m {
				m[u] = p
			}
			nv.profiles[i] = m
		}
		nv.profShardGen[i] = s.gen
		s.mu.RUnlock()
	}
	for i := range e.knn.shards {
		s := &e.knn.shards[i]
		s.mu.RLock()
		if prev != nil && prev.knnShardGen[i] == s.gen {
			nv.knn[i] = prev.knn[i]
		} else {
			m := make(map[core.UserID][]core.UserID, len(s.m))
			for u, ns := range s.m {
				m[u] = ns
			}
			nv.knn[i] = m
		}
		nv.knnShardGen[i] = s.gen
		s.mu.RUnlock()
	}
	e.profiles.rosterMu.RLock()
	// Generation equality, not length equality: migration removals can
	// net out against registrations, leaving the length unchanged while
	// the membership differs.
	if prev != nil && prev.rosterGen == nv.rosterGen {
		nv.roster = prev.roster
	} else {
		nv.roster = make([]core.UserID, len(e.profiles.roster))
		copy(nv.roster, e.profiles.roster)
	}
	e.profiles.rosterMu.RUnlock()
	return nv
}

// SnapshotProfile returns u's profile through the published view
// (lock-free for any user the view knows), falling back to the
// authoritative table. The cluster's cross-partition profile resolver
// reads sibling partitions through this, so foreign candidate lookups
// take no sibling shard locks either.
func (e *Engine) SnapshotProfile(u core.UserID) core.Profile {
	if p, ok := e.pinView().Profile(u); ok {
		return p
	}
	return e.profiles.Get(u)
}
