// Package server implements the HyRec server side (Section 3.1 of the
// paper): the global Profile and KNN tables, the Sampler that assembles
// candidate sets, and the Personalization orchestrator that turns client
// requests into personalization jobs and folds widget results back into
// the KNN table. An HTTP front-end (http.go) exposes the paper's web API.
package server

import (
	"sync"
	"sync/atomic"

	"hyrec/internal/core"
)

// numShards spreads table locks; a power of two so the shard index is a
// mask operation.
const numShards = 64

func shardOf(u core.UserID) int { return int(uint32(u)*0x9E3779B1>>26) & (numShards - 1) }

// ProfileTable is the server's global user → profile map. It additionally
// maintains a dense roster of known users so the Sampler can draw uniform
// random users in O(1) per pick. The roster is strictly duplicate-free —
// rosterIdx verifies every insert, so re-storing a user can never grow it
// and skew the uniform sampling toward old users. Safe for concurrent
// use.
type ProfileTable struct {
	shards [numShards]profileShard

	// gen counts writes table-wide; the copy-on-write view layer
	// (view.go) compares it against a published snapshot's generation to
	// decide staleness without touching any shard lock.
	gen atomic.Uint64

	rosterMu sync.RWMutex
	roster   []core.UserID
	// rosterIdx maps each registered user to her position in the dense
	// roster, so removal (user-state migration) is a swap-with-last
	// instead of a linear scan.
	rosterIdx map[core.UserID]int
	// rosterGen counts roster changes (growth and removal), for the same
	// staleness check.
	rosterGen atomic.Uint64
}

type profileShard struct {
	mu sync.RWMutex
	m  map[core.UserID]core.Profile
	// gen counts writes to this shard (guarded by mu), so a view rebuild
	// copies only the shards that changed since it last looked.
	gen uint64
	// tombs marks users removed by state migration: writes for them are
	// dropped (the cluster's routing re-check has already re-applied the
	// opinion on the new owner) so a writer that pinned the
	// pre-migration topology cannot resurrect a drained entry. Lazily
	// allocated; lifted by Exhume when ownership moves back.
	tombs map[core.UserID]struct{}
}

// NewProfileTable returns an empty table.
func NewProfileTable() *ProfileTable {
	t := &ProfileTable{rosterIdx: make(map[core.UserID]int)}
	for i := range t.shards {
		t.shards[i].m = make(map[core.UserID]core.Profile)
	}
	return t
}

// register appends u to the dense roster exactly once. The shard lock
// gates callers on first-store, but the roster is updated outside that
// lock, so the index re-verifies membership: dedup-on-insert rather than
// trust-the-caller.
func (t *ProfileTable) register(u core.UserID) {
	t.rosterMu.Lock()
	if _, dup := t.rosterIdx[u]; !dup {
		t.rosterIdx[u] = len(t.roster)
		t.roster = append(t.roster, u)
		t.rosterGen.Add(1)
	}
	t.rosterMu.Unlock()
}

// Entomb removes u's profile and roster entry (the roster removal is a
// swap-with-last, so uniform sampling stays O(1) per draw), reporting
// whether u was present — and leaves a write block behind: until
// Exhume lifts it, Put and Update calls for u are dropped. User-state
// migration entombs the source copy so a racing writer that pinned the
// pre-migration topology cannot resurrect a drained entry (its opinion
// has already been re-applied on the new owner by the cluster's
// routing re-check). There is deliberately no tomb-less delete: every
// removal in a live cluster faces the same racing-writer hazard.
func (t *ProfileTable) Entomb(u core.UserID) bool { return t.remove(u) }

// Exhume lifts u's write block — called when a later migration moves
// the user's ownership back to this table.
func (t *ProfileTable) Exhume(u core.UserID) {
	s := &t.shards[shardOf(u)]
	s.mu.Lock()
	delete(s.tombs, u)
	s.mu.Unlock()
}

// ClearTombs lifts every outstanding write block. The migration
// coordinator calls it when a *new* migration begins: blocks from
// earlier migrations have served their purpose — the racing writers
// they guard against pinned a topology at least one full migration old
// and have long drained — so the tombstone map stays bounded by one
// migration's move set instead of growing with a deployment's lifetime
// scale-event history.
func (t *ProfileTable) ClearTombs() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.tombs = nil
		s.mu.Unlock()
	}
}

func (t *ProfileTable) remove(u core.UserID) bool {
	s := &t.shards[shardOf(u)]
	s.mu.Lock()
	if s.tombs == nil {
		s.tombs = make(map[core.UserID]struct{})
	}
	s.tombs[u] = struct{}{}
	_, existed := s.m[u]
	if existed {
		delete(s.m, u)
		s.gen++
	}
	s.mu.Unlock()
	if !existed {
		return false
	}
	t.gen.Add(1)
	t.rosterMu.Lock()
	if i, ok := t.rosterIdx[u]; ok {
		last := len(t.roster) - 1
		if i != last {
			moved := t.roster[last]
			t.roster[i] = moved
			t.rosterIdx[moved] = i
		}
		t.roster = t.roster[:last]
		delete(t.rosterIdx, u)
		t.rosterGen.Add(1)
	}
	t.rosterMu.Unlock()
	return true
}

// Get returns the current profile snapshot of u. Unknown users get a fresh
// empty profile (HyRec treats first contact as an empty-profile user).
func (t *ProfileTable) Get(u core.UserID) core.Profile {
	s := &t.shards[shardOf(u)]
	s.mu.RLock()
	p, ok := s.m[u]
	s.mu.RUnlock()
	if !ok {
		return core.NewProfile(u)
	}
	return p
}

// Known reports whether u has ever been stored.
func (t *ProfileTable) Known(u core.UserID) bool {
	s := &t.shards[shardOf(u)]
	s.mu.RLock()
	_, ok := s.m[u]
	s.mu.RUnlock()
	return ok
}

// Put stores a profile snapshot, registering the user on first sight.
// Writes for entombed users are dropped (see Entomb).
func (t *ProfileTable) Put(p core.Profile) {
	u := p.User()
	s := &t.shards[shardOf(u)]
	s.mu.Lock()
	if _, dead := s.tombs[u]; dead {
		s.mu.Unlock()
		return
	}
	_, existed := s.m[u]
	s.m[u] = p
	s.gen++
	s.mu.Unlock()
	t.gen.Add(1)
	if !existed {
		t.register(u)
	}
}

// Update applies fn to u's profile atomically with respect to other
// Updates of the same user, and returns the new snapshot. For an
// entombed user the transform runs against an empty profile and is NOT
// stored — the caller's routing re-check re-applies it where the user
// lives now.
func (t *ProfileTable) Update(u core.UserID, fn func(core.Profile) core.Profile) core.Profile {
	s := &t.shards[shardOf(u)]
	s.mu.Lock()
	if _, dead := s.tombs[u]; dead {
		s.mu.Unlock()
		return fn(core.NewProfile(u))
	}
	p, existed := s.m[u]
	if !existed {
		p = core.NewProfile(u)
	}
	p = fn(p)
	s.m[u] = p
	s.gen++
	s.mu.Unlock()
	t.gen.Add(1)
	if !existed {
		t.register(u)
	}
	return p
}

// Len returns the number of registered users.
func (t *ProfileTable) Len() int {
	t.rosterMu.RLock()
	defer t.rosterMu.RUnlock()
	return len(t.roster)
}

// ForEach invokes fn on a snapshot of every (user, profile) pair. The
// iteration order is unspecified.
func (t *ProfileTable) ForEach(fn func(core.Profile)) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		snapshot := make([]core.Profile, 0, len(s.m))
		for _, p := range s.m {
			snapshot = append(snapshot, p)
		}
		s.mu.RUnlock()
		for _, p := range snapshot {
			fn(p)
		}
	}
}

// Users returns a copy of the user roster.
func (t *ProfileTable) Users() []core.UserID {
	t.rosterMu.RLock()
	defer t.rosterMu.RUnlock()
	out := make([]core.UserID, len(t.roster))
	copy(out, t.roster)
	return out
}

// KNNTable is the server's global user → current-KNN-approximation map.
// Safe for concurrent use.
type KNNTable struct {
	shards [numShards]knnShard

	// gen counts writes table-wide (see ProfileTable.gen).
	gen atomic.Uint64
}

type knnShard struct {
	mu sync.RWMutex
	m  map[core.UserID][]core.UserID
	// gen counts writes to this shard (guarded by mu).
	gen uint64
}

// NewKNNTable returns an empty table.
func NewKNNTable() *KNNTable {
	t := &KNNTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[core.UserID][]core.UserID)
	}
	return t
}

// Get returns the current neighbors of u (never modified by the table
// afterwards; callers must not mutate it).
func (t *KNNTable) Get(u core.UserID) []core.UserID {
	s := &t.shards[shardOf(u)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[u]
}

// Put replaces u's neighbor list. The slice is stored as-is; the caller
// must not modify it afterwards.
func (t *KNNTable) Put(u core.UserID, neighbors []core.UserID) {
	s := &t.shards[shardOf(u)]
	s.mu.Lock()
	s.m[u] = neighbors
	s.gen++
	s.mu.Unlock()
	t.gen.Add(1)
}

// PutIfAbsent stores u's neighbor list only when none is present,
// reporting whether it stored. The check and the store are one critical
// section, so an import racing a concurrent fold-in can never clobber
// the fresher row (the "destination wins" merge contract).
func (t *KNNTable) PutIfAbsent(u core.UserID, neighbors []core.UserID) bool {
	s := &t.shards[shardOf(u)]
	s.mu.Lock()
	if _, exists := s.m[u]; exists {
		s.mu.Unlock()
		return false
	}
	s.m[u] = neighbors
	s.gen++
	s.mu.Unlock()
	t.gen.Add(1)
	return true
}

// Delete removes u's neighbor list, reporting whether one was stored.
func (t *KNNTable) Delete(u core.UserID) bool {
	s := &t.shards[shardOf(u)]
	s.mu.Lock()
	_, existed := s.m[u]
	if existed {
		delete(s.m, u)
		s.gen++
	}
	s.mu.Unlock()
	if existed {
		t.gen.Add(1)
	}
	return existed
}

// Len returns the number of users with a stored neighborhood.
func (t *KNNTable) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
