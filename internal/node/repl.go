package node

import (
	"context"
	"sort"
	"sync"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// replicator is the per-node replication pump. For every partition this
// node serves as primary it keeps a dirty set — users whose state has
// changed since it was last shipped to the partition's replica. The
// RateBatch path ships its dirtied users synchronously before the ack
// returns (shipSync); worker results and fallback refreshes land in the
// dirty set and ride the async tail (flushAll, every ReplicateEvery);
// a periodic full-state pass (fullSyncAll) bounds divergence from any
// lost tail batch. All shipping reuses the PR-5 migration surface:
// ExportUsers on the source, ImportUsers' destination-wins merge on the
// mirror, so duplicate and reordered delivery are idempotent.
// defaultReplBacklog is the per-partition dirty-set cap when
// Config.ReplBacklog is zero.
const defaultReplBacklog = 8192

type replicator struct {
	n *Node

	mu    sync.Mutex
	parts map[int]*replPart
	// backlogCap bounds each partition's dirty set (0 = unlimited): a
	// long-dead mirror must not grow the backlog without bound. When a
	// partition trips the cap its dirty set collapses into one needFull
	// flag — "re-ship everything" is constant-size state, and the full
	// anti-entropy export covers whatever the dropped set recorded.
	backlogCap int
	// dirtyTotal / backlogHW track the current and high-water total
	// dirty users across partitions (the replica_backlog_users gauge).
	dirtyTotal int64
	backlogHW  int64

	// shipMu serializes, per partition, the engine-state export with its
	// seq allocation (exportBatches). Lock instances are never removed —
	// a partition dropped mid-ship must still order against the ship in
	// flight — and the map is bounded by the ring size.
	shipMu map[int]*sync.Mutex
}

type replPart struct {
	dirty map[core.UserID]struct{}
	seq   uint64
	// needFull records that this partition's backlog tripped the cap:
	// the dirty set was dropped and the next flush re-ships the
	// partition's full state instead. While set, new dirt is skipped —
	// the pending full export covers it, because flushAll clears the
	// flag before exporting (every drop happens before its covering
	// export reads state).
	needFull bool
}

func newReplicator(n *Node) *replicator {
	cap := n.cfg.ReplBacklog
	if cap == 0 {
		cap = defaultReplBacklog
	}
	if cap < 0 {
		cap = 0 // explicit "unlimited"
	}
	return &replicator{n: n, parts: map[int]*replPart{}, shipMu: map[int]*sync.Mutex{}, backlogCap: cap}
}

// shipLock returns p's export-order lock, creating it on first use.
func (r *replicator) shipLock(p int) *sync.Mutex {
	r.mu.Lock()
	defer r.mu.Unlock()
	mu, ok := r.shipMu[p]
	if !ok {
		mu = &sync.Mutex{}
		r.shipMu[p] = mu
	}
	return mu
}

// ensure starts tracking partition p (idempotent).
func (r *replicator) ensure(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.parts[p]; !ok {
		r.parts[p] = &replPart{dirty: map[core.UserID]struct{}{}}
	}
}

// drop stops tracking partition p (this node is no longer its primary).
func (r *replicator) drop(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.parts[p]; ok {
		r.dirtyTotal -= int64(len(st.dirty))
	}
	delete(r.parts, p)
}

// addDirtyLocked records u in st's dirty set under r.mu, enforcing the
// backlog cap: past it, the set collapses into st.needFull and further
// dirt is skipped until the full re-ship runs.
func (r *replicator) addDirtyLocked(st *replPart, u core.UserID) {
	if st.needFull {
		return
	}
	if _, ok := st.dirty[u]; ok {
		return
	}
	if r.backlogCap > 0 && len(st.dirty) >= r.backlogCap {
		st.needFull = true
		r.dirtyTotal -= int64(len(st.dirty))
		st.dirty = map[core.UserID]struct{}{}
		return
	}
	st.dirty[u] = struct{}{}
	r.dirtyTotal++
	if r.dirtyTotal > r.backlogHW {
		r.backlogHW = r.dirtyTotal
	}
}

// markDirty queues u for the async tail. A no-op for partitions this
// node does not track (it is not their primary).
func (r *replicator) markDirty(p int, u core.UserID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.parts[p]; ok {
		r.addDirtyLocked(st, u)
	}
}

// requeue puts users back in p's dirty set after a failed ship —
// subject to the same backlog cap as fresh dirt, so repeated ship
// failures against a dead mirror degrade into the needFull flag
// instead of an ever-growing set.
func (r *replicator) requeue(p int, users []core.UserID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.parts[p]
	if !ok {
		return
	}
	for _, u := range users {
		r.addDirtyLocked(st, u)
	}
}

// takeDirty drains and returns p's dirty set.
func (r *replicator) takeDirty(p int) []core.UserID {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.parts[p]
	if !ok || len(st.dirty) == 0 {
		return nil
	}
	users := make([]core.UserID, 0, len(st.dirty))
	for u := range st.dirty {
		users = append(users, u)
	}
	r.dirtyTotal -= int64(len(st.dirty))
	st.dirty = map[core.UserID]struct{}{}
	return users
}

// takeNeedFull reports and clears p's pending-full-re-ship flag. The
// clear-before-export ordering matters: dirt arriving after the clear
// is tracked normally, dirt that arrived before it is covered by the
// export the caller is about to run (which reads current state).
func (r *replicator) takeNeedFull(p int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.parts[p]
	if !ok || !st.needFull {
		return false
	}
	st.needFull = false
	return true
}

// setNeedFull re-arms p's full re-ship after a failed one.
func (r *replicator) setNeedFull(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.parts[p]; ok {
		st.needFull = true
	}
}

// backlogHighWater is the replica_backlog_users gauge: the most dirty
// users ever pending at once across partitions.
func (r *replicator) backlogHighWater() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.backlogHW
}

func (r *replicator) nextSeq(p int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.parts[p]
	if !ok {
		return 0
	}
	st.seq++
	return st.seq
}

// partitions snapshots the tracked partition set in stable order.
func (r *replicator) partitions() []int {
	r.mu.Lock()
	out := make([]int, 0, len(r.parts))
	for p := range r.parts {
		out = append(out, p)
	}
	r.mu.Unlock()
	sort.Ints(out)
	return out
}

// lag is the hyrec_replica_lag_users gauge: users whose latest state has
// not yet been acknowledged by their partition's replica.
func (r *replicator) lag() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, st := range r.parts {
		n += int64(len(st.dirty))
	}
	return n
}

// replicaAddr resolves the replica destination for p under the current
// map. ok is false when the partition has no distinct replica (a
// single-node deployment, or mid-failover before a new map is in force).
func (r *replicator) replicaAddr(p int) (string, bool) {
	rep := r.n.nm.Load().Replica(p)
	if rep == nil || rep.ID == r.n.self.ID {
		return "", false
	}
	return rep.Addr, true
}

// ship exports the listed users from p's engine and streams them to
// dstAddr in MaxReplUsers-sized batches. Unknown users are skipped by
// ExportUsers; an error leaves delivery incomplete and the caller
// decides whether to requeue.
func (r *replicator) ship(ctx context.Context, p int, users []core.UserID, full bool, dstAddr string) error {
	batches := r.exportBatches(p, users, full)
	peer := r.n.peer(dstAddr)
	for _, b := range batches {
		if _, err := peer.Replicate(ctx, b); err != nil {
			return err
		}
	}
	return nil
}

// exportBatches snapshots the users' engine state and stamps each chunk
// with the next (epoch, seq) under p's ship lock: the state read and
// the seq allocation are one atomic step, so of two racing ships the
// one that exported *later* state always carries the higher stamp.
// Without that ordering, a ship that exported before an overlapping
// rating but allocated its seq after the rating's own ship would hand
// the mirror a staler snapshot under a newer stamp — the recency gate
// would install it verbatim, silently dropping an acknowledged rating
// from the replica. Delivery itself happens outside the lock; the
// mirror's per-user gate reorders whatever the network interleaves.
func (r *replicator) exportBatches(p int, users []core.UserID, full bool) []*wire.ReplBatch {
	mu := r.shipLock(p)
	mu.Lock()
	defer mu.Unlock()
	states := r.n.cl.Engine(p).ExportUsers(users)
	if len(states) == 0 {
		return nil
	}
	epoch := r.n.nm.Load().Epoch
	batches := make([]*wire.ReplBatch, 0, (len(states)+wire.MaxReplUsers-1)/wire.MaxReplUsers)
	for start := 0; start < len(states); start += wire.MaxReplUsers {
		end := min(start+wire.MaxReplUsers, len(states))
		b := &wire.ReplBatch{
			Epoch:     epoch,
			Partition: p,
			Seq:       r.nextSeq(p),
			Full:      full,
			Users:     make([]wire.ReplUser, 0, end-start),
		}
		for _, st := range states[start:end] {
			b.Users = append(b.Users, replUserFromState(st))
		}
		batches = append(batches, b)
	}
	return batches
}

// shipSync is the semi-synchronous leg of RateBatch: the dirtied users'
// state goes to the replica before the rating ack returns, so an
// acknowledged rating survives the immediate death of its primary. When
// the replica is unreachable (it may be the node that just died), the
// users fall back to the async tail — the coordinator will have
// published a new map by the time it runs.
func (r *replicator) shipSync(ctx context.Context, dirty map[int][]core.UserID) {
	for p, users := range dirty {
		users = dedupeUsers(users)
		addr, ok := r.replicaAddr(p)
		if !ok {
			continue
		}
		if err := r.ship(ctx, p, users, false, addr); err != nil {
			r.requeue(p, users)
		}
	}
}

// flushAll drains every partition's dirty set to its replica — the
// async tail. Failed partitions are requeued for the next tick. A
// partition whose backlog tripped the cap gets a full-state re-ship
// instead, the anti-entropy fallback that makes the dropped dirty set
// safe. The needFull flag is cleared *before* the export so the
// drop-before-covering-export invariant holds (see replPart.needFull);
// a failed full ship re-arms it.
func (r *replicator) flushAll(ctx context.Context) {
	for _, p := range r.partitions() {
		needFull := r.takeNeedFull(p)
		users := r.takeDirty(p)
		if !needFull && len(users) == 0 {
			continue
		}
		addr, ok := r.replicaAddr(p)
		if !ok {
			continue // no replica configured: nothing owes this state
		}
		if needFull {
			// The dirty users are a subset of the partition's full state,
			// so the full shipment covers the drained set too.
			all := r.n.cl.Engine(p).Profiles().Users()
			if err := r.ship(ctx, p, all, true, addr); err != nil {
				r.setNeedFull(p)
			}
			continue
		}
		if err := r.ship(ctx, p, users, false, addr); err != nil {
			r.requeue(p, users)
		}
	}
}

// fullSyncAll is the anti-entropy pass: re-ship every known user of
// every primary partition. Errors are dropped — the next pass repeats
// the full state anyway. A successful pass also discharges a pending
// needFull re-ship (cleared before the export, like flushAll, so a
// backlog trip racing the delivery re-arms rather than being lost).
func (r *replicator) fullSyncAll(ctx context.Context) {
	for _, p := range r.partitions() {
		addr, ok := r.replicaAddr(p)
		if !ok {
			continue
		}
		needFull := r.takeNeedFull(p)
		users := r.n.cl.Engine(p).Profiles().Users()
		if len(users) == 0 {
			continue
		}
		if err := r.ship(ctx, p, users, true, addr); err != nil && needFull {
			r.setNeedFull(p)
		}
	}
}

// handoff ships p's full state to its new primary under map m — the
// demotion leg of a rebalance (a node rejoining takes its partitions
// back). Best-effort: the new primary's anti-entropy inherits whatever
// a failed handoff missed, since this node stays p's replica.
func (r *replicator) handoff(p int, m *wire.NodeMap) {
	pr := m.Primary(p)
	if pr == nil || pr.ID == r.n.self.ID {
		return
	}
	users := r.n.cl.Engine(p).Profiles().Users()
	if len(users) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.n.cfg.PeerTimeout)
	defer cancel()
	if err := r.ship(ctx, p, users, true, pr.Addr); err != nil {
		r.n.handoffErrors.Add(1)
	}
}

// loop drives the async tail and the anti-entropy pass until stop.
func (r *replicator) loop(wg *sync.WaitGroup, stop <-chan struct{}) {
	defer wg.Done()
	if r.n.cfg.ReplicateEvery <= 0 {
		<-stop
		return
	}
	tail := time.NewTicker(r.n.cfg.ReplicateEvery)
	defer tail.Stop()
	var antiC <-chan time.Time
	if r.n.cfg.AntiEntropyEvery > 0 {
		anti := time.NewTicker(r.n.cfg.AntiEntropyEvery)
		defer anti.Stop()
		antiC = anti.C
	}
	for {
		select {
		case <-stop:
			// Final drain so a clean shutdown leaves no dirty tail
			// (skipped when killed: SIGKILL gets no goodbye flush).
			if !r.n.killed.Load() {
				ctx, cancel := context.WithTimeout(context.Background(), r.n.cfg.PeerTimeout)
				r.flushAll(ctx)
				cancel()
			}
			return
		case <-tail.C:
			ctx, cancel := context.WithTimeout(context.Background(), r.n.cfg.PeerTimeout)
			r.flushAll(ctx)
			cancel()
		case <-antiC:
			ctx, cancel := context.WithTimeout(context.Background(), 2*r.n.cfg.PeerTimeout)
			r.fullSyncAll(ctx)
			cancel()
		}
	}
}

func dedupeUsers(users []core.UserID) []core.UserID {
	if len(users) < 2 {
		return users
	}
	seen := make(map[core.UserID]struct{}, len(users))
	out := users[:0]
	for _, u := range users {
		if _, ok := seen[u]; ok {
			continue
		}
		seen[u] = struct{}{}
		out = append(out, u)
	}
	return out
}
