package node

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"hyrec/internal/server"
	"hyrec/internal/wire"
)

// heartbeats is the liveness and failover loop. Every HeartbeatEvery it
// probes each other member's /healthz; DeadAfter consecutive misses
// declare a member dead. When the observed alive set disagrees with the
// node map in force, the coordinator — the alive member with the lowest
// ID, a total order every survivor computes identically — builds the
// next map (epoch+1) over the alive set, applies it locally (promoting
// its own mirrors) and pushes it to every alive peer, whose applyMap
// promotes theirs. Publishing requires a majority of the *static*
// membership alive, so a minority island can never fence off its own
// conflicting map (see reconcile).
//
// The probe doubles as an epoch exchange: /healthz answers carry the
// peer's map epoch (server.NodeEpochHeader), and every round repairs
// any disagreement — peers on a lower epoch get this node's map
// re-pushed, a peer on a higher epoch is pulled from. That loop, not
// the one-shot publish push, is what guarantees convergence: a node
// that missed the publish (timeout, restart) is caught on the next
// round, and a killed-and-restarted member — which boots on the
// epoch-1 map over the full static membership and would otherwise see
// nothing wrong once all peers answer — learns the cluster's current
// epoch and reconciles from there. A recovered member re-enters the
// alive set the same way and gets its partitions back through the
// demotion/handoff path.
type heartbeats struct {
	n  *Node
	hc *http.Client

	mu      sync.Mutex
	misses  map[string]int // member ID → consecutive missed probes
	probing bool
}

func newHeartbeats(n *Node) *heartbeats {
	// The probe fans out to every member concurrently each round; the
	// default transport keeps only 2 idle connections per host, so a
	// larger cluster would redial most peers every HeartbeatEvery. Size
	// the idle pool to the membership instead.
	return &heartbeats{
		n: n,
		hc: &http.Client{
			Timeout: n.cfg.PeerTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        len(n.cfg.Members) + 2,
				MaxIdleConnsPerHost: 2,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		misses: map[string]int{},
	}
}

func (h *heartbeats) loop(wg *sync.WaitGroup, stop <-chan struct{}) {
	defer wg.Done()
	t := time.NewTicker(h.n.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			h.Tick()
		}
	}
}

// probe is one /healthz answer: liveness plus the peer's advertised
// map epoch (0 when the header was absent — a non-node service).
type probe struct {
	id    string
	addr  string
	ok    bool
	epoch uint64
}

// Tick runs one probe round, repairs epoch drift, and reconciles the
// map. Exported on the struct (tests drive it directly with
// HeartbeatEvery disabled).
func (h *heartbeats) Tick() {
	h.mu.Lock()
	if h.probing { // previous round still timing out against a dead peer
		h.mu.Unlock()
		return
	}
	h.probing = true
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.probing = false
		h.mu.Unlock()
	}()

	n := h.n
	results := make(chan probe, len(n.members))
	probed := 0
	for _, m := range n.members {
		if m.ID == n.self.ID {
			continue
		}
		probed++
		go func(m Member) {
			ok, epoch := h.alive(m.Addr)
			results <- probe{id: m.ID, addr: m.Addr, ok: ok, epoch: epoch}
		}(m)
	}
	peers := make([]probe, 0, probed)
	h.mu.Lock()
	for i := 0; i < probed; i++ {
		r := <-results
		if r.ok {
			h.misses[r.id] = 0
			peers = append(peers, r)
		} else {
			h.misses[r.id]++
		}
	}
	alive := make([]Member, 0, len(n.members))
	for _, m := range n.members {
		if m.ID == n.self.ID || h.misses[m.ID] < n.cfg.DeadAfter {
			alive = append(alive, m)
		}
	}
	h.mu.Unlock()

	h.repair(peers)
	h.reconcile(alive)
}

// alive probes addr's /healthz, returning liveness and the node-map
// epoch the peer advertises (0 when unknown).
func (h *heartbeats) alive(addr string) (bool, uint64) {
	req, err := http.NewRequest(http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return false, 0
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return false, 0
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, 0
	}
	epoch, _ := strconv.ParseUint(resp.Header.Get(server.NodeEpochHeader), 10, 64)
	return true, epoch
}

// repair closes epoch drift observed on this round's probes: any
// responding peer on a lower epoch gets this node's map re-pushed
// (applyMap on the receiver gates by epoch, so re-delivery is
// idempotent), and if any peer advertises a higher epoch the newest map
// is pulled from it and adopted. Every member runs this every round, so
// a missed publish push or a restarted node converges within one
// heartbeat period instead of routing by a stale map indefinitely.
func (h *heartbeats) repair(peers []probe) {
	n := h.n
	cur := n.nm.Load()
	var newest *probe
	for i := range peers {
		p := &peers[i]
		if p.epoch == 0 {
			continue
		}
		if p.epoch < cur.Epoch {
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.PeerTimeout)
			if err := n.peer(p.addr).PushNodeMap(ctx, cur); err != nil {
				n.mapPushErrors.Add(1)
			}
			cancel()
		}
		if p.epoch > cur.Epoch && (newest == nil || p.epoch > newest.epoch) {
			newest = p
		}
	}
	if newest == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.PeerTimeout)
	defer cancel()
	t, err := n.peer(newest.addr).Topology(ctx)
	if err != nil || t.NodeEpoch <= cur.Epoch || t.Partitions != n.cfg.Partitions {
		return
	}
	n.applyMap(&wire.NodeMap{
		Epoch:       t.NodeEpoch,
		Partitions:  t.Partitions,
		Nodes:       t.Nodes,
		Coordinator: t.NodeCoordinator,
	})
}

// reconcile publishes a new node map when the alive set (or the
// assignment it implies) drifted from the map in force and this node is
// the coordinator for that alive set. Publishing requires seeing a
// strict majority of the static membership alive: under a symmetric
// partition both sides observe the other half dead, and without the
// quorum gate both lowest-ID survivors would publish conflicting maps
// at the same epoch and fork history. The minority side instead keeps
// the old map and serves what it can until the partition heals (so a
// 2-node deployment gets replication but no automatic failover — one
// survivor is not a majority of two).
func (h *heartbeats) reconcile(alive []Member) {
	n := h.n
	cur := n.nm.Load()
	if mapMatches(cur, alive, n.cfg.Partitions) {
		return
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].ID < alive[j].ID })
	if len(alive) == 0 || alive[0].ID != n.self.ID {
		return // another survivor coordinates
	}
	if len(alive) <= len(n.members)/2 {
		return // no quorum: never publish from a minority island
	}
	m := BuildMap(alive, n.cfg.Partitions, cur.Epoch+1)
	m.Coordinator = n.self.ID
	n.applyMap(m)
	h.push(m, alive)
}

// push distributes m to every alive peer, each under its own timeout so
// one slow peer cannot starve the rest of the round. Best-effort: a
// peer that misses the push is caught by the per-round epoch repair
// (repair), and rejects stray traffic with not_primary until then.
func (h *heartbeats) push(m *wire.NodeMap, alive []Member) {
	n := h.n
	for _, mb := range alive {
		if mb.ID == n.self.ID {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.PeerTimeout)
		if err := n.peer(mb.Addr).PushNodeMap(ctx, m); err != nil {
			n.mapPushErrors.Add(1)
		}
		cancel()
	}
}

// mapMatches reports whether the map in force already is what this node
// would publish over the alive set: same member set *and* the same
// partition assignment BuildMap derives from it. Comparing assignments,
// not just member IDs, means a map that somehow diverged from the
// deterministic placement (a buggy or malicious push) is repaired
// rather than trusted forever.
func mapMatches(m *wire.NodeMap, alive []Member, partitions int) bool {
	if len(m.Nodes) != len(alive) {
		return false
	}
	ids := make(map[string]bool, len(m.Nodes))
	for _, nd := range m.Nodes {
		ids[nd.ID] = true
	}
	for _, mb := range alive {
		if !ids[mb.ID] {
			return false
		}
	}
	want := BuildMap(alive, partitions, m.Epoch)
	for p := 0; p < partitions; p++ {
		if primaryIn(m, p) != primaryIn(want, p) {
			return false
		}
		gotR, wantR := m.Replica(p), want.Replica(p)
		gotID, wantID := "", ""
		if gotR != nil {
			gotID = gotR.ID
		}
		if wantR != nil {
			wantID = wantR.ID
		}
		if gotID != wantID {
			return false
		}
	}
	return true
}
