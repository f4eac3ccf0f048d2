package node

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyrec/client"
	"hyrec/internal/cluster"
	"hyrec/internal/core"
	"hyrec/internal/sched"
	"hyrec/internal/server"
	"hyrec/internal/wire"
)

// Config parametrises one node process.
type Config struct {
	// Self is this node's identity; it must appear in Members.
	Self Member
	// Members is the deployment's static membership (including Self).
	// Nodes that are down at boot are still listed — heartbeats demote
	// them and the coordinator reassigns their partitions.
	Members []Member
	// Partitions is the ring size every member must agree on.
	Partitions int
	// Engine configures the embedded cluster (seed, K, R, scheduler…);
	// every member must share it so engines, pseudonym spaces and lease
	// lanes are identical across processes.
	Engine server.Config

	// ReplicateEvery paces the async replication tail (default 100ms).
	ReplicateEvery time.Duration
	// ReplBacklog caps each partition's replication dirty set — the
	// users queued for the async tail while a mirror is unreachable.
	// Past the cap the set is dropped and the partition is flagged for
	// one full-state re-ship instead, so a long-dead mirror costs
	// constant memory. 0 = default (8192); negative = unlimited.
	ReplBacklog int
	// AntiEntropyEvery paces per-partition full-state syncs (default 30s;
	// negative disables).
	AntiEntropyEvery time.Duration
	// HeartbeatEvery paces peer liveness probes (default 1s; negative
	// disables the heartbeat/failover loop — tests drive it manually).
	HeartbeatEvery time.Duration
	// DeadAfter is how many consecutive missed heartbeats declare a peer
	// dead (default 3).
	DeadAfter int
	// PeerTimeout bounds every node-to-node request (default 5s).
	PeerTimeout time.Duration
	// PeerSecret, when non-empty, is sent on every node-to-node request
	// and required of inbound node-plane traffic (the HTTP front-end
	// enforces it — see server.NodeSecretHeader). Every member must share
	// it.
	PeerSecret string
}

func (c Config) withDefaults() Config {
	if c.ReplicateEvery == 0 {
		c.ReplicateEvery = 100 * time.Millisecond
	}
	if c.AntiEntropyEvery == 0 {
		c.AntiEntropyEvery = 30 * time.Second
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 5 * time.Second
	}
	return c
}

// Node is one process of a multi-node HyRec deployment: a full
// hyrec.Service over the entire ring, serving owned partitions locally
// and proxying the rest to their primaries. See the package comment for
// the architecture.
type Node struct {
	cfg     Config
	self    Member
	members []Member // sorted by ID
	cl      *cluster.Cluster

	// nm is the node map currently in force (never nil after New).
	nm atomic.Pointer[wire.NodeMap]

	// mapMu serializes map transitions (applyMap), not map reads.
	mapMu sync.Mutex

	peerMu sync.Mutex
	peers  map[string]*client.Client // addr → node-plane client

	repl *replicator

	// seen is the mirror-side recency gate: per partition, the highest
	// (epoch, seq) applied for each user. Guarded by seenMu.
	seenMu sync.Mutex
	seen   map[int]map[core.UserID]replVer

	hb *heartbeats

	failovers atomic.Int64
	// handoffErrors and mapPushErrors count best-effort node-plane sends
	// that failed: state handoffs to a new primary and node-map pushes
	// to peers. Both are repaired later (anti-entropy, epoch repair), so
	// a failure is counted rather than returned.
	handoffErrors atomic.Int64
	mapPushErrors atomic.Int64

	stopCh   chan struct{}
	wg       sync.WaitGroup
	closeOne sync.Once
	killed   atomic.Bool
}

// New builds a node and applies the boot node map: epoch 1 over the full
// member set, computed identically by every member, so a cleanly-booted
// deployment agrees on ownership before any heartbeat exchange. Call
// Start to launch the replication and failover loops.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Partitions < 1 {
		return nil, fmt.Errorf("node: partitions must be >= 1, got %d", cfg.Partitions)
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("node: empty membership")
	}
	members := append([]Member(nil), cfg.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	found := false
	for _, m := range members {
		if m.ID == cfg.Self.ID {
			found = true
			if m.Addr != cfg.Self.Addr {
				return nil, fmt.Errorf("node: self addr %q disagrees with membership %q", cfg.Self.Addr, m.Addr)
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("node: self %q not in membership", cfg.Self.ID)
	}
	n := &Node{
		cfg:     cfg,
		self:    cfg.Self,
		members: members,
		cl:      cluster.New(cfg.Engine, cfg.Partitions),
		peers:   make(map[string]*client.Client),
		seen:    map[int]map[core.UserID]replVer{},
		stopCh:  make(chan struct{}),
	}
	n.repl = newReplicator(n)
	n.hb = newHeartbeats(n)
	boot := BuildMap(members, cfg.Partitions, 1)
	n.applyMap(boot)
	return n, nil
}

// Start launches the background loops (replication tail, anti-entropy,
// heartbeats). Idempotent enough for tests to skip it entirely.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.repl.loop(&n.wg, n.stopCh)
	if n.cfg.HeartbeatEvery > 0 {
		n.wg.Add(1)
		go n.hb.loop(&n.wg, n.stopCh)
	}
}

// Close stops the loops — draining the replication tail — and the
// embedded cluster.
func (n *Node) Close() error {
	n.closeOne.Do(func() { close(n.stopCh) })
	n.wg.Wait()
	n.peerMu.Lock()
	for _, p := range n.peers {
		p.Close()
	}
	n.peers = map[string]*client.Client{}
	n.peerMu.Unlock()
	return n.cl.Close()
}

// Kill is the SIGKILL stand-in for tests: stop without the replication
// drain or partition handoff a clean Close performs. Acknowledged state
// must survive through the replica alone.
func (n *Node) Kill() {
	n.killed.Store(true)
	n.closeOne.Do(func() { close(n.stopCh) })
	n.wg.Wait()
	n.peerMu.Lock()
	for _, p := range n.peers {
		p.Close()
	}
	n.peers = map[string]*client.Client{}
	n.peerMu.Unlock()
	_ = n.cl.Close()
}

// Cluster exposes the embedded cluster (tests and the persist saver).
func (n *Node) Cluster() *cluster.Cluster { return n.cl }

// Map returns the node map currently in force.
func (n *Node) Map() *wire.NodeMap { return n.nm.Load() }

// NodeEpoch implements server.NodePlane: /healthz advertises the
// map epoch in force, turning heartbeats into an epoch exchange.
func (n *Node) NodeEpoch() uint64 { return n.nm.Load().Epoch }

// Self returns this node's identity.
func (n *Node) Self() Member { return n.self }

// peer returns (building if needed) the node-plane client for addr. The
// forwarded marker is set on every request it issues, so the receiving
// node answers not_primary instead of proxying a second hop.
func (n *Node) peer(addr string) *client.Client {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	if p, ok := n.peers[addr]; ok {
		return p
	}
	opts := []client.Option{
		client.WithHeader(server.ForwardedHeader, "1"),
		client.WithTimeout(n.cfg.PeerTimeout),
		client.WithRetries(1, 25*time.Millisecond),
	}
	if n.cfg.PeerSecret != "" {
		opts = append(opts, client.WithHeader(server.NodeSecretHeader, n.cfg.PeerSecret))
	}
	// When the static membership advertises a framed listener for this
	// peer, the replication shipments and proxy hops ride it (with the
	// JSON path as automatic fallback).
	for _, m := range n.cfg.Members {
		if m.Addr == addr && m.FrameAddr != "" {
			opts = append(opts, client.WithFramed(m.FrameAddr))
			break
		}
	}
	p := client.New(addr, opts...)
	n.peers[addr] = p
	return p
}

// ---- role resolution ----

// owner resolves the primary serving u's partition under the current
// map. local reports whether that primary is this node.
func (n *Node) owner(u core.UserID) (p int, primary *wire.NodeInfo, local bool) {
	p = n.cl.Partition(u)
	primary = n.nm.Load().Primary(p)
	local = primary != nil && primary.ID == n.self.ID
	return p, primary, local
}

// notPrimaryErr builds the typed rejection for partition p.
func (n *Node) notPrimaryErr(p int) error {
	e := &server.NotPrimaryError{Partition: p}
	if pr := n.nm.Load().Primary(p); pr != nil && pr.ID != n.self.ID {
		e.PrimaryID, e.PrimaryAddr = pr.ID, pr.Addr
	}
	return e
}

// ---- node map application ----

// ApplyNodeMap implements server.NodePlane: adopt a pushed map if its
// epoch is newer than the one in force.
func (n *Node) ApplyNodeMap(_ context.Context, m *wire.NodeMap) error {
	if m.Partitions != n.cfg.Partitions {
		return fmt.Errorf("node: pushed map has %d partitions, ring has %d", m.Partitions, n.cfg.Partitions)
	}
	n.applyMap(m)
	return nil
}

// applyMap puts m in force if it is newer, re-gating every partition's
// role: engines this node now serves as primary leave scheduler standby
// (their accumulated import backlog dispatches at once — the
// reconvergence queue); engines it no longer serves drain their leases
// via Evict, hand their state to the new primary, and re-enter standby.
func (n *Node) applyMap(m *wire.NodeMap) {
	n.mapMu.Lock()
	defer n.mapMu.Unlock()
	old := n.nm.Load()
	if old != nil && !supersedes(m, old) {
		return
	}
	newPrimary, _ := roles(m, n.self.ID)
	var oldPrimary map[int]bool
	if old != nil {
		oldPrimary, _ = roles(old, n.self.ID)
	}
	newNodes := map[string]bool{}
	for _, nd := range m.Nodes {
		newNodes[nd.ID] = true
	}

	// Publish the map before re-gating so proxy decisions and rejections
	// already reflect it.
	n.nm.Store(m)

	for p := 0; p < n.cfg.Partitions; p++ {
		e := n.cl.Engine(p)
		wasPrimary := old == nil || oldPrimary[p] // boot: engines start live
		isPrimary := newPrimary[p]
		switch {
		case isPrimary && !wasPrimary:
			// Promotion. When the old primary vanished from the map (died
			// or left) rather than handing off, this is a failover.
			if oldPrim := primaryIn(old, p); oldPrim != "" && !newNodes[oldPrim] {
				n.failovers.Add(1)
			}
			e.SetStandby(false)
			// Every mirrored user re-converges against the new
			// neighbourhood; imports already marked them stale, this
			// catches users imported before the scheduler existed in
			// standby or snapshot-restored ones.
			for _, u := range e.Profiles().Users() {
				e.MarkStale(u)
			}
			n.repl.ensure(p)
		case !isPrimary && wasPrimary:
			// Demotion (node join rebalance, or boot on a non-owned
			// partition). Drain leases so no job for this partition stays
			// out under a lease this node can no longer complete, ship
			// state to the new primary, then park the dispatch side.
			if s := e.Scheduler(); s != nil {
				for _, u := range e.Profiles().Users() {
					s.Evict(u)
				}
			}
			e.SetStandby(true)
			if old != nil {
				n.repl.handoff(p, m)
			}
			n.repl.drop(p)
		case isPrimary:
			n.repl.ensure(p)
		default:
			e.SetStandby(true)
			n.repl.drop(p)
		}
	}
}

// supersedes reports whether map m must replace the map in force. A
// higher epoch always wins. At an equal epoch, two *different*
// coordinators have raced a publish (a partial partition where each saw
// its own alive majority); the lower coordinator ID wins the tie, so
// every node both publishers can reach converges on one map instead of
// keeping whichever push arrived first.
func supersedes(m, cur *wire.NodeMap) bool {
	if m.Epoch != cur.Epoch {
		return m.Epoch > cur.Epoch
	}
	return m.Coordinator != "" && cur.Coordinator != "" && m.Coordinator < cur.Coordinator
}

// primaryIn returns the ID of p's primary in m ("" when m is nil or
// unassigned).
func primaryIn(m *wire.NodeMap, p int) string {
	if m == nil {
		return ""
	}
	if pr := m.Primary(p); pr != nil {
		return pr.ID
	}
	return ""
}

// ---- hyrec.Service ----

// Rate implements hyrec.Service.
func (n *Node) Rate(ctx context.Context, u core.UserID, item core.ItemID, liked bool) error {
	return n.RateBatch(ctx, []core.Rating{{User: u, Item: item, Liked: liked}})
}

// RateBatch implements hyrec.Service: locally-owned ratings are applied
// and synchronously replicated to their partitions' mirrors before the
// ack returns (zero acknowledged-rating loss while the replica is
// reachable); ratings for users owned elsewhere are proxied to their
// primaries.
func (n *Node) RateBatch(ctx context.Context, ratings []core.Rating) error {
	var local []core.Rating
	dirty := map[int][]core.UserID{}
	var remote map[string][]core.Rating // addr → ratings
	for _, r := range ratings {
		p, primary, isLocal := n.owner(r.User)
		if isLocal {
			local = append(local, r)
			dirty[p] = append(dirty[p], r.User)
			continue
		}
		if server.IsForwarded(ctx) || primary == nil {
			return n.notPrimaryErr(p)
		}
		if remote == nil {
			remote = map[string][]core.Rating{}
		}
		remote[primary.Addr] = append(remote[primary.Addr], r)
	}
	if len(local) > 0 {
		if err := n.cl.RateBatch(ctx, local); err != nil {
			return err
		}
		n.repl.shipSync(ctx, dirty)
	}
	for addr, batch := range remote {
		if err := n.peer(addr).RateBatch(ctx, batch); err != nil {
			return err
		}
	}
	return nil
}

// Job implements hyrec.Service.
func (n *Node) Job(ctx context.Context, u core.UserID) (*wire.Job, error) {
	p, primary, local := n.owner(u)
	if local {
		return n.cl.Job(ctx, u)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return nil, n.notPrimaryErr(p)
	}
	return n.peer(primary.Addr).Job(ctx, u)
}

// AppendJobPayload implements server.Backend. The local path is
// the embedded cluster's zero-allocation append; the proxy path fetches
// the owner's exact payload bytes (client.JobRaw), so a proxied payload
// is byte-identical to one served by the owner directly.
func (n *Node) AppendJobPayload(ctx context.Context, u core.UserID, jsonDst, gzDst []byte) (jsonBody, gzBody []byte, err error) {
	p, primary, local := n.owner(u)
	if local {
		return n.cl.AppendJobPayload(ctx, u, jsonDst, gzDst)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return nil, nil, n.notPrimaryErr(p)
	}
	raw, err := n.peer(primary.Addr).JobRaw(ctx, u)
	if err != nil {
		return nil, nil, err
	}
	jsonBody = append(jsonDst[:0], raw...)
	gzBody, err = wire.AppendGzip(gzDst[:0], jsonBody, n.cfg.Engine.GzipLevel)
	if err != nil {
		return nil, nil, err
	}
	return jsonBody, gzBody, nil
}

// AppendJobJSON implements server.Backend: the framed plane's
// gzip-free twin of AppendJobPayload. The proxy path already carries
// raw JSON bytes (client.JobRaw), so neither leg compresses anything.
func (n *Node) AppendJobJSON(ctx context.Context, u core.UserID, jsonDst []byte) ([]byte, error) {
	p, primary, local := n.owner(u)
	if local {
		return n.cl.AppendJobJSON(ctx, u, jsonDst)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return nil, n.notPrimaryErr(p)
	}
	raw, err := n.peer(primary.Addr).JobRaw(ctx, u)
	if err != nil {
		return nil, err
	}
	return append(jsonDst[:0], raw...), nil
}

// ApplyResult implements hyrec.Service. The partition is routed by the
// result's lease lane when present (every node mints identical lanes),
// falling back to pseudonym resolution — identical anonymiser seeds make
// an alias minted by the owner resolvable on any node that has not
// rotated past it. A result landing on the partition's replica is
// rejected typed (never silently folded into the mirror); other
// non-owners proxy to the primary.
func (n *Node) ApplyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, error) {
	p := -1
	if res.Lease != 0 {
		p = n.cl.LanePartition(res.Lease)
	}
	if p < 0 {
		if u, ok := n.cl.ResolveUser(core.UserID(res.UID), res.Epoch); ok {
			p = n.cl.Partition(u)
		}
	}
	if p < 0 {
		// Unroutable everywhere — surface the cluster's typed rejection.
		return n.cl.ApplyResult(ctx, res)
	}
	m := n.nm.Load()
	primary := m.Primary(p)
	if primary != nil && primary.ID == n.self.ID {
		recs, err := n.cl.ApplyResult(ctx, res)
		if err == nil {
			if u, ok := n.cl.ResolveUser(core.UserID(res.UID), res.Epoch); ok {
				n.repl.markDirty(p, u)
			}
		}
		return recs, err
	}
	if replica := m.Replica(p); replica != nil && replica.ID == n.self.ID {
		// The mirror must not fold results in: its tables are a replica
		// of the primary's history, not a second authority.
		return nil, n.notPrimaryErr(p)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return nil, n.notPrimaryErr(p)
	}
	return n.peer(primary.Addr).ApplyResult(ctx, res)
}

// Ack implements server.JobSource under the same role gate as
// ApplyResult: primaries ack locally, replicas reject typed, everyone
// else proxies.
func (n *Node) Ack(ctx context.Context, lease uint64, done bool) error {
	p := n.cl.LanePartition(lease)
	if p < 0 {
		return fmt.Errorf("%w: %d", server.ErrUnknownLease, lease)
	}
	m := n.nm.Load()
	primary := m.Primary(p)
	if primary != nil && primary.ID == n.self.ID {
		return n.cl.Ack(ctx, lease, done)
	}
	if replica := m.Replica(p); replica != nil && replica.ID == n.self.ID {
		return n.notPrimaryErr(p)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return n.notPrimaryErr(p)
	}
	return n.peer(primary.Addr).Ack(ctx, lease, done)
}

// NextJob implements server.JobSource: only locally-primary partitions
// dispatch (standby schedulers park their backlog), so a worker attached
// to this node computes only for users this node owns.
func (n *Node) NextJob(ctx context.Context) (*wire.Job, error) { return n.cl.NextJob(ctx) }

// Recommendations implements hyrec.Service.
func (n *Node) Recommendations(ctx context.Context, u core.UserID, k int) ([]core.ItemID, error) {
	p, primary, local := n.owner(u)
	if local {
		return n.cl.Recommendations(ctx, u, k)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return nil, n.notPrimaryErr(p)
	}
	return n.peer(primary.Addr).Recommendations(ctx, u, k)
}

// Neighbors implements hyrec.Service.
func (n *Node) Neighbors(ctx context.Context, u core.UserID) ([]core.UserID, error) {
	p, primary, local := n.owner(u)
	if local {
		return n.cl.Neighbors(ctx, u)
	}
	if server.IsForwarded(ctx) || primary == nil {
		return nil, n.notPrimaryErr(p)
	}
	return n.peer(primary.Addr).Neighbors(ctx, u)
}

// ---- Backend and NodePlane ----

// Replicate implements server.NodePlane: ingest a primary's batch.
// Batches for partitions this node neither mirrors nor owns are
// rejected typed. Two ingest disciplines make delivery idempotent under
// duplication and reordering:
//
//   - A mirror installs each record as a verbatim snapshot, but only
//     when the batch's (epoch, seq) — monotone over the primary's reign
//     and across reigns — is newer than the last record applied for
//     that user. The newest snapshot wins regardless of arrival order;
//     older and duplicate records are dropped at the gate.
//   - A primary (the handoff tail of a rebalance, or a just-promoted
//     replica catching a straggler) merges destination-wins
//     (ImportUsers), so opinions it accepted since taking over are
//     never clobbered by an in-flight older snapshot.
func (n *Node) Replicate(_ context.Context, b *wire.ReplBatch) (*wire.ReplAck, error) {
	if b.Partition >= n.cfg.Partitions {
		return nil, fmt.Errorf("node: repl batch for partition %d, ring has %d", b.Partition, n.cfg.Partitions)
	}
	m := n.nm.Load()
	selfReplica := false
	if r := m.Replica(b.Partition); r != nil && r.ID == n.self.ID {
		selfReplica = true
	}
	selfPrimary := false
	if pr := m.Primary(b.Partition); pr != nil && pr.ID == n.self.ID {
		selfPrimary = true
	}
	if !selfReplica && !selfPrimary {
		return nil, n.notPrimaryErr(b.Partition)
	}
	states := make([]server.UserState, 0, len(b.Users))
	for _, ru := range b.Users {
		st, err := replUserState(ru)
		if err != nil {
			return nil, err
		}
		states = append(states, st)
	}
	e := n.cl.Engine(b.Partition)
	if selfPrimary {
		e.ImportUsers(states)
		return &wire.ReplAck{Applied: len(states), Seq: b.Seq}, nil
	}
	fresh := n.gateFresh(b, states)
	e.ImportUsersSnapshot(fresh)
	return &wire.ReplAck{Applied: len(fresh), Seq: b.Seq}, nil
}

// replVer orders replication records: lexicographic (epoch, seq).
type replVer struct{ epoch, seq uint64 }

func (v replVer) newer(than replVer) bool {
	return v.epoch > than.epoch || (v.epoch == than.epoch && v.seq > than.seq)
}

// gateFresh filters a mirror batch down to records newer than anything
// already applied for their user, recording the new high-water marks.
func (n *Node) gateFresh(b *wire.ReplBatch, states []server.UserState) []server.UserState {
	v := replVer{epoch: b.Epoch, seq: b.Seq}
	n.seenMu.Lock()
	defer n.seenMu.Unlock()
	ps := n.seen[b.Partition]
	if ps == nil {
		ps = map[core.UserID]replVer{}
		n.seen[b.Partition] = ps
	}
	fresh := states[:0]
	for _, st := range states {
		u := st.Profile.User()
		if have, ok := ps[u]; ok && !v.newer(have) {
			continue
		}
		ps[u] = v
		fresh = append(fresh, st)
	}
	return fresh
}

// RotateAnonymizer implements server.Backend on every local engine.
// Deployments that rotate must do so on every node with the same period,
// or cross-node pseudonym resolution drifts (a drifted result surfaces
// as stale_epoch and is re-issued — safe, but wasteful).
func (n *Node) RotateAnonymizer() { n.cl.RotateAnonymizers() }

// ResolveUser implements server.Backend.
func (n *Node) ResolveUser(alias core.UserID, epoch uint64) (core.UserID, bool) {
	return n.cl.ResolveUser(alias, epoch)
}

// Config implements server.Backend.
func (n *Node) Config() server.Config { return n.cl.Config() }

// CountWorkerJob implements server.Backend.
func (n *Node) CountWorkerJob(job *wire.Job, jsonBytes, gzBytes int) {
	n.cl.CountWorkerJob(job, jsonBytes, gzBytes)
}

// Topology implements server.Backend: the embedded cluster's
// ring shape plus the node map in force.
func (n *Node) Topology() wire.Topology {
	t := n.cl.Topology()
	m := n.nm.Load()
	t.NodeEpoch = m.Epoch
	t.Nodes = m.Nodes
	t.Self = n.self.ID
	t.NodeCoordinator = m.Coordinator
	return t
}

// LocateUser implements server.NodePlane.
func (n *Node) LocateUser(u core.UserID) (wire.NodeRef, bool) {
	p := n.cl.Partition(u)
	pr := n.nm.Load().Primary(p)
	if pr == nil {
		return wire.NodeRef{}, false
	}
	return wire.NodeRef{ID: pr.ID, Addr: pr.Addr, Partition: p}, true
}

// Stats implements server.Backend: the embedded cluster's counters
// with the scheduler roll-up restricted to locally-primary partitions
// (a standby mirror's parked backlog is the primary's convergence debt,
// not this node's), plus the replication gauges.
func (n *Node) Stats() map[string]any {
	stats := n.cl.Stats()
	m := n.nm.Load()
	primary, replica := roles(m, n.self.ID)
	server.AddSchedStats(stats, schedStatsFor(n.cl, primary))
	stats["nodes"] = int64(len(m.Nodes))
	stats["node_epoch"] = int64(m.Epoch)
	stats["node_id"] = n.self.ID
	stats["node_role"] = roleName(len(primary), len(replica))
	stats["node_partitions_primary"] = int64(len(primary))
	stats["node_partitions_replica"] = int64(len(replica))
	stats["replica_lag_users"] = n.repl.lag()
	stats["replica_backlog_users"] = n.repl.backlogHighWater()
	stats["failovers_total"] = n.failovers.Load()
	stats["handoff_errors_total"] = n.handoffErrors.Load()
	stats["nodemap_push_errors_total"] = n.mapPushErrors.Load()
	return stats
}

func roleName(primaries, replicas int) string {
	switch {
	case primaries > 0:
		return "primary"
	case replicas > 0:
		return "replica"
	default:
		return "idle"
	}
}

// schedStatsFor aggregates scheduler stats over the given partitions
// only — a standby mirror's parked backlog must not count against this
// node's convergence gauges.
func schedStatsFor(cl *cluster.Cluster, parts map[int]bool) sched.Stats {
	var agg sched.Stats
	for p := range parts {
		s := cl.Engine(p).Scheduler()
		if s == nil {
			continue
		}
		st := s.Stats()
		agg.Issued += st.Issued
		agg.Dispatched += st.Dispatched
		agg.Acked += st.Acked
		agg.Abandoned += st.Abandoned
		agg.Expired += st.Expired
		agg.Reissued += st.Reissued
		agg.FallbackRuns += st.FallbackRuns
		agg.FallbackErrors += st.FallbackErrors
		agg.Pending += st.Pending
		agg.Leased += st.Leased
		agg.FallbackQueued += st.FallbackQueued
		agg.Unrefreshed += st.Unrefreshed
	}
	return agg
}

// replUserState converts a wire replication record to the engine's
// import form.
func replUserState(ru wire.ReplUser) (server.UserState, error) {
	u := core.UserID(ru.UID)
	liked := make([]core.ItemID, len(ru.Liked))
	for i, it := range ru.Liked {
		liked[i] = core.ItemID(it)
	}
	disliked := make([]core.ItemID, len(ru.Disliked))
	for i, it := range ru.Disliked {
		disliked[i] = core.ItemID(it)
	}
	prof, err := core.ProfileFromSets(u, liked, disliked)
	if err != nil {
		return server.UserState{}, fmt.Errorf("node: repl user %d: %w", ru.UID, err)
	}
	st := server.UserState{Profile: prof}
	if len(ru.Neighbors) > 0 {
		st.Neighbors = make([]core.UserID, len(ru.Neighbors))
		for i, v := range ru.Neighbors {
			st.Neighbors[i] = core.UserID(v)
		}
	}
	if len(ru.Recs) > 0 {
		st.Recs = make([]core.ItemID, len(ru.Recs))
		for i, v := range ru.Recs {
			st.Recs[i] = core.ItemID(v)
		}
	}
	return st, nil
}

// replUserFromState is the inverse: engine export → wire record.
func replUserFromState(st server.UserState) wire.ReplUser {
	ru := wire.ReplUser{UID: uint32(st.Profile.User())}
	for _, it := range st.Profile.Liked() {
		ru.Liked = append(ru.Liked, uint32(it))
	}
	for _, it := range st.Profile.Disliked() {
		ru.Disliked = append(ru.Disliked, uint32(it))
	}
	for _, v := range st.Neighbors {
		ru.Neighbors = append(ru.Neighbors, uint32(v))
	}
	for _, v := range st.Recs {
		ru.Recs = append(ru.Recs, uint32(v))
	}
	return ru
}

// Compile-time check: a node is a server.Backend with the node plane.
var (
	_ server.Backend   = (*Node)(nil)
	_ server.NodePlane = (*Node)(nil)
)
