package server

import (
	"context"
	"errors"
	"fmt"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// This file is the server-side surface of multi-node deployments
// (internal/node): the role-gating error a non-primary answers with, the
// NodePlane capability behind replication ingest and node-map pushes,
// and the forwarded-request marking that keeps node-to-node proxying
// loop-free. The engine itself stays topology-blind; a node composes
// these pieces around it.

// ErrNotPrimary is returned when a request that mutates or reads a
// user's authoritative state lands on a node that does not serve the
// user's partition as primary — typically the replica that only mirrors
// it. The HTTP layer maps it to 421/not_primary, the same
// refetch-topology-and-retry-once family as ErrMoved: silently applying
// on a mirror would fork the partition's history.
var ErrNotPrimary = errors.New("server: node is not primary for the partition")

// NotPrimaryError decorates ErrNotPrimary with the partition and, when
// the rejecting node knows it, the primary's identity — surfaced in the
// error envelope so a node-aware client can re-target directly.
type NotPrimaryError struct {
	Partition   int
	PrimaryID   string
	PrimaryAddr string
}

func (e *NotPrimaryError) Error() string {
	if e.PrimaryAddr != "" {
		return fmt.Sprintf("server: partition %d is served by node %s (%s), not here", e.Partition, e.PrimaryID, e.PrimaryAddr)
	}
	return fmt.Sprintf("server: partition %d is not served as primary here", e.Partition)
}

func (e *NotPrimaryError) Unwrap() error { return ErrNotPrimary }

// NodePlane is the node-to-node surface of a multi-node deployment;
// only *node.Node implements it:
//
//   - Replicate ingests a primary's replication batch into the local
//     mirror (POST /v1/replicate, framed TReplBatch).
//   - ApplyNodeMap adopts a coordinator-published node map (POST
//     /v1/nodes): the receiver re-gates its partitions' roles to match.
//     Maps with a stale epoch must be ignored.
//   - LocateUser answers which node serves a user's partition as
//     primary — the ?uid=U form of GET /v1/topology, used by smoke
//     probes and node-aware clients to find (and then kill or target)
//     an owner.
//   - NodeEpoch reports the node-map epoch in force. /healthz
//     advertises it in NodeEpochHeader so the heartbeat doubles as an
//     epoch exchange: a prober that sees a peer on a lower epoch
//     re-pushes its map, and one that sees a higher epoch pulls the
//     newer map — the repair loop that reconverges restarted nodes and
//     missed pushes.
type NodePlane interface {
	Replicate(ctx context.Context, b *wire.ReplBatch) (*wire.ReplAck, error)
	ApplyNodeMap(ctx context.Context, m *wire.NodeMap) error
	LocateUser(u core.UserID) (wire.NodeRef, bool)
	NodeEpoch() uint64
}

// NodeEpochHeader carries the responding node's map epoch on /healthz.
const NodeEpochHeader = "X-Hyrec-Node-Epoch"

// NodeSecretHeader authenticates node-plane requests (POST /v1/replicate
// and /v1/nodes) when the deployment configures a shared secret
// (HTTPServer.RequireNodeSecret, hyrec-node -peer-secret). Without a
// secret those endpoints are open — acceptable only when the listener is
// reachable by trusted peers alone, since a well-formed higher-epoch map
// push reassigns partition ownership and a replication batch injects
// user state.
const NodeSecretHeader = "X-Hyrec-Node-Secret"

// ForwardedHeader marks a request already proxied once by a node. A
// node receiving a forwarded request it cannot serve as primary answers
// not_primary instead of proxying again, so topology disagreements
// degrade to a typed error rather than a forwarding loop.
const ForwardedHeader = "X-Hyrec-Forwarded"

type forwardedKey struct{}

// WithForwarded marks ctx as carrying a node-forwarded request. The
// HTTP front-end applies it when ForwardedHeader is present.
func WithForwarded(ctx context.Context) context.Context {
	return context.WithValue(ctx, forwardedKey{}, true)
}

// IsForwarded reports whether the request behind ctx was already
// proxied by a node.
func IsForwarded(ctx context.Context) bool {
	v, _ := ctx.Value(forwardedKey{}).(bool)
	return v
}

// SetStandby parks or releases this engine's dispatch side (see
// sched.Scheduler.SetStandby): a replica partition's engine runs in
// standby so it never leases jobs for users it only mirrors. No-op
// without a scheduler.
func (e *Engine) SetStandby(standby bool) {
	if e.sched != nil {
		e.sched.SetStandby(standby)
	}
}

// Standby reports whether this engine's dispatch side is parked.
func (e *Engine) Standby() bool {
	return e.sched != nil && e.sched.Standby()
}
