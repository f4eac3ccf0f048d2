package hyrec

import (
	"net/http"
	"time"

	"hyrec/internal/cluster"
	"hyrec/internal/server"
	"hyrec/internal/wire"
)

// Cluster is a user-partitioned cluster of HyRec engines behind a single
// front-end: each partition is a full Engine (own tables, anonymiser and
// sampler RNG), users are routed to partitions by a stable hash of their
// ID, and every partition's candidate sets are topped up with random
// users from sibling partitions so the KNN graph converges toward the
// single-engine baseline instead of fragmenting into per-partition
// neighbourhoods. See internal/cluster for the full model.
type Cluster = cluster.Cluster

// ClusterHTTPServer exposes a Cluster over the paper's web API: the same
// server as for a single engine, with routing to the owning partition
// inside the Cluster's methods.
type ClusterHTTPServer = server.HTTPServer

// NewCluster builds a cluster of nParts engines sharing cfg; partition i
// runs with a seed derived from cfg.Seed. A 1-partition cluster behaves
// identically to a plain Engine with the same configuration. The
// partition count is elastic: Cluster.Scale reshapes it at runtime,
// streaming only the moved users' state between engines (see
// internal/cluster's migration coordinator).
func NewCluster(cfg Config, nParts int) *Cluster { return cluster.New(cfg, nParts) }

// Topology describes a deployment's current shape (partition count,
// consistent-hash ring parameter, live-migration status) — served on
// GET /v1/topology and returned by Cluster.Topology.
type Topology = wire.Topology

// NewClusterHTTPServer wraps a cluster with the web API; rotateEvery > 0
// rotates every partition's anonymous mapping periodically in the
// background (call Start).
func NewClusterHTTPServer(c *Cluster, rotateEvery time.Duration) *ClusterHTTPServer {
	return server.NewServer(c, rotateEvery)
}

// ClusterHandler returns a ready-to-serve http.Handler fanning out over
// c's partitions, with anonymiser rotation every rotateEvery (0
// disables): the cluster analogue of Handler.
func ClusterHandler(c *Cluster, rotateEvery time.Duration) http.Handler {
	s := NewClusterHTTPServer(c, rotateEvery)
	s.Start()
	return s.Handler()
}
