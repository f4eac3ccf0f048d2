package server

import (
	"context"

	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// Service is the single transport-agnostic front-end API of a HyRec
// deployment. Both the single-machine *Engine and the user-partitioned
// *cluster.Cluster implement it, as does the typed HTTP client
// (hyrec/client), so every downstream layer — the HTTP mux, trace
// replay, load generation, stress harnesses, examples — is written once
// against this interface instead of once per concrete front-end.
//
// All methods are safe for concurrent use. Contexts bound the work: an
// already-cancelled context fails fast, and network-backed
// implementations honour deadlines on every request.
type Service interface {
	// Rate records one binary opinion (Arrow 1 of Figure 1).
	Rate(ctx context.Context, u core.UserID, item core.ItemID, liked bool) error
	// RateBatch records many opinions in one call — the amortization
	// path for high-throughput ingestion (POST /v1/rate on the wire).
	RateBatch(ctx context.Context, ratings []core.Rating) error
	// Job assembles u's personalization job (Arrow 2 of Figure 1).
	Job(ctx context.Context, u core.UserID) (*wire.Job, error)
	// ApplyResult folds a widget's KNN selection back into the tables
	// (Arrow 3 of Figure 1) and returns the de-anonymised
	// recommendations it carried.
	ApplyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, error)
	// Recommendations returns the most recent recommendations computed
	// for u (up to n; n <= 0 means all retained).
	Recommendations(ctx context.Context, u core.UserID, n int) ([]core.ItemID, error)
	// Neighbors returns u's current KNN approximation.
	Neighbors(ctx context.Context, u core.UserID) ([]core.UserID, error)
	// Close releases resources (flushes client batches, stops background
	// work). Safe to call multiple times.
	Close() error
}

// JobSource dispatches leased jobs to pull-based workers. NextJob
// blocks until a stale user is available (stalest first) or ctx is
// done, and returns (nil, nil) when no work arrived in time — the
// transports answer idle (204 No Content, an empty TJob). Services
// running without the scheduler return (nil, nil) immediately. Ack
// resolves a lease without a result: done=true completes the job,
// done=false abandons it for immediate re-issue; leases that are not
// outstanding yield ErrUnknownLease (possibly wrapped). The typed HTTP
// client implements it remotely.
type JobSource interface {
	NextJob(ctx context.Context) (*wire.Job, error)
	Ack(ctx context.Context, lease uint64, done bool) error
}

// Backend is the contract every in-process deployment — *Engine,
// *cluster.Cluster and *node.Node — implements, and the one the HTTP,
// WebSocket and framed transports serve. Beyond Service it covers the
// worker dispatch (JobSource) and the hooks the transports drive:
//
//   - AppendJobPayload appends u's serialized job (JSON plus its gzip
//     twin, both metered) into caller-owned buffers (wire.GetPayloadBufs),
//     so a steady-state serve allocates nothing. The returned slices
//     alias the (possibly re-grown) inputs and are valid until the
//     caller recycles them.
//   - AppendJobJSON is its gzip-free sibling for the framed plane: the
//     same JSON bytes, no compressed twin produced or metered.
//   - CountWorkerJob meters a worker-dispatched job, which the transport
//     serializes itself (gzBytes is 0 when it was not compressed), so
//     /stats bandwidth counters cover both dispatch paths.
//   - RotateAnonymizer advances the anonymous mapping; the server
//     drives it on a timer (Section 3.1).
//   - ResolveUser inverts a pseudonym minted in a given epoch, for
//     presence bookkeeping on widget results.
//   - Config exposes the engine-level configuration.
//   - Topology reports the current shape, served on GET /v1/topology
//     and summarized by /metrics (a single engine is one partition).
//   - Stats reports the operational counters behind /stats.
type Backend interface {
	Service
	JobSource
	AppendJobPayload(ctx context.Context, u core.UserID, jsonDst, gzDst []byte) (jsonBody, gzBody []byte, err error)
	AppendJobJSON(ctx context.Context, u core.UserID, jsonDst []byte) ([]byte, error)
	CountWorkerJob(job *wire.Job, jsonBytes, gzBytes int)
	RotateAnonymizer()
	ResolveUser(alias core.UserID, epoch uint64) (core.UserID, bool)
	Config() Config
	Topology() wire.Topology
	Stats() map[string]any
}

// The interfaces below are the capabilities only some deployments have.
// NewServer resolves them once; requests never type-assert.

// UserDirectory registers and looks up users, letting the HTTP layer
// mint cookie identities on first contact. Engine and Cluster implement
// it; a Node does not, so first-contact requests without an identity
// answer 400 there.
type UserDirectory interface {
	KnownUser(u core.UserID) bool
	RegisterUser(u core.UserID)
}

// Scaler reshapes the deployment to a new partition count at runtime,
// streaming moved users' state between partitions (POST /v1/topology,
// SIGHUP in cmd/hyrec-server). Only the cluster implements it; the call
// is synchronous and returns once the migration has completed.
type Scaler interface {
	Scale(ctx context.Context, partitions int) error
}

var (
	_ Backend       = (*Engine)(nil)
	_ UserDirectory = (*Engine)(nil)
)
