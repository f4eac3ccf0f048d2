// Package hyrec is a from-scratch Go implementation of HyRec — the hybrid
// user-based collaborative-filtering recommender of Boutet, Frey,
// Guerraoui, Kermarrec and Patra (Middleware 2014) — together with every
// substrate and baseline its evaluation depends on.
//
// HyRec splits recommendation work between a lightweight server and the
// users' browsers: the server maintains the global profile and KNN tables
// and samples candidate sets; each client executes its own KNN selection
// and item recommendation on the sampled profiles and posts the refined
// neighbourhood back. The iterative feedback loop converges close to the
// exact KNN graph at a fraction of a centralized system's cost.
//
// # Quick start
//
//	ctx := context.Background()
//	eng := hyrec.NewEngine(hyrec.DefaultConfig())
//	w := hyrec.NewWidget()
//
//	eng.Rate(ctx, 42, 7, true)             // user 42 likes item 7
//	job, _ := eng.Job(ctx, 42)             // server builds a personalization job
//	res, _ := w.Execute(job)               // "browser" runs KNN + recommendation
//	recs, _ := eng.ApplyResult(ctx, res)   // server folds the result back
//
// Every front-end — the single-machine *Engine, the partitioned
// *Cluster, and the typed HTTP client in package hyrec/client —
// implements the same Service interface, so replay harnesses, load
// generators and applications are written once against Service and run
// unchanged in-process or over the wire.
//
// For a network deployment, see NewHTTPServer and cmd/hyrec-server; for
// trace-driven evaluation against the paper's baselines, see NewSystem and
// the internal/replay package; for the experiment harness regenerating the
// paper's tables and figures, see cmd/hyrec-bench.
package hyrec

import (
	"fmt"
	"net/http"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/server"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// Re-exported identifier types.
type (
	// UserID identifies a user.
	UserID = core.UserID
	// ItemID identifies an item.
	ItemID = core.ItemID
	// Rating is one binary opinion.
	Rating = core.Rating
	// Profile is an immutable user profile.
	Profile = core.Profile
	// Neighbor pairs a user with a similarity score.
	Neighbor = core.Neighbor
	// Similarity scores two profiles.
	Similarity = core.Similarity
	// Cosine is the paper's default similarity metric.
	Cosine = core.Cosine
	// Jaccard is an alternative similarity metric.
	Jaccard = core.Jaccard
	// SignedCosine counts shared dislikes as agreement (the §2.1
	// non-binary extension).
	SignedCosine = core.SignedCosine
)

// Server-side types.
type (
	// Service is the single front-end API every deployment shape
	// implements: *Engine, *Cluster, and the typed HTTP client. The
	// in-process shapes implement the wider server.Backend contract the
	// HTTP server is built on (see NewServiceServer).
	Service = server.Service
	// Config parametrises an Engine.
	Config = server.Config
	// Engine is the HyRec server (tables + sampler + orchestrator).
	Engine = server.Engine
	// Sampler is the candidate-set customization point of Table 1.
	Sampler = server.Sampler
	// RandomOnlySampler is the pure-exploration ablation sampler.
	RandomOnlySampler = server.RandomOnlySampler
	// NoRandomSampler is the pure-exploitation (two-hop-only) ablation
	// sampler.
	NoRandomSampler = server.NoRandomSampler
)

// Client-side types.
type (
	// Widget is the browser-side executor of personalization jobs.
	Widget = widget.Widget
	// Device models the client machine class.
	Device = widget.Device
	// WidgetOption customises a Widget.
	WidgetOption = widget.Option
)

// Wire-level types.
type (
	// Job is a personalization job.
	Job = wire.Job
	// Result is a widget's reply.
	Result = wire.Result
)

// Sentinel errors surfaced by Service implementations (and mapped onto
// v1 error-envelope codes by the HTTP layer and the typed client).
var (
	// ErrStaleEpoch: a result references an anonymiser epoch that is no
	// longer resolvable.
	ErrStaleEpoch = server.ErrStaleEpoch
	// ErrUnknownUser: the user was never seen by Rate or Job.
	ErrUnknownUser = server.ErrUnknownUser
	// ErrUnknownLease: an acked lease is not outstanding — already
	// completed, superseded, expired past its retry budget, or never
	// issued.
	ErrUnknownLease = server.ErrUnknownLease
	// ErrMoved: the user's state migrated to a different partition in a
	// completed topology change; clients refresh /v1/topology and retry.
	ErrMoved = server.ErrMoved
	// ErrNotPrimary: the request landed on a node that does not serve
	// the user's partition as primary (a replica mirror, or a stale node
	// map); clients refresh /v1/topology and retry against the primary
	// named in the envelope.
	ErrNotPrimary = server.ErrNotPrimary
	// ErrOverloaded: the server's admission gate shed the request (429 /
	// "overloaded" with a retry-after hint); the typed client backs off
	// the hinted duration — capped — and retries once.
	ErrOverloaded = server.ErrOverloaded
)

// JobSource is the scheduler-facing worker interface (see internal/sched
// for the lifecycle): NextJob leases the stalest user's job to a
// pull-based worker, Ack completes or abandons a lease without a result.
// *Engine, *Cluster and the typed client all implement it; without the
// asynchronous scheduler (Config.LeaseTTL and Config.FallbackWorkers
// unset) NextJob answers no work and Ack reports ErrUnknownLease.
type JobSource = server.JobSource

// Compile-time guarantees of the one-API contract: both deployment
// shapes satisfy Service and JobSource. (hyrec/client asserts the same
// for *Client.)
var (
	_ Service   = (*Engine)(nil)
	_ Service   = (*Cluster)(nil)
	_ JobSource = (*Engine)(nil)
	_ JobSource = (*Cluster)(nil)
)

// DefaultConfig returns the paper's default parameters (k=10, r=10).
func DefaultConfig() Config { return server.DefaultConfig() }

// NewEngine builds a HyRec server engine.
func NewEngine(cfg Config) *Engine { return server.NewEngine(cfg) }

// NewWidget builds a client widget (cosine similarity, laptop device).
func NewWidget(opts ...WidgetOption) *Widget { return widget.New(opts...) }

// WithSimilarity overrides the widget's similarity metric.
func WithSimilarity(m Similarity) WidgetOption { return widget.WithSimilarity(m) }

// WithDevice sets the widget's device model.
func WithDevice(d Device) WidgetOption { return widget.WithDevice(d) }

// WithWorkers enables the widget's parallel (HTML5 web-worker analogue)
// execution mode with n workers; results are identical to the sequential
// widget.
func WithWorkers(n int) WidgetOption { return widget.WithWorkers(n) }

// Laptop is the reference client device.
func Laptop() Device { return widget.Laptop() }

// Smartphone is the paper's mobile client device.
func Smartphone() Device { return widget.Smartphone() }

// HTTPServer exposes an Engine over the paper's web API.
type HTTPServer = server.HTTPServer

// NewHTTPServer wraps an engine with the web API; rotateEvery > 0 rotates
// the anonymous mapping periodically in the background (call Start).
func NewHTTPServer(engine *Engine, rotateEvery time.Duration) *HTTPServer {
	return server.NewServer(engine, rotateEvery)
}

// NewServiceServer wraps an in-process Service — engine, cluster, or a
// type embedding one — with the shared web API (legacy Table-1
// endpoints plus the /v1 batch protocol). svc must implement
// server.Backend, as *Engine and *Cluster do; a remote client does not,
// and NewServiceServer panics on it.
func NewServiceServer(svc Service, rotateEvery time.Duration) *HTTPServer {
	b, ok := svc.(server.Backend)
	if !ok {
		panic(fmt.Sprintf("hyrec: NewServiceServer needs an in-process backend (*Engine, *Cluster or a type embedding one), got %T", svc))
	}
	return server.NewServer(b, rotateEvery)
}

// Handler returns a ready-to-serve http.Handler for engine with anonymiser
// rotation every rotateEvery (0 disables): the one-liner deployment path.
func Handler(engine *Engine, rotateEvery time.Duration) http.Handler {
	return ServiceHandler(engine, rotateEvery)
}

// ServiceHandler is Handler generalized to any in-process Service (see
// NewServiceServer).
func ServiceHandler(svc Service, rotateEvery time.Duration) http.Handler {
	s := NewServiceServer(svc, rotateEvery)
	s.Start()
	return s.Handler()
}
