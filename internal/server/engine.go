package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/sched"
	"hyrec/internal/topk"
	"hyrec/internal/wire"
)

// Sampler is the server-side customization point of Table 1: given the
// table view pinned for the job, a user and the neighborhood parameter k
// it returns the candidate set for the next KNN iteration. Every lookup
// through the view is lock-free. The default implementation follows
// Section 3.1 (one-hop ∪ two-hop ∪ k random users); content providers
// may plug alternatives.
type Sampler interface {
	Sample(v *TableView, u core.UserID, k int) []core.UserID
}

// Config parametrises an Engine. The zero value is not usable; call
// DefaultConfig and adjust.
type Config struct {
	// K is the neighborhood size (10–20 in the paper).
	K int
	// R is the number of items recommended per personalization job.
	R int
	// Seed drives all server-side randomness (sampling, anonymisation).
	Seed int64
	// DisableAnonymizer sends real identifiers on the wire. Only for
	// debugging and ablations; the paper's deployment always anonymises.
	DisableAnonymizer bool
	// GzipLevel for outgoing personalization jobs.
	GzipLevel wire.GzipLevel
	// MaxProfileItems, when positive, truncates profiles embedded in
	// candidate sets to bound message size (Section 6 discussion).
	MaxProfileItems int
	// CandidateFilter, when non-nil, transforms every candidate profile
	// just before it is serialized into a personalization job. This is the
	// privacy hook the paper's conclusion calls for: internal/privacy
	// plugs differentially-private perturbation in here. The requesting
	// user's own profile is never filtered (it goes back to its owner).
	// Setting a filter bypasses the serialized-profile cache for
	// candidates, since filtered output may differ between jobs.
	CandidateFilter func(core.Profile) core.Profile
	// RecCacheUsers bounds the last-recommendations store: only the most
	// recently active users' recommendations are retained (LRU). Zero
	// selects the default (4096).
	RecCacheUsers int

	// The fields below enable the asynchronous job scheduler
	// (internal/sched). With all of them zero the engine runs the paper's
	// original synchronous pull flow, byte-for-byte: jobs carry no lease
	// metadata and nothing happens between Job and ApplyResult.

	// LeaseTTL, when positive, turns on the scheduler: every issued job
	// carries a lease that expires after this duration, after which the
	// job is re-issued (straggler handling).
	LeaseTTL time.Duration
	// LeaseRetries bounds lease re-issues before a job falls back to
	// server-side execution (0 = scheduler default, negative = none).
	LeaseRetries int
	// FallbackWorkers, when positive, runs a pool of server-side workers
	// that execute jobs locally — for leases that exhaust their retries
	// and for inactive users nobody computes for. Setting it also turns
	// on the scheduler (with the default lease TTL if LeaseTTL is zero).
	FallbackWorkers int
	// FallbackBudget, when non-nil, caps concurrent fallback executions
	// across engines — a cluster shares one so the server's residual
	// compute stays bounded globally.
	FallbackBudget *sched.Budget
	// FallbackMetric is the similarity metric the fallback executor
	// ranks neighbors with. Set it to whatever the deployment's widgets
	// use so server-refreshed rows and browser-refreshed rows agree on
	// the ordering. Nil selects the paper's default (cosine).
	FallbackMetric core.Similarity

	// The MaxInflight* fields bound the admission gate's per-class
	// concurrent request counts on both transport planes (HTTP mux and
	// framed listener); over-limit arrivals are shed with a typed
	// "overloaded" answer carrying a retry-after hint. Zero = unlimited
	// for that class. See internal/admit and ARCHITECTURE.md "Overload
	// & admission control". These knobs live on the engine Config so
	// every deployment shape (engine, cluster, node) carries them to
	// the front-end without a second config surface.

	// MaxInflightRating bounds concurrent rating-ingest requests
	// (POST /v1/rate, /rate, TRateBatch). Rating is the prioritized
	// class: full-queue arrivals wait a short grace window for a slot
	// before shedding, and its slots are isolated from read/worker
	// floods.
	MaxInflightRating int
	// MaxInflightWorker bounds concurrent worker job traffic: parked
	// long-polls (each holds a slot for the whole park), result posts,
	// lease acks.
	MaxInflightWorker int
	// MaxInflightRead bounds concurrent rec/neighbor reads and
	// user-driven job fetches — the first class shed under pressure.
	MaxInflightRead int
}

// SchedulerEnabled reports whether this configuration runs the
// asynchronous job scheduler.
func (c Config) SchedulerEnabled() bool {
	return c.LeaseTTL > 0 || c.FallbackWorkers > 0
}

// DefaultConfig returns the paper's default parameters: k=10, r=10,
// BestSpeed gzip, anonymisation enabled.
func DefaultConfig() Config {
	return Config{K: 10, R: 10, Seed: 1, GzipLevel: wire.GzipBestSpeed}
}

func (c Config) validate() error {
	if c.K <= 0 {
		return errors.New("server: config K must be positive")
	}
	if c.R <= 0 {
		return errors.New("server: config R must be positive")
	}
	return nil
}

// Engine is the HyRec server: profile and KNN tables plus the Sampler and
// the Personalization orchestrator. It is transport-agnostic; http.go
// exposes it over the paper's web API, and the replay harness drives it
// in-process. Safe for concurrent use.
type Engine struct {
	cfg      Config
	profiles *ProfileTable
	knn      *KNNTable
	anon     *core.Anonymizer
	cache    *wire.ProfileCache
	meter    *wire.Meter
	sampler  Sampler
	// recs retains each recently-active user's last recommendations
	// (bounded LRU) so Recommendations can answer without recomputing.
	recs *recStore
	// resolveProfile, when non-nil, supplies profiles for users the local
	// table has never seen (see SetProfileResolver).
	resolveProfile ProfileResolver

	// rngs shards the sampling RNG by user so concurrent job assemblies
	// draw randomness without serializing on one mutex (the former
	// global rngMu; see BenchmarkJobParallel). Each shard is seeded
	// deterministically from cfg.Seed, so single-threaded runs remain
	// reproducible.
	rngs [numShards]rngShard

	// sched, when non-nil, runs the asynchronous job lifecycle: leases,
	// staleness-priority dispatch, straggler re-issue and the fallback
	// worker pool.
	sched *sched.Scheduler

	// views publishes the epoch-pinned copy-on-write table snapshots job
	// assembly reads from.
	views viewState

	// Candidate-set size accounting (Figure 5): sum and count of candidate
	// sets issued since the last ResetCandidateStats call.
	candSum   atomic.Int64
	candCount atomic.Int64
}

// rngShard is one lock-sharded sampling RNG, padded to a full 64-byte
// cache line (8-byte mutex + 8-byte pointer + 48 pad) so neighbouring
// shards do not false-share under concurrent assembly.
type rngShard struct {
	mu  sync.Mutex
	rng *rand.Rand
	_   [48]byte
}

// rngSeedStride separates the per-shard RNG seed lanes (a large odd
// constant so sibling shards — and sibling partitions, which stride by
// cluster.seedStride — never share a stream).
const rngSeedStride = 0x9E3779B97F4A7C15 >> 3

// ErrStaleEpoch is returned when a widget result refers to an anonymiser
// epoch that is no longer resolvable.
var ErrStaleEpoch = errors.New("server: result from stale anonymiser epoch")

// ErrUnknownLease is returned when an acked lease is not outstanding:
// already completed, superseded, expired past its retry budget, or never
// issued.
var ErrUnknownLease = errors.New("server: unknown or expired lease")

// ErrUnknownUser is returned for operations on users never seen by Rate or
// Job.
var ErrUnknownUser = errors.New("server: unknown user")

// ErrMoved is returned when a request's user state has moved to a
// different partition in a completed topology change — the pseudonyms
// still resolve on the partition that minted them, but ownership has
// migrated, so applying the result there would write into a drained
// table. Mapped to HTTP 421 / CodeMoved; the typed client reacts by
// refreshing its topology and retrying once.
var ErrMoved = errors.New("server: user state moved to a different partition")

// NewEngine builds an engine from cfg. It panics on invalid configuration
// (programmer error), mirroring stdlib constructors like topk.New.
func NewEngine(cfg Config) *Engine {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	e := &Engine{
		cfg:      cfg,
		profiles: NewProfileTable(),
		knn:      NewKNNTable(),
		meter:    &wire.Meter{},
		cache:    wire.NewProfileCache(),
		recs:     newRecStore(cfg.RecCacheUsers),
	}
	for i := range e.rngs {
		e.rngs[i].rng = rand.New(rand.NewSource(cfg.Seed + int64(i)*rngSeedStride))
	}
	if !cfg.DisableAnonymizer {
		e.anon = core.NewAnonymizer(cfg.Seed + 1)
	}
	e.sampler = &defaultSampler{engine: e}
	if cfg.SchedulerEnabled() {
		e.sched = sched.New(sched.Config{
			LeaseTTL:        cfg.LeaseTTL,
			MaxRetries:      cfg.LeaseRetries,
			FallbackWorkers: cfg.FallbackWorkers,
			Budget:          cfg.FallbackBudget,
		}, e.refreshLocally)
	}
	return e
}

// Scheduler exposes the engine's job scheduler (nil when the
// configuration runs the synchronous flow). A cluster uses it to
// partition the lease-ID space; tests and stats read its counters.
func (e *Engine) Scheduler() *sched.Scheduler { return e.sched }

// Topology implements Backend: a single engine is a fixed
// 1-partition topology that never migrates.
func (e *Engine) Topology() wire.Topology { return wire.Topology{Partitions: 1} }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Meter returns the engine's bandwidth meter.
func (e *Engine) Meter() *wire.Meter { return e.meter }

// Profiles exposes the profile table (read-mostly; used by metrics).
func (e *Engine) Profiles() *ProfileTable { return e.profiles }

// KNN exposes the KNN table (used by metrics and the sampler).
func (e *Engine) KNN() *KNNTable { return e.knn }

// SetSampler replaces the candidate-set strategy (Table 1's Sampler
// interface). Must be called before serving traffic.
func (e *Engine) SetSampler(s Sampler) {
	if s == nil {
		panic("server: nil sampler")
	}
	e.sampler = s
}

// ProfileResolver supplies a profile for a user the engine's own table
// does not know. It reports ok=false when it cannot help either, in which
// case the engine falls back to an empty profile (the single-engine
// behaviour).
type ProfileResolver func(core.UserID) (core.Profile, bool)

// SetProfileResolver installs a fallback source for candidate profiles of
// users that are not in the local profile table. This is the hook a
// multi-partition deployment (internal/cluster) uses to let candidate
// sets reference users owned by sibling partitions: the IDs flow through
// the sampler and the KNN table as usual, and their profile bytes are
// fetched from the owning partition at job-assembly time. Must be called
// before serving traffic.
func (e *Engine) SetProfileResolver(fn ProfileResolver) { e.resolveProfile = fn }

// RotateAnonymizer advances the anonymous mapping to a fresh epoch
// (Section 3.1: identifiers are periodically shuffled). The HTTP server
// calls this on a timer; the replay harness on virtual-time boundaries.
func (e *Engine) RotateAnonymizer() {
	if e.anon != nil {
		e.anon.Advance()
	}
}

// Rate records that user u rated an item. This is the profile-update step
// the orchestrator performs when a user accesses the site (Arrow 1 of
// Figure 1).
func (e *Engine) Rate(ctx context.Context, u core.UserID, item core.ItemID, liked bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.profiles.Update(u, func(p core.Profile) core.Profile {
		return p.WithRating(item, liked)
	})
	if e.sched != nil {
		// The rating invalidates u's KNN row: enter the staleness queue
		// so a worker (or the fallback pool) refreshes it even if u's
		// browser never asks.
		e.sched.MarkStale(u)
	}
	return nil
}

// RateBatch records many opinions in one call, checking the context
// between updates so a cancelled ingestion stops promptly.
func (e *Engine) RateBatch(ctx context.Context, ratings []core.Rating) error {
	for _, r := range ratings {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.profiles.Update(r.User, func(p core.Profile) core.Profile {
			return p.WithRating(r.Item, r.Liked)
		})
		if e.sched != nil {
			e.sched.MarkStale(r.User)
		}
	}
	return nil
}

// Neighbors returns u's current KNN approximation.
func (e *Engine) Neighbors(ctx context.Context, u core.UserID) ([]core.UserID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.knn.Get(u), nil
}

// Recommendations returns the most recent recommendations applied for u
// (nil when none are retained). n <= 0 returns all retained items.
func (e *Engine) Recommendations(ctx context.Context, u core.UserID, n int) ([]core.ItemID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	recs := e.recs.Get(u)
	if n > 0 && len(recs) > n {
		recs = recs[:n]
	}
	return recs, nil
}

// Close implements Service: it stops the scheduler's sweeper and
// fallback pool (rotation timers live in the HTTP layer). Safe to call
// multiple times.
func (e *Engine) Close() error {
	if e.sched != nil {
		e.sched.Close()
	}
	return nil
}

// KnownUser reports whether u has been registered.
func (e *Engine) KnownUser(u core.UserID) bool { return e.profiles.Known(u) }

// RegisterUser registers u with an empty profile (idempotent), the hook
// the HTTP layer uses when minting cookie identities.
func (e *Engine) RegisterUser(u core.UserID) {
	if !e.profiles.Known(u) {
		e.profiles.Put(core.NewProfile(u))
	}
}

// Stats reports the operational counters served by /stats. With the
// scheduler enabled, its lifecycle counters ride along under sched_*.
func (e *Engine) Stats() map[string]any {
	m := map[string]any{
		"json_bytes":   e.meter.JSONBytes(),
		"gzip_bytes":   e.meter.GzipBytes(),
		"result_bytes": e.meter.ResultBytes(),
		"messages":     e.meter.Messages(),
		"users":        int64(e.profiles.Len()),
		"knn_entries":  int64(e.knn.Len()),
	}
	if e.sched != nil {
		AddSchedStats(m, e.sched.Stats())
	}
	return m
}

// AddSchedStats merges scheduler counters into a stats map (shared with
// the cluster front-end, which aggregates over partitions first).
func AddSchedStats(m map[string]any, s sched.Stats) {
	m["sched_issued"] = s.Issued
	m["sched_dispatched"] = s.Dispatched
	m["sched_acked"] = s.Acked
	m["sched_abandoned"] = s.Abandoned
	m["sched_expired"] = s.Expired
	m["sched_reissued"] = s.Reissued
	m["sched_fallback_runs"] = s.FallbackRuns
	m["sched_fallback_errors"] = s.FallbackErrors
	m["sched_pending"] = int64(s.Pending)
	m["sched_leased"] = int64(s.Leased)
	m["sched_fallback_queued"] = int64(s.FallbackQueued)
	m["sched_unrefreshed"] = int64(s.Unrefreshed)
}

// Job assembles the personalization job for u: profile update has already
// happened via Rate; this runs the Sampler and packages the candidate
// profiles (Arrow 2 of Figure 1). With the scheduler enabled the job is
// stamped with a fresh lease (superseding any outstanding one for u).
func (e *Engine) Job(ctx context.Context, u core.UserID) (*wire.Job, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.buildJob(u, e.acquire(u)), nil
}

// assembleScratch is the pooled per-assembly working set: candidate IDs,
// dedup state, random-draw buffer, candidate profiles, fragment list and
// a re-seedable RNG. Everything is reclaimed in one releaseScratch call
// at the end of the assembly, so steady-state job assembly allocates
// none of it.
type assembleScratch struct {
	cands   []core.UserID
	seen    map[core.UserID]struct{}
	randBuf []core.UserID
	profs   []core.Profile
	frags   [][]byte
	fragGz  [][]byte
	src     rand.Source
	rng     *rand.Rand
	// Refresh-path working set (refreshLocally): the selected
	// neighborhood, Algorithm 2's popularity tally, a rec buffer and a
	// re-armable top-k collector. Together with the Into variants of the
	// core kernels these make a steady-state refresh allocate only the
	// two table rows it retains.
	hood   []core.Neighbor
	pop    map[core.ItemID]int
	recbuf []core.ItemID
	col    *topk.Collector
}

var scratchPool = sync.Pool{New: func() any {
	src := rand.NewSource(1)
	return &assembleScratch{
		seen: make(map[core.UserID]struct{}, 64),
		src:  src,
		rng:  rand.New(src),
		pop:  make(map[core.ItemID]int, 64),
		col:  topk.New(8),
	}
}}

func getScratch() *assembleScratch { return scratchPool.Get().(*assembleScratch) }

func releaseScratch(sc *assembleScratch) {
	sc.cands = sc.cands[:0]
	sc.randBuf = sc.randBuf[:0]
	for i := range sc.frags {
		sc.frags[i] = nil
	}
	sc.frags = sc.frags[:0]
	for i := range sc.fragGz {
		sc.fragGz[i] = nil
	}
	sc.fragGz = sc.fragGz[:0]
	// Zero the profile slots so a pooled scratch does not pin arbitrary
	// profile snapshots (and their packed forms) in memory between uses.
	for i := range sc.profs {
		sc.profs[i] = core.Profile{}
	}
	sc.profs = sc.profs[:0]
	sc.hood = sc.hood[:0]
	sc.recbuf = sc.recbuf[:0]
	scratchPool.Put(sc)
}

// seededRng re-seeds the scratch RNG and returns it — stream-identical to
// rand.New(rand.NewSource(seed)) without the per-call source allocation.
func (sc *assembleScratch) seededRng(seed int64) *rand.Rand {
	sc.src.Seed(seed)
	return sc.rng
}

// acquire leases u's job when the scheduler runs (the zero lease
// otherwise). Jobs lease BEFORE gather snapshots the profile: a rating
// that lands after the snapshot then finds u leased and sets
// dirty-again, so its refresh is re-queued when this job completes
// instead of being silently absorbed. (NextJob gets this ordering from
// sched.Next.)
func (e *Engine) acquire(u core.UserID) sched.Lease {
	if e.sched == nil {
		return sched.Lease{}
	}
	return e.sched.Acquire(u)
}

// startJob opens u's job: it registers u on first contact (so she can
// appear in other users' random samples) and fills the header — u's
// pseudonym, k, r and, under the scheduler, lease l. The returned view
// pins one anonymiser epoch for the whole job, so every pseudonym in the
// message belongs to the epoch it is stamped with even if
// RotateAnonymizer runs concurrently.
func (e *Engine) startJob(u core.UserID, l sched.Lease) (wire.Job, core.Aliaser) {
	if !e.profiles.Known(u) {
		e.profiles.Put(core.NewProfile(u))
	}
	view := e.anonView()
	job := wire.Job{UID: uint32(view.AliasUser(u)), Epoch: view.Epoch(), K: e.cfg.K, R: e.cfg.R}
	if e.sched != nil {
		job.Lease = l.ID
		job.LeaseDeadlineMS = l.Deadline.UnixMilli()
		job.Attempt = l.Attempt
	}
	return job, view
}

// gather is the one prologue of every job and every local refresh:
// snapshot u's profile, pin a table view, run the Sampler against it and
// load the candidate profiles into sc.profs. It returns u's own profile.
// The engine's own default sampler builds into sc; any other sampler
// returns a slice of its own.
func (e *Engine) gather(sc *assembleScratch, u core.UserID) core.Profile {
	p := e.profiles.Get(u)
	v := e.pinView()
	var cands []core.UserID
	if ds, ok := e.sampler.(*defaultSampler); ok {
		cands = ds.sampleInto(v, sc, u, e.cfg.K)
	} else {
		cands = e.sampler.Sample(v, u, e.cfg.K)
	}
	e.recordCandidates(len(cands))
	sc.profs = slices.Grow(sc.profs[:0], len(cands))
	for _, c := range cands {
		sc.profs = append(sc.profs, e.loadCandidate(v, c))
	}
	return p
}

// buildJob assembles u's job message under lease l — the synchronous
// core of Job, NextJob and TryNextJob, and the message a filtered
// payload is encoded from.
func (e *Engine) buildJob(u core.UserID, l sched.Lease) *wire.Job {
	job, view := e.startJob(u, l)
	sc := getScratch()
	defer releaseScratch(sc)
	p := e.gather(sc, u)
	// All aliased item lists share one sized arena: two allocations per
	// candidate become one per job. The arena escapes with the job, so
	// no pooling — sizing is what matters here.
	total := len(p.Liked()) + len(p.Disliked())
	for _, cp := range sc.profs {
		total += len(cp.Liked()) + len(cp.Disliked())
	}
	arena := make([]uint32, 0, total)
	job.Profile, arena = wire.ProfileToMsgArena(p, view, arena)
	job.Candidates = make([]wire.ProfileMsg, 0, len(sc.profs))
	for _, cp := range sc.profs {
		var msg wire.ProfileMsg
		msg, arena = wire.ProfileToMsgArena(cp, view, arena)
		job.Candidates = append(job.Candidates, msg)
	}
	return &job
}

// NextJob implements the pull-based worker dispatch: it blocks until a
// stale user is available (stalest first) or ctx is done, then assembles
// and leases that user's job. It returns (nil, nil) when the scheduler
// is disabled or no work arrived before ctx expired — the transport
// layer answers 204 No Content.
func (e *Engine) NextJob(ctx context.Context) (*wire.Job, error) {
	if e.sched == nil {
		return nil, nil
	}
	l, ok := e.sched.Next(ctx)
	if !ok {
		return nil, nil
	}
	return e.buildJob(l.User, l), nil
}

// TryNextJob is the non-blocking form of NextJob (the cluster front-end
// polls partitions through it).
func (e *Engine) TryNextJob() (*wire.Job, error) {
	if e.sched == nil {
		return nil, nil
	}
	l, ok := e.sched.TryNext()
	if !ok {
		return nil, nil
	}
	return e.buildJob(l.User, l), nil
}

// Ack resolves a lease without a result: done=true completes it,
// done=false abandons it for immediate re-issue. ErrUnknownLease is
// returned when the lease is not outstanding (or the scheduler is
// disabled). Like the rest of the paper's protocol the endpoint is
// unauthenticated, so a forged done-ack can at worst delay one user's
// refresh until their next rating; results (the path that writes KNN
// rows) verify the lease-user binding in ApplyResult.
func (e *Engine) Ack(ctx context.Context, lease uint64, done bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.sched == nil || !e.sched.Ack(lease, done) {
		return fmt.Errorf("%w: %d", ErrUnknownLease, lease)
	}
	return nil
}

// CountWorkerJob implements Backend: worker-dispatched jobs are
// serialized by the transport layer, which reports the byte counts here
// so the bandwidth meters cover both dispatch paths.
func (e *Engine) CountWorkerJob(_ *wire.Job, jsonBytes, gzBytes int) {
	e.meter.CountJob(jsonBytes, gzBytes)
}

// refreshLocally is the fallback executor: one full personalization job
// run entirely server-side — sample candidates, select the K nearest
// with the same core KNN + top-k kernels the widget uses, fold the row
// in, retain recommendations. No anonymisation round-trip is needed
// because nothing leaves the server.
func (e *Engine) refreshLocally(ctx context.Context, u core.UserID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sc := getScratch()
	defer releaseScratch(sc)
	p := e.gather(sc, u)
	metric := e.cfg.FallbackMetric
	if metric == nil {
		metric = core.Cosine{}
	}
	sc.hood = core.SelectKNNInto(p, sc.profs, e.cfg.K, metric, sc.col, sc.hood)
	// The KNN table retains the row it is handed, so this copy (exact
	// size) and the recommendation row below are the only allocations a
	// steady-state refresh performs — everything else lives in sc.
	ids := make([]core.UserID, 0, len(sc.hood))
	for _, n := range sc.hood {
		if n.User != u {
			ids = append(ids, n.User)
		}
	}
	if !e.profiles.Known(u) {
		// u was migrated away (entombed) while this refresh was
		// executing; writing the row back would resurrect stale state on
		// a partition that no longer owns her. (A write can still slip
		// through between this check and the Put — the residual is one
		// stale KNN row with no profile, swept by the next migration.)
		return nil
	}
	e.knn.Put(u, ids)
	sc.recbuf = core.RecommendInto(p, sc.profs, e.cfg.R, sc.col, sc.pop, sc.recbuf)
	if len(sc.recbuf) > 0 {
		recs := make([]core.ItemID, len(sc.recbuf))
		copy(recs, sc.recbuf)
		e.recs.Put(u, recs)
	}
	return nil
}

// anonView pins the anonymiser's current epoch for the duration of one job
// assembly (identity mapping when anonymisation is disabled).
func (e *Engine) anonView() core.Aliaser {
	if e.anon == nil {
		return core.IdentityAliaser{}
	}
	return e.anon.View()
}

// loadCandidate reads c's profile through the pinned view — lock-free
// for every user the view knows — and applies the outbound transforms
// (truncation, then the privacy filter) in the order a deployment would.
// View misses (users registered since the view was built, or users owned
// by sibling partitions) fall back to the authoritative table or the
// profile resolver.
func (e *Engine) loadCandidate(v *TableView, c core.UserID) core.Profile {
	cp, ok := v.Profile(c)
	if !ok {
		if e.resolveProfile == nil || e.profiles.Known(c) {
			cp = e.profiles.Get(c)
		} else if fp, ok := e.resolveProfile(c); ok {
			cp = fp
		} else {
			cp = core.NewProfile(c)
		}
	}
	if e.cfg.MaxProfileItems > 0 && cp.Size() > e.cfg.MaxProfileItems {
		cp = cp.Truncate(e.cfg.MaxProfileItems)
	}
	if e.cfg.CandidateFilter != nil {
		cp = e.cfg.CandidateFilter(cp)
	}
	return cp
}

// JobPayload assembles u's personalization job and serializes it:
// raw JSON (assembled from cached fragments unless a candidate filter is
// set) plus the gzip payload that would cross the wire. Both sizes are
// metered. The returned slices are freshly allocated; the
// zero-allocation serving path is AppendJobPayload with pooled buffers.
func (e *Engine) JobPayload(u core.UserID) (jsonBody, gzBody []byte, err error) {
	return e.AppendJobPayload(context.Background(), u, nil, nil)
}

// AppendJobPayload is JobPayload appending into caller-owned buffers
// (which may be nil): jsonBody extends jsonDst, gzBody extends gzDst.
// With pooled, pre-grown buffers (wire.GetPayloadBufs) a steady-state
// call allocates approximately nothing: candidate assembly works out of
// a pooled scratch against a pinned table view, candidate and own
// profile fragments come from the serialized-profile cache, and the gzip
// writer is pooled.
func (e *Engine) AppendJobPayload(_ context.Context, u core.UserID, jsonDst, gzDst []byte) (jsonBody, gzBody []byte, err error) {
	// The default configuration (no candidate filter, no truncation)
	// takes the spliced-gzip path: the payload is assembled from
	// per-profile deflate fragments cached alongside the JSON fragments,
	// so compression cost is a memcpy plus a CRC over the body instead
	// of re-deflating every byte (wire/gzipsplice.go). Any other
	// configuration falls back to whole-buffer gzip below.
	jsonBody, gzBody, spliced := e.appendJob(u, jsonDst, gzDst, true)
	if !spliced {
		gzBody, err = wire.AppendGzip(gzDst, jsonBody, e.cfg.GzipLevel)
		if err != nil {
			return nil, nil, fmt.Errorf("server: compress job for %v: %w", u, err)
		}
	}
	e.meter.CountJob(len(jsonBody), len(gzBody))
	return jsonBody, gzBody, nil
}

// AppendJobJSON is AppendJobPayload without the gzip leg, for
// transports that ship the raw JSON bytes (the framed plane): the
// payload is byte-identical to AppendJobPayload's jsonBody, and no
// compressed bytes are metered because none are produced.
func (e *Engine) AppendJobJSON(_ context.Context, u core.UserID, jsonDst []byte) ([]byte, error) {
	jsonBody, _, _ := e.appendJob(u, jsonDst, nil, false)
	e.meter.CountJob(len(jsonBody), 0)
	return jsonBody, nil
}

// appendJob assembles and serializes u's job, optionally building the
// gzip payload in the same pass by splicing cached deflate fragments
// (wantGz). spliced reports whether gzBody was produced; when false the
// caller compresses jsonBody itself. Splicing engages only when no
// candidate filter and no truncation is configured, where every profile
// fragment's bytes appear verbatim in the JSON body.
func (e *Engine) appendJob(u core.UserID, jsonDst, gzDst []byte, wantGz bool) (jsonBody, gzBody []byte, spliced bool) {
	l := e.acquire(u)
	if e.cfg.CandidateFilter != nil {
		// Filtered profiles may differ between jobs, so memoising their
		// encodings would be incorrect: encode the job message itself.
		return wire.AppendJob(jsonDst, e.buildJob(u, l), nil), nil, false
	}
	job, view := e.startJob(u, l)
	sc := getScratch()
	defer releaseScratch(sc)
	p := e.gather(sc, u)

	// Candidate fragments come from the cache, so encoding is a
	// concatenation of memoised byte slices. The requesting user's own
	// fragment is cacheable too, but only while no truncation is
	// configured: Truncate bumps the profile version, so a truncated
	// candidate fragment and a full own fragment could otherwise collide
	// under one (user, version) key.
	ownCache := e.cfg.MaxProfileItems <= 0
	splice := wantGz && ownCache
	for _, cp := range sc.profs {
		if splice {
			fj, fgz, err := e.cache.FragmentGz(cp, view, e.cfg.GzipLevel)
			if err == nil {
				sc.frags = append(sc.frags, fj)
				sc.fragGz = append(sc.fragGz, fgz)
				continue
			}
			// Deflate failure (cannot happen writing to memory, but
			// contractually possible): abandon splicing for this payload
			// and let the caller whole-buffer compress.
			splice = false
		}
		sc.frags = append(sc.frags, e.cache.Fragment(cp, view))
	}

	var ownFrag, ownGz []byte
	if ownCache {
		if splice {
			var err error
			ownFrag, ownGz, err = e.cache.FragmentGz(p, view, e.cfg.GzipLevel)
			if err != nil {
				splice = false
			}
		}
		if ownFrag == nil {
			ownFrag = e.cache.Fragment(p, view)
		}
	} else {
		job.Profile = wire.ProfileToMsg(p, view)
	}
	var sp *wire.GzSplicer
	if splice {
		s := wire.BeginGzSplice(gzDst, e.cfg.GzipLevel, len(jsonDst))
		sp = &s
	}
	jsonBody = e.assembleWithCache(jsonDst, &job, ownFrag, sc.frags, sp, ownGz, sc.fragGz)
	if splice {
		gzBody = sp.Finish(jsonBody)
		// Splicing trades compression ratio for CPU: stored-block glue
		// and per-fragment framing can outweigh the deflate win when
		// profiles are tiny. Ship the spliced form only when it actually
		// compressed; otherwise discard it and let the caller
		// whole-buffer gzip the (small, cheap) body.
		if len(gzBody)-len(gzDst) < len(jsonBody)-len(jsonDst) {
			return jsonBody, gzBody, true
		}
	}
	return jsonBody, nil, false
}

// assembleWithCache builds the job JSON splicing pre-encoded profile
// fragments (ownFrag may be nil, in which case job.Profile is encoded
// directly). Byte-for-byte identical to wire.AppendJob output. A non-nil
// sp additionally assembles the gzip payload in lockstep: each fragment's
// cached deflate form (ownGz, fragGz — parallel to ownFrag, frags) is
// spliced in as its JSON lands in dst.
func (e *Engine) assembleWithCache(dst []byte, job *wire.Job, ownFrag []byte, frags [][]byte, sp *wire.GzSplicer, ownGz []byte, fragGz [][]byte) []byte {
	if dst == nil {
		size := 96 + len(ownFrag) + len(job.Profile.Liked)*11
		for _, f := range frags {
			size += len(f) + 1
		}
		dst = make([]byte, 0, size)
	}
	dst = append(dst, `{"uid":`...)
	dst = appendUint(dst, uint64(job.UID))
	dst = append(dst, `,"epoch":`...)
	dst = appendUint(dst, job.Epoch)
	dst = append(dst, `,"k":`...)
	dst = appendUint(dst, uint64(job.K))
	dst = append(dst, `,"r":`...)
	dst = appendUint(dst, uint64(job.R))
	dst = wire.AppendLeaseMeta(dst, job)
	dst = append(dst, `,"profile":`...)
	if ownFrag != nil {
		dst = append(dst, ownFrag...)
		if sp != nil {
			sp.Splice(dst, len(ownFrag), ownGz)
		}
	} else {
		dst = wire.AppendProfileMsg(dst, job.Profile)
	}
	dst = append(dst, `,"candidates":[`...)
	for i, f := range frags {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, f...)
		if sp != nil {
			sp.Splice(dst, len(f), fragGz[i])
		}
	}
	return append(dst, `]}`...)
}

func appendUint(dst []byte, x uint64) []byte {
	if x == 0 {
		return append(dst, '0')
	}
	var buf [20]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return append(dst, buf[i:]...)
}

// ApplyResult folds a widget's KNN selection back into the KNN table
// (Arrow 3 of Figure 1), translating pseudonyms minted under the result's
// epoch. Recommendations are translated, retained for Recommendations,
// and returned so the caller (HTTP layer or replay harness) can expose
// them.
func (e *Engine) ApplyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rr, err := e.ResolveResult(res)
	if err != nil {
		return nil, err
	}
	if !e.profiles.Known(rr.User) {
		return nil, fmt.Errorf("%w: %v", ErrUnknownUser, rr.User)
	}
	return e.ApplyResolved(ctx, rr)
}

// ResolvedResult is a widget result translated back into real
// identifiers by the anonymiser that minted its pseudonyms. Resolution
// and application are separate steps so a cluster mid-migration can
// resolve a result on the partition that issued the job and fold it
// into the partition that owns the user now (double-routing).
type ResolvedResult struct {
	// User is the real user the result refreshes.
	User core.UserID
	// Lease echoes the result's lease ID (0 for legacy results).
	Lease uint64
	// Neighbors is the protocol-enforced neighbor list: duplicates
	// dropped, self dropped, at most K entries.
	Neighbors []core.UserID
	// Recs is the de-anonymised recommendation list, capped at R.
	Recs []core.ItemID
	// wireNeighbors/wireRecs are the raw wire counts, for the bandwidth
	// meter of whichever engine applies the result.
	wireNeighbors, wireRecs int
}

// ResolveResult translates res's pseudonyms against this engine's
// anonymiser and enforces the protocol's shape. The client is untrusted
// (Section 6: "HyRec limits the impact of untrusted and malicious
// nodes"): it can only corrupt its own row, but that row feeds other
// users' candidate sets, so duplicates and self-references are dropped
// and the lists are capped at K neighbors and R recommendations. It does
// not touch the tables; pair with ApplyResolved.
func (e *Engine) ResolveResult(res *wire.Result) (*ResolvedResult, error) {
	u, ok := e.ResolveUser(core.UserID(res.UID), res.Epoch)
	if !ok {
		return nil, fmt.Errorf("%w: uid alias %d epoch %d", ErrStaleEpoch, res.UID, res.Epoch)
	}
	rr := &ResolvedResult{
		User:          u,
		Lease:         res.Lease,
		Neighbors:     make([]core.UserID, 0, min(len(res.Neighbors), e.cfg.K)),
		wireNeighbors: len(res.Neighbors),
		wireRecs:      len(res.Recommendations),
	}
	seen := make(map[core.UserID]struct{}, e.cfg.K)
	for _, alias := range res.Neighbors {
		if len(rr.Neighbors) >= e.cfg.K {
			break
		}
		v, ok := e.ResolveUser(core.UserID(alias), res.Epoch)
		if !ok {
			return nil, fmt.Errorf("%w: neighbor alias %d epoch %d", ErrStaleEpoch, alias, res.Epoch)
		}
		if v == u {
			continue
		}
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		rr.Neighbors = append(rr.Neighbors, v)
	}
	recAliases := res.Recommendations
	if len(recAliases) > e.cfg.R {
		recAliases = recAliases[:e.cfg.R]
	}
	rr.Recs = make([]core.ItemID, 0, len(recAliases))
	for _, alias := range recAliases {
		item, ok := e.resolveItem(core.ItemID(alias), res.Epoch)
		if !ok {
			return nil, fmt.Errorf("%w: item alias %d epoch %d", ErrStaleEpoch, alias, res.Epoch)
		}
		rr.Recs = append(rr.Recs, item)
	}
	return rr, nil
}

// ApplyResolved folds an already-resolved result into this engine's
// tables: the KNN row is replaced, recommendations are retained, the
// bandwidth meter is credited, and the scheduler's refresh cycle for the
// user is retired.
func (e *Engine) ApplyResolved(ctx context.Context, rr *ResolvedResult) ([]core.ItemID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.knn.Put(rr.User, rr.Neighbors)
	if len(rr.Recs) > 0 {
		e.recs.Put(rr.User, rr.Recs)
	}
	e.meter.CountResult(rr.wireNeighbors*10 + rr.wireRecs*10 + 32)
	if e.sched != nil {
		// The fold-in is the implicit ack — with the lease's user binding
		// verified, so a result quoting some other user's lease ID cannot
		// retire that user's cycle. A result whose own lease has been
		// superseded or already expired is still a valid refresh of the
		// row, so the cycle completes either way.
		if rr.Lease == 0 || !e.sched.AckUser(rr.Lease, rr.User, true) {
			e.sched.Refreshed(rr.User)
		}
	}
	return rr.Recs, nil
}

// ResolveUser inverts a user pseudonym minted by this engine's anonymiser
// in the given epoch (identity when anonymisation is disabled). It reports
// ok=false when the epoch is too stale to translate. A cluster front-end
// uses this to route a widget result back to the partition whose
// anonymiser minted its aliases.
func (e *Engine) ResolveUser(alias core.UserID, epoch uint64) (core.UserID, bool) {
	if e.anon == nil {
		return alias, true
	}
	return e.anon.ResolveUser(alias, epoch)
}

func (e *Engine) resolveItem(alias core.ItemID, epoch uint64) (core.ItemID, bool) {
	if e.anon == nil {
		return alias, true
	}
	return e.anon.ResolveItem(alias, epoch)
}

func (e *Engine) recordCandidates(n int) {
	e.candSum.Add(int64(n))
	e.candCount.Add(1)
}

// CandidateSetStats returns the mean candidate-set size and the number of
// jobs issued since the last reset — the quantity Figure 5 tracks over
// time.
func (e *Engine) CandidateSetStats() (mean float64, jobs int64) {
	jobs = e.candCount.Load()
	if jobs == 0 {
		return 0, 0
	}
	return float64(e.candSum.Load()) / float64(jobs), jobs
}

// ResetCandidateStats clears the candidate-set accounting window.
func (e *Engine) ResetCandidateStats() {
	e.candSum.Store(0)
	e.candCount.Store(0)
}

// RandomUsers draws up to n distinct users uniformly from the engine's
// roster under its seeded RNG, excluding `exclude`; n <= 0 draws none.
// Samplers use it for the k-random-users component of the §3.1 rule; a
// cluster peer sampler uses it to draw exchange candidates from sibling
// partitions. It reads the published table view, so no roster lock is
// held per draw.
func (e *Engine) RandomUsers(n int, exclude core.UserID) []core.UserID {
	if n <= 0 {
		return nil
	}
	v := e.pinView()
	out := e.randomFrom(v, make([]core.UserID, 0, min(n, v.NumUsers())), n, exclude)
	if len(out) == 0 {
		return nil
	}
	return out
}

// randomFrom appends up to n distinct users drawn from v's roster,
// excluding `exclude`. The RNG is sharded by `exclude` (the requesting
// user), so concurrent job assemblies for different users draw without
// contending on one lock.
func (e *Engine) randomFrom(v *TableView, dst []core.UserID, n int, exclude core.UserID) []core.UserID {
	sh := &e.rngs[shardOf(exclude)]
	sh.mu.Lock()
	dst = v.randomUsers(dst, sh.rng, n, exclude)
	sh.mu.Unlock()
	return dst
}

// NewDefaultSampler returns the §3.1 candidate rule (one-hop ∪ two-hop ∪
// k random users) bound to e — the sampler an engine starts with. Exposed
// so wrappers (e.g. the cluster's cross-partition exchange sampler) can
// decorate the default behaviour instead of reimplementing it.
func NewDefaultSampler(e *Engine) Sampler { return &defaultSampler{engine: e} }

// defaultSampler implements Section 3.1's rule via core.BuildCandidateSet.
type defaultSampler struct {
	engine *Engine
}

var _ Sampler = (*defaultSampler)(nil)

// Sample implements Sampler with a one-shot scratch; the engine itself
// calls sampleInto with its assembly scratch and skips the copy.
func (s *defaultSampler) Sample(v *TableView, u core.UserID, k int) []core.UserID {
	sc := getScratch()
	defer releaseScratch(sc)
	return slices.Clone(s.sampleInto(v, sc, u, k))
}

// sampleInto runs the §3.1 rule entirely against the pinned view,
// building into sc (the result aliases sc.cands): a shard-seeded rng
// stream, then the one-hop/two-hop/random order with dedup.
func (s *defaultSampler) sampleInto(v *TableView, sc *assembleScratch, u core.UserID, k int) []core.UserID {
	e := s.engine
	random := func(_ *rand.Rand, n int, exclude core.UserID) []core.UserID {
		// Draw from the engine's exclude-sharded rng, as RandomUsers does.
		sc.randBuf = e.randomFrom(v, sc.randBuf[:0], n, exclude)
		return sc.randBuf
	}
	sc.cands = core.BuildCandidateSetInto(sc.cands[:0], sc.seen, u, k,
		v.KNN, random, sc.seededRng(e.shardSeed(u)))
	return sc.cands
}

// shardSeed draws the seed of u's per-job sampling rng from u's rng
// shard — one draw per job.
func (e *Engine) shardSeed(u core.UserID) int64 {
	sh := &e.rngs[shardOf(u)]
	sh.mu.Lock()
	seed := sh.rng.Int63()
	sh.mu.Unlock()
	return seed
}
