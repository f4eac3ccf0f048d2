package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyrec/internal/admit"
	"hyrec/internal/core"
	"hyrec/internal/frame"
	"hyrec/internal/wire"
)

// UIDCookieName is the cookie the widget identifies users through
// (Section 4.2: "It identifies users through a cookie"). /online mints a
// fresh user ID and sets the cookie when a request carries neither ?uid
// nor the cookie. Exported so external front-ends speak the identical
// identification protocol.
const UIDCookieName = "hyrec_uid"

// HTTPServer exposes a Backend over HyRec's web API, the WebSocket worker
// push and the framed transport. One mux serves a single Engine, a
// partitioned Cluster and a multi-node Node alike — the Backend routes
// internally, so there is no per-front-end handler duplication.
//
// Legacy endpoints (Table 1 of the paper):
//
//	GET  /online?uid=U                         → gzip JSON personalization job
//	GET  /neighbors?uid=U&epoch=E&id0=..&idN=..→ apply a KNN update (query form)
//	POST /neighbors                            → apply a wire.Result (JSON body)
//	POST /rate?uid=U&item=I&liked=true         → record a rating
//	GET  /recommendations?uid=U                → last recommendations for U
//	GET  /stats                                → bandwidth/throughput counters
//	GET  /healthz                              → liveness
//
// Versioned batch protocol (see internal/wire/v1.go):
//
//	POST /v1/rate       → batch of ratings (JSON body)
//	GET  /v1/job?uid=U  → personalization job (gzip-negotiated)
//	POST /v1/result     → apply a wire.Result, returns recommendations
//	GET  /v1/recs?uid=U&n=N → last recommendations
//	GET  /v1/neighbors?uid=U → current KNN approximation
//
// The /online response is gzip-compressed JSON with Content-Encoding:
// gzip, exactly as the paper's Jetty deployment serves it; /v1/job
// honours Accept-Encoding instead.
type HTTPServer struct {
	svc Backend

	// The optional capabilities, resolved once by NewServer (nil when
	// the backend lacks them).
	dir    UserDirectory
	scaler Scaler
	node   NodePlane

	seen *presence

	mintMu sync.Mutex
	mint   *rand.Rand

	rotateEvery time.Duration
	stopRotate  chan struct{}
	rotateWG    sync.WaitGroup
	startOnce   sync.Once
	stopOnce    sync.Once

	// dispatchCtx is cancelled by Close so parked worker long-polls
	// (/v1/job?worker=1&wait=…) release immediately on shutdown instead
	// of pinning connections for the full wait. http.Server.Shutdown
	// does not cancel in-flight request contexts, so call Close before
	// (or alongside) Shutdown to drain dispatchers promptly.
	dispatchCtx  context.Context
	stopDispatch context.CancelFunc

	// Worker-socket gauges (GET /v1/worker/ws): live connections and
	// jobs pushed over them, surfaced on /stats and /metrics.
	wsWorkers    atomic.Int64
	wsJobsPushed atomic.Int64

	// Framed-transport gauges (ServeFrames): live connections, request
	// streams in flight, and bytes moved in either direction.
	frameConns   atomic.Int64
	frameStreams atomic.Int64
	frameBytes   atomic.Int64

	// gate is the admission gate both transport planes clear before any
	// service work: per-class bounded queues that shed with a typed
	// "overloaded" answer when full (see admission.go).
	gate *admit.Gate

	// nodeSecret, when non-empty, gates the node-plane endpoints
	// (/v1/replicate, /v1/nodes) behind NodeSecretHeader.
	nodeSecret string
}

// NewServer wraps b with the web API. If rotateEvery > 0, a background
// goroutine rotates the anonymous mapping on that period once Start is
// called, until Close.
func NewServer(b Backend, rotateEvery time.Duration) *HTTPServer {
	dispatchCtx, stopDispatch := context.WithCancel(context.Background())
	s := &HTTPServer{
		svc:          b,
		seen:         newPresence(),
		mint:         rand.New(rand.NewSource(b.Config().Seed + 7919)),
		rotateEvery:  rotateEvery,
		stopRotate:   make(chan struct{}),
		dispatchCtx:  dispatchCtx,
		stopDispatch: stopDispatch,
		// With all bounds zero the gate never sheds but still counts
		// inflight per class.
		gate: admit.New(admit.Config{
			MaxRating: b.Config().MaxInflightRating,
			MaxWorker: b.Config().MaxInflightWorker,
			MaxRead:   b.Config().MaxInflightRead,
		}),
	}
	s.dir, _ = b.(UserDirectory)
	s.scaler, _ = b.(Scaler)
	s.node, _ = b.(NodePlane)
	return s
}

// Service returns the service this server fronts.
func (s *HTTPServer) Service() Service { return s.svc }

// RequireNodeSecret gates POST /v1/replicate and /v1/nodes behind the
// shared secret: requests whose NodeSecretHeader does not match answer
// 403/forbidden. Call before Handler traffic arrives. An empty secret
// leaves the node plane open (see NodeSecretHeader for the trust model).
func (s *HTTPServer) RequireNodeSecret(secret string) { s.nodeSecret = secret }

// nodeSecretOK reports whether a node-plane request presented the
// configured secret (always true when none is configured).
func (s *HTTPServer) nodeSecretOK(got string) bool {
	return s.nodeSecret == "" || subtle.ConstantTimeCompare([]byte(got), []byte(s.nodeSecret)) == 1
}

// Start launches the anonymiser-rotation loop (no-op when rotateEvery ≤ 0).
func (s *HTTPServer) Start() {
	s.startOnce.Do(func() {
		if s.rotateEvery <= 0 {
			return
		}
		s.rotateWG.Add(1)
		go func() {
			defer s.rotateWG.Done()
			ticker := time.NewTicker(s.rotateEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					s.svc.RotateAnonymizer()
				case <-s.stopRotate:
					return
				}
			}
		}()
	})
}

// Close stops and drains the rotation goroutine and releases any parked
// worker long-polls. It does not close the underlying Service —
// ownership stays with whoever constructed it. Safe to call multiple
// times.
func (s *HTTPServer) Close() {
	s.stopOnce.Do(func() {
		close(s.stopRotate)
		s.stopDispatch()
	})
	s.rotateWG.Wait()
}

// route is one entry of the HTTP route table. The plane's one wrapper
// (serveRoutes) checks the method, clears the route's admission class,
// runs the handler and answers the error it returns in the route's
// encoding, so a handler holds only its op's decode, call and encode.
type route struct {
	method string      // "" accepts any method
	path   string      // ServeMux pattern
	class  admit.Class // admission class, or ungated / nodePlane
	legacy bool        // Table-1 route: errors answer plain text, not the v1 envelope
	h      func(http.ResponseWriter, *http.Request) error
	// worker, when set, serves ?worker=1 requests in the Worker class
	// (the long-poll form of GET /v1/job).
	worker func(http.ResponseWriter, *http.Request) error
}

// Handler returns the route table: the legacy Table-1 endpoints plus the
// versioned /v1 batch protocol.
func (s *HTTPServer) Handler() http.Handler {
	const v1 = wire.V1Prefix
	routes := []route{
		{path: "/online", class: admit.Read, legacy: true, h: s.handleOnline},
		{path: "/online/", class: admit.Read, legacy: true, h: s.handleOnline},
		// Applying a KNN result is worker-class traffic whichever wire
		// shape (POST body or Table-1 query form) carried it.
		{method: http.MethodPost, path: "/neighbors", class: admit.Worker, legacy: true, h: s.handleNeighbors},
		{path: "/neighbors", class: admit.Worker, legacy: true, h: s.handleNeighborsQuery},
		{method: http.MethodPost, path: "/neighbors/", class: admit.Worker, legacy: true, h: s.handleNeighbors},
		{path: "/neighbors/", class: admit.Worker, legacy: true, h: s.handleNeighborsQuery},
		{path: "/rate", class: admit.Rating, legacy: true, h: s.handleRate},
		{path: "/recommendations", class: admit.Read, legacy: true, h: s.handleRecommendations},
		{path: "/stats", class: ungated, h: s.handleStats},
		{path: "/metrics", class: ungated, h: s.handleMetrics},
		{path: "/healthz", class: ungated, h: s.handleHealthz},
		{method: http.MethodPost, path: v1 + "/rate", class: admit.Rating, h: s.handleV1Rate},
		{method: http.MethodGet, path: v1 + "/job", class: admit.Read, h: s.handleV1Job, worker: s.handleV1WorkerJob},
		{path: wire.WSWorkerPath, class: ungated, h: s.handleV1WorkerWS},
		{method: http.MethodPost, path: v1 + "/ack", class: admit.Worker, h: s.handleV1Ack},
		{method: http.MethodPost, path: v1 + "/result", class: admit.Worker, h: s.handleV1Result},
		{method: http.MethodGet, path: v1 + "/recs", class: admit.Read, h: s.handleV1Recs},
		{method: http.MethodGet, path: v1 + "/neighbors", class: admit.Read, h: s.handleV1Neighbors},
		{method: http.MethodGet, path: v1 + "/topology", class: ungated, h: s.handleV1Topology},
		{method: http.MethodPost, path: v1 + "/topology", class: ungated, h: s.handleV1Scale},
		{method: http.MethodPost, path: v1 + "/replicate", class: nodePlane, h: s.handleV1Replicate},
		{method: http.MethodPost, path: v1 + "/nodes", class: nodePlane, h: s.handleV1Nodes},
	}
	byPath := map[string][]route{}
	for _, rt := range routes {
		byPath[rt.path] = append(byPath[rt.path], rt)
	}
	mux := http.NewServeMux()
	for path, rts := range byPath {
		mux.HandleFunc(path, s.serveRoutes(rts))
	}
	return mux
}

// serveRoutes is the HTTP plane's wrapper around the routes of one path.
// Errors answer plain text on Table-1 routes and the v1 envelope
// everywhere else — sheds included, on every route.
func (s *HTTPServer) serveRoutes(rts []route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Node-forwarded requests are marked in the context so a service
		// can refuse to proxy them a second time (loop guard; see
		// ForwardedHeader).
		if r.Header.Get(ForwardedHeader) != "" {
			r = r.WithContext(WithForwarded(r.Context()))
		}
		if err := s.serveRoute(w, r, rts); err != nil {
			if rts[0].legacy && !errors.As(err, new(*shedError)) {
				writeLegacyError(w, err)
			} else {
				writeV1Error(w, err)
			}
		}
	}
}

// serveRoute picks the route for r's method, checks the node-plane
// secret or takes an admission slot (held until the handler returns,
// including a worker long-poll's whole park), and runs the handler.
func (s *HTTPServer) serveRoute(w http.ResponseWriter, r *http.Request, rts []route) error {
	for _, rt := range rts {
		if rt.method != "" && rt.method != r.Method {
			continue
		}
		h, class := rt.h, rt.class
		if rt.worker != nil && isWorker(r) {
			h, class = rt.worker, admit.Worker
		}
		switch class {
		case ungated:
		case nodePlane:
			if !s.nodeSecretOK(r.Header.Get(NodeSecretHeader)) {
				return errNodeSecret
			}
		default:
			release, err := s.acquire(r.Context(), class)
			if err != nil {
				return err
			}
			defer release()
		}
		return h(w, r)
	}
	methods := make([]string, len(rts))
	for i, rt := range rts {
		methods[i] = rt.method
	}
	return &requestError{wire.CodeMethodNotAllowed, strings.Join(methods, " or ") + " required"}
}

// decodeBody reads r's body, at most limit bytes, and decodes it. A
// failure is a bad request "bad <what> body: …"; when sized, an
// over-limit body or a decoder's ErrTooLarge answers 413 too_large.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, limit int64, what string, sized bool, decode func([]byte) (T, error)) (T, error) {
	var v T
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		v, err = decode(body)
	} else if sized && errors.As(err, new(*http.MaxBytesError)) {
		return v, &requestError{wire.CodeTooLarge, fmt.Sprintf("body exceeds %d bytes", limit)}
	}
	switch {
	case err == nil:
		return v, nil
	case sized && errors.Is(err, wire.ErrTooLarge):
		return v, &requestError{wire.CodeTooLarge, err.Error()}
	default:
		return v, badRequest("bad " + what + " body: " + err.Error())
	}
}

// handleHealthz is liveness, doubling as epoch exchange: peers probing
// this node learn which node-map epoch it runs, and repair the
// difference.
func (s *HTTPServer) handleHealthz(w http.ResponseWriter, _ *http.Request) error {
	if s.node != nil {
		w.Header().Set(NodeEpochHeader, strconv.FormatUint(s.node.NodeEpoch(), 10))
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
	return nil
}

// handleV1Replicate serves POST /v1/replicate: a primary's replication
// batch for a partition this node mirrors (or owns, during a handoff).
func (s *HTTPServer) handleV1Replicate(w http.ResponseWriter, r *http.Request) error {
	if s.node == nil {
		return badRequest("service does not accept replication")
	}
	// DecodeReplBatch is the fuzzed production decoder (FuzzDecodeReplBatch).
	batch, err := decodeBody(w, r, wire.MaxReplBodyBytes, "replicate", true, wire.DecodeReplBatch)
	if err != nil {
		return err
	}
	ack, err := s.node.Replicate(r.Context(), batch)
	if err != nil {
		return err
	}
	return replyJSON(w, http.StatusOK, ack)
}

// handleV1Nodes serves POST /v1/nodes: the failover coordinator's node
// map push. Stale epochs are ignored by the sink, not an error.
func (s *HTTPServer) handleV1Nodes(w http.ResponseWriter, r *http.Request) error {
	if s.node == nil {
		return badRequest("service does not accept node maps")
	}
	// DecodeNodeMap is the fuzzed production decoder (FuzzDecodeNodeMap).
	nm, err := decodeBody(w, r, wire.MaxBodyBytes, "node map", false, wire.DecodeNodeMap)
	if err != nil {
		return err
	}
	if err := s.node.ApplyNodeMap(r.Context(), nm); err != nil {
		return err
	}
	return replyJSON(w, http.StatusOK, wire.AckResponse{Status: "ok"})
}

// ---- legacy Table-1 endpoints ----

// handleOnline serves the legacy job route. It is Read class even when
// a rating piggybacks: the job assembly dominates the request's cost.
func (s *HTTPServer) handleOnline(w http.ResponseWriter, r *http.Request) error {
	return s.serveJob(w, r, true)
}

// handleNeighbors applies a KNN result posted as a JSON body.
func (s *HTTPServer) handleNeighbors(w http.ResponseWriter, r *http.Request) error {
	var res wire.Result
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes)).Decode(&res); err != nil {
		return badRequest(fmt.Sprintf("bad result body: %v", err))
	}
	return s.legacyResult(w, r, &res)
}

// handleNeighborsQuery applies a KNN result in Table 1's query form:
// ?uid=U&epoch=E&id0=..&id1=..&recs=a,b.
func (s *HTTPServer) handleNeighborsQuery(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	uid64, err := strconv.ParseUint(q.Get("uid"), 10, 32)
	if err != nil {
		return badRequest("bad uid")
	}
	epoch, _ := strconv.ParseUint(q.Get("epoch"), 10, 64)
	res := wire.Result{UID: uint32(uid64), Epoch: epoch}
	for i := 0; ; i++ {
		v := q.Get("id" + strconv.Itoa(i))
		if v == "" {
			break
		}
		id64, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			return badRequest(fmt.Sprintf("bad id%d", i))
		}
		res.Neighbors = append(res.Neighbors, uint32(id64))
	}
	for _, v := range strings.Split(q.Get("recs"), ",") {
		if v == "" {
			continue
		}
		id64, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			return badRequest("bad recs")
		}
		res.Recommendations = append(res.Recommendations, uint32(id64))
	}
	return s.legacyResult(w, r, &res)
}

func (s *HTTPServer) legacyResult(w http.ResponseWriter, r *http.Request, res *wire.Result) error {
	if _, err := s.applyResult(r.Context(), res); err != nil {
		return err
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (s *HTTPServer) handleRate(w http.ResponseWriter, r *http.Request) error {
	uid, err := s.requester(w, r, false)
	if err != nil {
		return err
	}
	if err := s.rateQuery(r, uid); err != nil {
		return err
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (s *HTTPServer) handleRecommendations(w http.ResponseWriter, r *http.Request) error {
	uid, err := s.requester(w, r, false)
	if err != nil {
		return err
	}
	recs, err := s.svc.Recommendations(r.Context(), uid, 0)
	if err != nil {
		return err
	}
	return replyJSON(w, http.StatusOK, recs)
}

// stats assembles the counters /stats and /metrics both serve: the
// backend's own, presence, the worker-socket and framed-transport
// gauges, and the admission gate's.
func (s *HTTPServer) stats() map[string]any {
	stats := s.svc.Stats()
	stats["online_users"] = int64(s.seen.Online(presenceWindow))
	stats["ws_workers"] = s.wsWorkers.Load()
	stats["ws_jobs_pushed_total"] = s.wsJobsPushed.Load()
	stats["frame_conns"] = s.frameConns.Load()
	stats["frame_streams_active"] = s.frameStreams.Load()
	stats["frame_bytes_total"] = s.frameBytes.Load()
	s.gate.AddStats(stats)
	return stats
}

func (s *HTTPServer) handleStats(w http.ResponseWriter, _ *http.Request) error {
	return replyJSON(w, http.StatusOK, s.stats())
}

// handleMetrics serves GET /metrics: the same counters as /stats in
// Prometheus text exposition format, plus the elastic-topology gauges
// hyrec_topology_partitions and hyrec_migration_users_moved_total. The
// alias lets a scrape target consume the deployment without a JSON
// exporter sidecar. Keys ending in _total are typed counter, every
// other key gauge.
func (s *HTTPServer) handleMetrics(w http.ResponseWriter, _ *http.Request) error {
	stats := s.stats()
	topo := s.svc.Topology()
	stats["topology_partitions"] = int64(topo.Partitions)
	stats["migration_users_moved_total"] = topo.UsersMovedTotal
	stats["migrating"] = topo.Migrating
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, k := range keys {
		name := "hyrec_" + k
		typ := "gauge"
		if strings.HasSuffix(k, "_total") {
			typ = "counter"
		}
		switch v := stats[k].(type) {
		case int, int64, float64:
			fmt.Fprintf(w, "# TYPE %s %s\n%s %v\n", name, typ, name, v)
		case bool:
			b := 0
			if v {
				b = 1
			}
			fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, typ, name, b)
		case []int64:
			fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
			for i, n := range v {
				fmt.Fprintf(w, "%s{partition=\"%d\"} %d\n", name, i, n)
			}
		}
	}
	return nil
}

// handleV1Topology serves GET /v1/topology: the current shape (partition
// count, ring parameter, migration status). ?uid=U additionally resolves
// the node serving that user's partition as primary, when the service
// knows the node map.
func (s *HTTPServer) handleV1Topology(w http.ResponseWriter, r *http.Request) error {
	topo := s.svc.Topology()
	if raw := r.URL.Query().Get("uid"); raw != "" {
		if s.node == nil {
			return badRequest("service cannot locate users by node")
		}
		uid64, err := strconv.ParseUint(raw, 10, 32)
		if err != nil {
			return badRequest(fmt.Sprintf("bad uid %q", raw))
		}
		if ref, ok := s.node.LocateUser(core.UserID(uid64)); ok {
			topo.Owner = &ref
		}
	}
	return replyJSON(w, http.StatusOK, topo)
}

// handleV1Scale serves POST /v1/topology: a live resharding to the
// requested partition count, answering the resulting topology once the
// migration has completed.
func (s *HTTPServer) handleV1Scale(w http.ResponseWriter, r *http.Request) error {
	if s.scaler == nil {
		return badRequest("service is not elastic (single engine?)")
	}
	req, err := decodeBody(w, r, wire.MaxBodyBytes, "scale", false, func(body []byte) (*wire.ScaleRequest, error) {
		req := new(wire.ScaleRequest)
		return req, json.Unmarshal(body, req)
	})
	if err != nil {
		return err
	}
	if req.Partitions < 1 {
		return badRequest(fmt.Sprintf("partitions must be >= 1, got %d", req.Partitions))
	}
	if err := s.scaler.Scale(r.Context(), req.Partitions); err != nil {
		return err
	}
	return replyJSON(w, http.StatusOK, s.svc.Topology())
}

// ---- /v1 batch protocol ----

func (s *HTTPServer) handleV1Rate(w http.ResponseWriter, r *http.Request) error {
	// DecodeRateRequest is the fuzzed production decoder
	// (FuzzDecodeRateBatch): malformed or oversized input yields a typed
	// error, never a panic or a silently truncated batch.
	req, err := decodeBody(w, r, wire.MaxBodyBytes, "rate", true, wire.DecodeRateRequest)
	if err != nil {
		return err
	}
	ratings := make([]core.Rating, len(req.Ratings))
	for i, m := range req.Ratings {
		ratings[i] = core.Rating{User: core.UserID(m.UID), Item: core.ItemID(m.Item), Liked: m.Liked}
	}
	if err := s.rateBatch(r.Context(), ratings); err != nil {
		return err
	}
	return replyJSON(w, http.StatusOK, wire.RateResponse{Accepted: len(ratings)})
}

// maxWorkerWait caps the /v1/job?worker=1 long-poll so a parked worker
// never outlives the HTTP server's write timeout.
const maxWorkerWait = 25 * time.Second

// workerRepollEvery paces the job-pull re-poll loop after NextJob
// answered nil before the window expired (see pullJob).
const workerRepollEvery = 20 * time.Millisecond

// pollWindow bounds one worker long-poll: wait clamped to
// [0, maxWorkerWait], released early when Close stops dispatch.
func (s *HTTPServer) pollWindow(parent context.Context, wait time.Duration) (context.Context, context.CancelFunc) {
	wait = min(max(wait, 0), maxWorkerWait)
	ctx, cancel := context.WithTimeout(parent, wait)
	stop := context.AfterFunc(s.dispatchCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// pullJob is the one job-pull core behind GET /v1/job?worker=1, framed
// TJobPull and WebSocket push. It waits on the backend's staleness
// queue until a job is leased or ctx ends, serializes the job into
// pooled buffers (gzip-compressed when gzipOK) and hands the body to
// send, metering the job when send succeeds. leased is false when ctx
// ended first; err is a dispatch or compression error, never send's.
func (s *HTTPServer) pullJob(ctx context.Context, gzipOK bool, send func(body []byte) error) (leased bool, err error) {
	var job *wire.Job
	for {
		job, err = s.svc.NextJob(ctx)
		if err != nil {
			return false, err
		}
		if job != nil {
			break
		}
		// NextJob can answer nil before the window expires: a service
		// with no scheduler answers immediately, and a scheduler woken
		// mid-Evict during a scale-in (or racing its own shutdown) sees
		// an empty queue for an instant even though the evicted users are
		// re-marked stale moments later. Treating that first nil as "idle
		// for the whole window" would end the poll early and miss work
		// arriving in the remaining window, so re-poll — paced, to keep
		// scheduler-free services from spinning — until ctx ends.
		select {
		case <-ctx.Done():
			return false, nil
		case <-time.After(workerRepollEvery):
		}
	}
	// Worker jobs serialize in the transport layer; borrow the same
	// pooled buffers the user-driven payload path uses.
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	raw := wire.AppendJob(bufs.JSON, job, nil)
	bufs.JSON = raw
	body, gzBytes := raw, 0
	if gzipOK {
		gz, err := wire.AppendGzip(bufs.Gz, raw, s.svc.Config().GzipLevel)
		if err != nil {
			return true, err
		}
		bufs.Gz = gz
		body, gzBytes = gz, len(gz)
	}
	if send(body) == nil {
		s.svc.CountWorkerJob(job, len(raw), gzBytes)
	}
	return true, nil
}

func (s *HTTPServer) handleV1Job(w http.ResponseWriter, r *http.Request) error {
	return s.serveJob(w, r, false)
}

// serveJob serves the requester's personalization job from pooled
// buffers, so a steady-state request borrows every buffer it touches.
// GET /v1/job negotiates gzip; the legacy /online always gzips, exactly
// as the paper's Jetty deployment serves it, and records the rating the
// widget may piggyback on the request.
func (s *HTTPServer) serveJob(w http.ResponseWriter, r *http.Request, legacy bool) error {
	uid, err := s.requester(w, r, true)
	if err != nil {
		return err
	}
	s.seen.Touch(uid)
	if legacy && r.URL.Query().Get("item") != "" {
		if err := s.rateQuery(r, uid); err != nil {
			return err
		}
	}
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	jsonBody, gzBody, err := s.svc.AppendJobPayload(r.Context(), uid, bufs.JSON, bufs.Gz)
	if err != nil {
		return err
	}
	// Keep the grown capacity pooled for the next request.
	bufs.JSON, bufs.Gz = jsonBody, gzBody
	if legacy || acceptsGzip(r) {
		return writeJobBody(w, gzBody, true)
	}
	return writeJobBody(w, jsonBody, false)
}

// writeJobBody answers a serialized job, announcing its encoding and
// length.
func writeJobBody(w http.ResponseWriter, body []byte, gzipped bool) error {
	w.Header().Set("Content-Type", "application/json")
	if gzipped {
		w.Header().Set("Content-Encoding", "gzip")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
	return nil
}

// isWorker reports whether a /v1/job request is a pull-based worker
// dispatch rather than a user-driven job request.
func isWorker(r *http.Request) bool {
	b, err := strconv.ParseBool(r.URL.Query().Get("worker"))
	return err == nil && b
}

// handleV1WorkerJob serves GET /v1/job?worker=1[&wait=D]: the next
// leased job from the staleness queue, long-polling up to `wait`
// (capped) and answering 204 No Content when the queue stays empty.
func (s *HTTPServer) handleV1WorkerJob(w http.ResponseWriter, r *http.Request) error {
	wait := time.Duration(0)
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			return badRequest(fmt.Sprintf("bad wait %q", raw))
		}
		wait = d
	}
	ctx, cancel := s.pollWindow(r.Context(), wait)
	defer cancel()
	gzipOK := acceptsGzip(r)
	leased, err := s.pullJob(ctx, gzipOK, func(body []byte) error {
		return writeJobBody(w, body, gzipOK)
	})
	if err == nil && !leased {
		w.WriteHeader(http.StatusNoContent)
	}
	return err
}

// handleV1Ack serves POST /v1/ack: complete (done=true) or abandon
// (done=false) a lease without posting a result.
func (s *HTTPServer) handleV1Ack(w http.ResponseWriter, r *http.Request) error {
	// DecodeAck is the fuzzed production decoder (FuzzDecodeAck).
	req, err := decodeBody(w, r, wire.MaxBodyBytes, "ack", false, wire.DecodeAck)
	if err != nil {
		return err
	}
	if _, err := s.ack(r.Context(), []frame.Ack{{Lease: req.Lease, Done: req.Done}}); err != nil {
		return err
	}
	return replyJSON(w, http.StatusOK, wire.AckResponse{Status: "ok"})
}

func (s *HTTPServer) handleV1Result(w http.ResponseWriter, r *http.Request) error {
	// DecodeResult is the fuzzed production decoder (FuzzDecodeResult).
	res, err := decodeBody(w, r, wire.MaxBodyBytes, "result", true, wire.DecodeResult)
	if err != nil {
		return err
	}
	recs, err := s.applyResult(r.Context(), res)
	if err != nil {
		return err
	}
	return replyJSON(w, http.StatusOK, wire.RecsResponse{Recs: ids32(recs)})
}

func (s *HTTPServer) handleV1Recs(w http.ResponseWriter, r *http.Request) error {
	uid, err := s.requester(w, r, false)
	if err != nil {
		return err
	}
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		if n, err = strconv.Atoi(raw); err != nil || n < 0 {
			return badRequest(fmt.Sprintf("bad n %q", raw))
		}
	}
	recs, err := s.svc.Recommendations(r.Context(), uid, n)
	if err != nil {
		return err
	}
	return replyJSON(w, http.StatusOK, wire.RecsResponse{Recs: ids32(recs)})
}

func (s *HTTPServer) handleV1Neighbors(w http.ResponseWriter, r *http.Request) error {
	uid, err := s.requester(w, r, false)
	if err != nil {
		return err
	}
	hood, err := s.svc.Neighbors(r.Context(), uid)
	if err != nil {
		return err
	}
	return replyJSON(w, http.StatusOK, wire.NeighborsResponse{Neighbors: ids32(hood)})
}

// ---- shared plumbing ----

// acceptsGzip reports whether the request negotiates gzip encoding.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc := strings.TrimSpace(part)
		if i := strings.IndexByte(enc, ';'); i >= 0 {
			enc = strings.TrimSpace(enc[:i])
		}
		if enc == "gzip" || enc == "*" {
			return true
		}
	}
	return false
}

// UIDFromRequest resolves the requesting user: an explicit ?uid parameter
// wins; otherwise the identification cookie is consulted. known is false
// when the request carries neither. Shared by every endpoint so legacy
// and /v1 identification stay protocol-identical.
func UIDFromRequest(r *http.Request) (uid core.UserID, known bool, err error) {
	raw, what := r.URL.Query().Get("uid"), "uid"
	if raw == "" {
		c, err := r.Cookie(UIDCookieName)
		if err != nil {
			return 0, false, nil
		}
		raw, what = c.Value, UIDCookieName+" cookie"
	}
	uid64, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, false, fmt.Errorf("bad %s %q", what, raw)
	}
	return core.UserID(uid64), true, nil
}

// SetUIDCookie hands uid to the browser as the identification cookie —
// the attributes every front-end must agree on.
func SetUIDCookie(w http.ResponseWriter, uid core.UserID) {
	http.SetCookie(w, &http.Cookie{
		Name:     UIDCookieName,
		Value:    strconv.FormatUint(uint64(uid), 10),
		Path:     "/",
		HttpOnly: true,
		SameSite: http.SameSiteLaxMode,
	})
}

// requester resolves the requesting user (UIDFromRequest). A job route
// (mint) meets a first visit without identification by minting a user
// and handing the browser the cookie (Section 4.2); other routes
// answer 400.
func (s *HTTPServer) requester(w http.ResponseWriter, r *http.Request, mint bool) (core.UserID, error) {
	uid, known, err := UIDFromRequest(r)
	switch {
	case err != nil:
		return 0, badRequest(err.Error())
	case known:
		return uid, nil
	case !mint:
		return 0, badRequest("missing uid (no ?uid parameter or " + UIDCookieName + " cookie)")
	}
	if uid, err = s.mintUser(); err != nil {
		return 0, err
	}
	SetUIDCookie(w, uid)
	return uid, nil
}

// mintUser allocates an unused user ID and registers it so concurrent
// mints cannot collide. It fails when the backend has no user directory
// (a Node).
func (s *HTTPServer) mintUser() (core.UserID, error) {
	if s.dir == nil {
		return 0, badRequest("service cannot mint users; supply ?uid or the " + UIDCookieName + " cookie")
	}
	s.mintMu.Lock()
	defer s.mintMu.Unlock()
	for {
		id := core.UserID(s.mint.Uint32())
		if id == 0 || s.dir.KnownUser(id) {
			continue
		}
		s.dir.RegisterUser(id)
		return id, nil
	}
}

// rateQuery records the rating a Table-1 request carries for uid
// (?item=I&liked=B, liked defaulting to true) and marks uid present.
func (s *HTTPServer) rateQuery(r *http.Request, uid core.UserID) error {
	q := r.URL.Query()
	item64, err := strconv.ParseUint(q.Get("item"), 10, 32)
	if err != nil {
		return badRequest(fmt.Sprintf("bad item %q", q.Get("item")))
	}
	liked := true
	if v := q.Get("liked"); v != "" {
		if liked, err = strconv.ParseBool(v); err != nil {
			return badRequest(fmt.Sprintf("bad liked %q", v))
		}
	}
	s.seen.Touch(uid)
	return s.svc.Rate(r.Context(), uid, core.ItemID(item64), liked)
}
