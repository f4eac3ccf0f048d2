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
		gate:         newGate(b.Config()),
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

// nodePlaneAuthorized checks r against the configured node-plane secret,
// writing the typed 403 on mismatch.
func (s *HTTPServer) nodePlaneAuthorized(w http.ResponseWriter, r *http.Request) bool {
	if s.nodeSecret == "" {
		return true
	}
	got := r.Header.Get(NodeSecretHeader)
	if subtle.ConstantTimeCompare([]byte(got), []byte(s.nodeSecret)) == 1 {
		return true
	}
	writeV1Error(w, http.StatusForbidden, wire.CodeForbidden, "node-plane secret missing or wrong")
	return false
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

// Handler returns the route table: the legacy Table-1 endpoints plus the
// versioned /v1 batch protocol.
func (s *HTTPServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/online", s.handleOnline)
	mux.HandleFunc("/online/", s.handleOnline)
	mux.HandleFunc("/neighbors", s.handleNeighbors)
	mux.HandleFunc("/neighbors/", s.handleNeighbors)
	mux.HandleFunc("/rate", s.handleRate)
	mux.HandleFunc("/recommendations", s.handleRecommendations)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Liveness doubles as epoch exchange: peers probing this node
		// learn which node-map epoch it runs, and repair the difference.
		if s.node != nil {
			w.Header().Set(NodeEpochHeader, strconv.FormatUint(s.node.NodeEpoch(), 10))
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc(wire.V1Prefix+"/rate", s.handleV1Rate)
	mux.HandleFunc(wire.V1Prefix+"/job", s.handleV1Job)
	mux.HandleFunc(wire.WSWorkerPath, s.handleV1WorkerWS)
	mux.HandleFunc(wire.V1Prefix+"/ack", s.handleV1Ack)
	mux.HandleFunc(wire.V1Prefix+"/result", s.handleV1Result)
	mux.HandleFunc(wire.V1Prefix+"/recs", s.handleV1Recs)
	mux.HandleFunc(wire.V1Prefix+"/neighbors", s.handleV1Neighbors)
	mux.HandleFunc(wire.V1Prefix+"/topology", s.handleV1Topology)
	mux.HandleFunc(wire.V1Prefix+"/replicate", s.handleV1Replicate)
	mux.HandleFunc(wire.V1Prefix+"/nodes", s.handleV1Nodes)
	// Node-forwarded requests are marked in the context so a service can
	// refuse to proxy them a second time (loop guard; see ForwardedHeader).
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(ForwardedHeader) != "" {
			r = r.WithContext(WithForwarded(r.Context()))
		}
		mux.ServeHTTP(w, r)
	})
}

// handleV1Replicate serves POST /v1/replicate: a primary's replication
// batch for a partition this node mirrors (or owns, during a handoff).
func (s *HTTPServer) handleV1Replicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeV1Error(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "POST required")
		return
	}
	if !s.nodePlaneAuthorized(w, r) {
		return
	}
	if s.node == nil {
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "service does not accept replication")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxReplBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeV1Error(w, http.StatusRequestEntityTooLarge, wire.CodeTooLarge,
				fmt.Sprintf("body exceeds %d bytes", wire.MaxReplBodyBytes))
			return
		}
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "bad replicate body: "+err.Error())
		return
	}
	// DecodeReplBatch is the fuzzed production decoder (FuzzDecodeReplBatch).
	batch, err := wire.DecodeReplBatch(body)
	if err != nil {
		if errors.Is(err, wire.ErrTooLarge) {
			writeV1Error(w, http.StatusRequestEntityTooLarge, wire.CodeTooLarge, err.Error())
			return
		}
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "bad replicate body: "+err.Error())
		return
	}
	ack, err := s.node.Replicate(r.Context(), batch)
	if err != nil {
		writeV1ServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ack)
}

// handleV1Nodes serves POST /v1/nodes: the failover coordinator's node
// map push. Stale epochs are ignored by the sink, not an error.
func (s *HTTPServer) handleV1Nodes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeV1Error(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "POST required")
		return
	}
	if !s.nodePlaneAuthorized(w, r) {
		return
	}
	if s.node == nil {
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "service does not accept node maps")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes))
	if err != nil {
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "bad node map body: "+err.Error())
		return
	}
	// DecodeNodeMap is the fuzzed production decoder (FuzzDecodeNodeMap).
	nm, err := wire.DecodeNodeMap(body)
	if err != nil {
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "bad node map body: "+err.Error())
		return
	}
	if err := s.node.ApplyNodeMap(r.Context(), nm); err != nil {
		writeV1ServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.AckResponse{Status: "ok"})
}

// ---- legacy Table-1 endpoints ----

func (s *HTTPServer) handleOnline(w http.ResponseWriter, r *http.Request) {
	// Read class even when a rating piggybacks: the job assembly
	// dominates the request's cost.
	release, admitted := s.admitHTTP(w, r, admit.Read)
	if !admitted {
		return
	}
	defer release()
	uid, known, err := UIDFromRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !known {
		// First visit without identification: mint an ID and hand it to
		// the browser as a cookie (Section 4.2).
		uid, err = s.mintUser()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		SetUIDCookie(w, uid)
	}
	s.seen.Touch(uid)
	// The widget may piggyback the rating that triggered the request.
	if itemStr := r.URL.Query().Get("item"); itemStr != "" {
		item, liked, err := rateParams(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.svc.Rate(r.Context(), uid, item, liked); err != nil {
			writeLegacyError(w, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.writeJob(w, r.Context(), uid, true); err != nil {
		writeLegacyError(w, err)
	}
}

func (s *HTTPServer) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	// Applying a KNN result is worker-class traffic regardless of which
	// wire shape (POST body or Table-1 query form) carried it.
	release, admitted := s.admitHTTP(w, r, admit.Worker)
	if !admitted {
		return
	}
	defer release()
	var res wire.Result
	switch r.Method {
	case http.MethodPost:
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes)).Decode(&res); err != nil {
			http.Error(w, fmt.Sprintf("bad result body: %v", err), http.StatusBadRequest)
			return
		}
	default:
		// Query form per Table 1: ?uid=U&epoch=E&id0=..&id1=..
		q := r.URL.Query()
		uid64, err := strconv.ParseUint(q.Get("uid"), 10, 32)
		if err != nil {
			http.Error(w, "bad uid", http.StatusBadRequest)
			return
		}
		epoch, _ := strconv.ParseUint(q.Get("epoch"), 10, 64)
		res = wire.Result{UID: uint32(uid64), Epoch: epoch}
		for i := 0; ; i++ {
			v := q.Get("id" + strconv.Itoa(i))
			if v == "" {
				break
			}
			id64, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad id%d", i), http.StatusBadRequest)
				return
			}
			res.Neighbors = append(res.Neighbors, uint32(id64))
		}
		for _, v := range strings.Split(q.Get("recs"), ",") {
			if v == "" {
				continue
			}
			id64, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				http.Error(w, "bad recs", http.StatusBadRequest)
				return
			}
			res.Recommendations = append(res.Recommendations, uint32(id64))
		}
	}

	if _, err := s.svc.ApplyResult(r.Context(), &res); err != nil {
		writeLegacyError(w, err)
		return
	}
	s.touchResult(&res)
	w.WriteHeader(http.StatusNoContent)
}

func (s *HTTPServer) handleRate(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admitHTTP(w, r, admit.Rating)
	if !ok {
		return
	}
	defer release()
	uid, known, err := UIDFromRequest(r)
	if err != nil || !known {
		http.Error(w, errOrMissing(err), http.StatusBadRequest)
		return
	}
	item, liked, err := rateParams(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.seen.Touch(uid)
	if err := s.svc.Rate(r.Context(), uid, item, liked); err != nil {
		writeLegacyError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *HTTPServer) handleRecommendations(w http.ResponseWriter, r *http.Request) {
	release, admitted := s.admitHTTP(w, r, admit.Read)
	if !admitted {
		return
	}
	defer release()
	uid, known, err := UIDFromRequest(r)
	if err != nil || !known {
		http.Error(w, errOrMissing(err), http.StatusBadRequest)
		return
	}
	recs, err := s.svc.Recommendations(r.Context(), uid, 0)
	if err != nil {
		writeLegacyError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(recs); err != nil {
		return
	}
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

func (s *HTTPServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.stats()); err != nil {
		return
	}
}

// handleMetrics serves GET /metrics: the same counters as /stats in
// Prometheus text exposition format, plus the elastic-topology gauges
// hyrec_topology_partitions and hyrec_migration_users_moved_total. The
// alias lets a scrape target consume the deployment without a JSON
// exporter sidecar. Keys ending in _total are typed counter, every
// other key gauge.
func (s *HTTPServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
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
		case int:
			fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, typ, name, v)
		case int64:
			fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, typ, name, v)
		case float64:
			fmt.Fprintf(w, "# TYPE %s %s\n%s %g\n", name, typ, name, v)
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
}

// handleV1Topology serves the admin topology endpoint: GET reports the
// current shape (partition count, ring parameter, migration status);
// POST triggers a live resharding to the requested partition count and
// returns the resulting topology once the migration has completed.
func (s *HTTPServer) handleV1Topology(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		topo := s.svc.Topology()
		// ?uid=U additionally resolves the node serving that user's
		// partition as primary, when the service knows the node map.
		if raw := r.URL.Query().Get("uid"); raw != "" {
			if s.node == nil {
				writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "service cannot locate users by node")
				return
			}
			uid64, err := strconv.ParseUint(raw, 10, 32)
			if err != nil {
				writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, fmt.Sprintf("bad uid %q", raw))
				return
			}
			if ref, ok := s.node.LocateUser(core.UserID(uid64)); ok {
				topo.Owner = &ref
			}
		}
		writeJSON(w, http.StatusOK, topo)
	case http.MethodPost:
		if s.scaler == nil {
			writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "service is not elastic (single engine?)")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes))
		if err != nil {
			writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "bad scale body: "+err.Error())
			return
		}
		var req wire.ScaleRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "bad scale body: "+err.Error())
			return
		}
		if req.Partitions < 1 {
			writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest,
				fmt.Sprintf("partitions must be >= 1, got %d", req.Partitions))
			return
		}
		if err := s.scaler.Scale(r.Context(), req.Partitions); err != nil {
			writeV1ServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.svc.Topology())
	default:
		writeV1Error(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "GET or POST required")
	}
}

// ---- /v1 batch protocol ----

func (s *HTTPServer) handleV1Rate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeV1Error(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "POST required")
		return
	}
	release, ok := s.admitHTTP(w, r, admit.Rating)
	if !ok {
		return
	}
	defer release()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeV1Error(w, http.StatusRequestEntityTooLarge, wire.CodeTooLarge,
				fmt.Sprintf("body exceeds %d bytes", wire.MaxBodyBytes))
			return
		}
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "bad rate body: "+err.Error())
		return
	}
	// DecodeRateRequest is the fuzzed production decoder
	// (FuzzDecodeRateBatch): malformed or oversized input yields a typed
	// error, never a panic or a silently truncated batch.
	req, err := wire.DecodeRateRequest(body)
	if err != nil {
		if errors.Is(err, wire.ErrTooLarge) {
			writeV1Error(w, http.StatusRequestEntityTooLarge, wire.CodeTooLarge, err.Error())
			return
		}
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "bad rate body: "+err.Error())
		return
	}
	ratings := make([]core.Rating, len(req.Ratings))
	for i, m := range req.Ratings {
		ratings[i] = core.Rating{User: core.UserID(m.UID), Item: core.ItemID(m.Item), Liked: m.Liked}
		s.seen.Touch(ratings[i].User)
	}
	if err := s.svc.RateBatch(r.Context(), ratings); err != nil {
		writeV1ServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.RateResponse{Accepted: len(ratings)})
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

func (s *HTTPServer) handleV1Job(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeV1Error(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "GET required")
		return
	}
	if isWorker(r) {
		s.handleV1WorkerJob(w, r)
		return
	}
	release, admitted := s.admitHTTP(w, r, admit.Read)
	if !admitted {
		return
	}
	defer release()
	uid, known, err := UIDFromRequest(r)
	if err != nil {
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	if !known {
		uid, err = s.mintUser()
		if err != nil {
			writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
			return
		}
		SetUIDCookie(w, uid)
	}
	s.seen.Touch(uid)
	w.Header().Set("Content-Type", "application/json")
	if err := s.writeJob(w, r.Context(), uid, acceptsGzip(r)); err != nil {
		writeV1ServiceError(w, err)
		return
	}
}

// isWorker reports whether a /v1/job request is a pull-based worker
// dispatch rather than a user-driven job request.
func isWorker(r *http.Request) bool {
	v := r.URL.Query().Get("worker")
	if v == "" {
		return false
	}
	b, err := strconv.ParseBool(v)
	return err == nil && b
}

// handleV1WorkerJob serves GET /v1/job?worker=1[&wait=D]: the next
// leased job from the staleness queue, long-polling up to `wait`
// (capped) and answering 204 No Content when the queue stays empty.
func (s *HTTPServer) handleV1WorkerJob(w http.ResponseWriter, r *http.Request) {
	// A parked long-poll holds its worker slot for the whole park: parked
	// polls are exactly the held capacity the worker bound meters.
	release, admitted := s.admitHTTP(w, r, admit.Worker)
	if !admitted {
		return
	}
	defer release()
	wait := time.Duration(0)
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, fmt.Sprintf("bad wait %q", raw))
			return
		}
		wait = d
	}
	ctx, cancel := s.pollWindow(r.Context(), wait)
	defer cancel()
	gzipOK := acceptsGzip(r)
	leased, err := s.pullJob(ctx, gzipOK, func(body []byte) error {
		w.Header().Set("Content-Type", "application/json")
		if gzipOK {
			w.Header().Set("Content-Encoding", "gzip")
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
		return nil
	})
	switch {
	case err != nil:
		writeV1ServiceError(w, err)
	case !leased:
		w.WriteHeader(http.StatusNoContent)
	}
}

// handleV1Ack serves POST /v1/ack: complete (done=true) or abandon
// (done=false) a lease without posting a result.
func (s *HTTPServer) handleV1Ack(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeV1Error(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "POST required")
		return
	}
	release, admitted := s.admitHTTP(w, r, admit.Worker)
	if !admitted {
		return
	}
	defer release()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes))
	if err != nil {
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "bad ack body: "+err.Error())
		return
	}
	// DecodeAck is the fuzzed production decoder (FuzzDecodeAck).
	req, err := wire.DecodeAck(body)
	if err != nil {
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "bad ack body: "+err.Error())
		return
	}
	if err := s.svc.Ack(r.Context(), req.Lease, req.Done); err != nil {
		writeV1ServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.AckResponse{Status: "ok"})
}

func (s *HTTPServer) handleV1Result(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeV1Error(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "POST required")
		return
	}
	release, admitted := s.admitHTTP(w, r, admit.Worker)
	if !admitted {
		return
	}
	defer release()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeV1Error(w, http.StatusRequestEntityTooLarge, wire.CodeTooLarge,
				fmt.Sprintf("body exceeds %d bytes", wire.MaxBodyBytes))
			return
		}
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "bad result body: "+err.Error())
		return
	}
	// DecodeResult is the fuzzed production decoder (FuzzDecodeResult).
	res, err := wire.DecodeResult(body)
	if err != nil {
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, "bad result body: "+err.Error())
		return
	}
	recs, err := s.svc.ApplyResult(r.Context(), res)
	if err != nil {
		writeV1ServiceError(w, err)
		return
	}
	s.touchResult(res)
	out := wire.RecsResponse{Recs: make([]uint32, len(recs))}
	for i, it := range recs {
		out.Recs[i] = uint32(it)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *HTTPServer) handleV1Recs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeV1Error(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "GET required")
		return
	}
	release, admitted := s.admitHTTP(w, r, admit.Read)
	if !admitted {
		return
	}
	defer release()
	uid, known, err := UIDFromRequest(r)
	if err != nil || !known {
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, errOrMissing(err))
		return
	}
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		n, err = strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, fmt.Sprintf("bad n %q", raw))
			return
		}
	}
	recs, err := s.svc.Recommendations(r.Context(), uid, n)
	if err != nil {
		writeV1ServiceError(w, err)
		return
	}
	out := wire.RecsResponse{Recs: make([]uint32, len(recs))}
	for i, it := range recs {
		out.Recs[i] = uint32(it)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *HTTPServer) handleV1Neighbors(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeV1Error(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "GET required")
		return
	}
	release, admitted := s.admitHTTP(w, r, admit.Read)
	if !admitted {
		return
	}
	defer release()
	uid, known, err := UIDFromRequest(r)
	if err != nil || !known {
		writeV1Error(w, http.StatusBadRequest, wire.CodeBadRequest, errOrMissing(err))
		return
	}
	hood, err := s.svc.Neighbors(r.Context(), uid)
	if err != nil {
		writeV1ServiceError(w, err)
		return
	}
	out := wire.NeighborsResponse{Neighbors: make([]uint32, len(hood))}
	for i, v := range hood {
		out.Neighbors[i] = uint32(v)
	}
	writeJSON(w, http.StatusOK, out)
}

// ---- shared plumbing ----

// writeJob serves u's serialized job body (headers beyond Content-Type
// are set here) from pooled buffers, so a steady-state request borrows
// every buffer it touches. Nothing has been written to w when an error
// is returned.
func (s *HTTPServer) writeJob(w http.ResponseWriter, ctx context.Context, u core.UserID, gzipOK bool) error {
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	jsonBody, gzBody, err := s.svc.AppendJobPayload(ctx, u, bufs.JSON, bufs.Gz)
	if err != nil {
		return err
	}
	// Keep the grown capacity pooled for the next request.
	bufs.JSON, bufs.Gz = jsonBody, gzBody
	body := jsonBody
	if gzipOK {
		w.Header().Set("Content-Encoding", "gzip")
		body = gzBody
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
	return nil
}

// touchResult records presence for the real user behind an applied
// result.
func (s *HTTPServer) touchResult(res *wire.Result) {
	if u, ok := s.svc.ResolveUser(core.UserID(res.UID), res.Epoch); ok {
		s.seen.Touch(u)
	}
}

// statusForErr maps a Service error to an HTTP status and v1 error code.
func statusForErr(err error) (int, string) {
	switch {
	case errors.Is(err, ErrStaleEpoch):
		return http.StatusGone, wire.CodeStaleEpoch
	case errors.Is(err, ErrUnknownUser):
		return http.StatusNotFound, wire.CodeUnknownUser
	case errors.Is(err, ErrUnknownLease):
		return http.StatusNotFound, wire.CodeUnknownLease
	case errors.Is(err, ErrNotPrimary):
		// The not_primary rejection shares CodeMoved's 421 family: the
		// client refreshes its topology and retries once against the
		// primary the envelope names.
		return http.StatusMisdirectedRequest, wire.CodeNotPrimary
	case errors.Is(err, ErrMoved):
		return http.StatusMisdirectedRequest, wire.CodeMoved
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, wire.CodeOverloaded
	default:
		return http.StatusInternalServerError, wire.CodeInternal
	}
}

// writeLegacyError answers a Table-1 endpoint's service error as plain
// text, under the same status mapping as the /v1 envelopes.
func writeLegacyError(w http.ResponseWriter, err error) {
	status, _ := statusForErr(err)
	http.Error(w, err.Error(), status)
}

func writeV1ServiceError(w http.ResponseWriter, err error) {
	status, code := statusForErr(err)
	var np *NotPrimaryError
	if errors.As(err, &np) && np.PrimaryAddr != "" {
		writeJSON(w, status, wire.ErrorEnvelope{Error: wire.ErrorBody{
			Code: code, Message: err.Error(), Primary: np.PrimaryAddr,
		}})
		return
	}
	writeV1Error(w, status, code, err.Error())
}

func writeV1Error(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, wire.ErrorEnvelope{Error: wire.ErrorBody{Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return
	}
}

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
	if raw := r.URL.Query().Get("uid"); raw != "" {
		uid64, err := strconv.ParseUint(raw, 10, 32)
		if err != nil {
			return 0, false, fmt.Errorf("bad uid %q", raw)
		}
		return core.UserID(uid64), true, nil
	}
	if c, err := r.Cookie(UIDCookieName); err == nil {
		uid64, err := strconv.ParseUint(c.Value, 10, 32)
		if err != nil {
			return 0, false, fmt.Errorf("bad %s cookie %q", UIDCookieName, c.Value)
		}
		return core.UserID(uid64), true, nil
	}
	return 0, false, nil
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

// mintUser allocates an unused user ID and registers it so concurrent
// mints cannot collide. It fails when the backend has no user directory
// (a Node).
func (s *HTTPServer) mintUser() (core.UserID, error) {
	if s.dir == nil {
		return 0, errors.New("service cannot mint users; supply ?uid or the " + UIDCookieName + " cookie")
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

// errOrMissing renders a uid-resolution failure for a 400 response.
func errOrMissing(err error) string {
	if err != nil {
		return err.Error()
	}
	return "missing uid (no ?uid parameter or " + UIDCookieName + " cookie)"
}

func rateParams(r *http.Request) (core.ItemID, bool, error) {
	q := r.URL.Query()
	item64, err := strconv.ParseUint(q.Get("item"), 10, 32)
	if err != nil {
		return 0, false, fmt.Errorf("bad item %q", q.Get("item"))
	}
	liked := true
	if v := q.Get("liked"); v != "" {
		liked, err = strconv.ParseBool(v)
		if err != nil {
			return 0, false, fmt.Errorf("bad liked %q", v)
		}
	}
	return core.ItemID(item64), liked, nil
}
