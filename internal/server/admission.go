package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"hyrec/internal/admit"
	"hyrec/internal/wire"
)

// Admission control (ROADMAP item 5): every request entering the HTTP
// mux or the framed listener is classified — rating ingest, worker job
// traffic, rec/neighbor reads — and must clear the gate before any
// service work happens. A full class answers a typed overloaded
// rejection with a retry-after hint instead of queueing without bound:
// 429 {"error":{"code":"overloaded"}} + Retry-After on HTTP, a TError
// carrying the same code and hint on the framed plane. The node plane
// (/v1/replicate, /v1/nodes, TReplBatch) and the worker WebSocket
// upgrade are not gated: peers and attached sockets are already
// bounded by membership and connection counts, and shedding
// replication would trade memory for durability.

// ErrOverloaded is returned when the admission gate sheds a request
// because its class's bounded queue is full. Mapped to HTTP 429 /
// CodeOverloaded; the typed client backs off the hinted duration and
// retries once.
var ErrOverloaded = errors.New("server: overloaded, admission queue full")

// newGate builds the admission gate for a backend's configuration. With
// all bounds zero the gate never sheds but still counts inflight per
// class.
func newGate(cfg Config) *admit.Gate {
	return admit.New(admit.Config{
		MaxRating: cfg.MaxInflightRating,
		MaxWorker: cfg.MaxInflightWorker,
		MaxRead:   cfg.MaxInflightRead,
	})
}

// Gate exposes the admission gate (read-only use: stats, tests).
func (s *HTTPServer) Gate() *admit.Gate { return s.gate }

// admitHTTP acquires an admission slot of class c for r, or writes the
// typed 429 and reports ok=false. On ok=true the caller must invoke
// release exactly once when the request finishes (including the full
// parked window of a worker long-poll — a parked poll is held
// capacity, which is precisely what the worker bound meters).
func (s *HTTPServer) admitHTTP(w http.ResponseWriter, r *http.Request, c admit.Class) (release func(), ok bool) {
	release, ok = s.gate.Acquire(r.Context(), c)
	if !ok {
		s.writeOverloaded(w, c.String()+" queue full")
		return nil, false
	}
	return release, true
}

// writeOverloaded answers the typed shed envelope: 429 with a
// Retry-After header in whole seconds (rounded up, per RFC 9110) and
// the finer-grained retry_after_ms inside the error body.
func (s *HTTPServer) writeOverloaded(w http.ResponseWriter, msg string) {
	ra := s.gate.RetryAfter()
	secs := int64((ra + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, http.StatusTooManyRequests, wire.ErrorEnvelope{Error: wire.ErrorBody{
		Code:         wire.CodeOverloaded,
		Message:      msg,
		RetryAfterMS: int64(ra / time.Millisecond),
	}})
}
