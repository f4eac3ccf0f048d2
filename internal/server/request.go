package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"hyrec/internal/admit"
	"hyrec/internal/core"
	"hyrec/internal/frame"
	"hyrec/internal/wire"
	"hyrec/internal/ws"
)

// The request core under the three wire planes (HTTP, framed,
// WebSocket). Every handler returns an error instead of answering it;
// each plane has one wrapper that clears admission through its route
// table and turns the handler's error into its wire answer, through one
// writer per encoding — the v1 JSON envelope, legacy plain text, TError
// and the WS error frame — all mapped by statusForErr. The per-op steps
// every codec runs (rate ingest, result fold-in, acks, id lists) are
// written once here.

// requestError is a request the transport itself rejects: malformed
// parameters or body, a body over its limit, a wrong method, a missing
// node-plane secret. code is the v1 error code it answers with; msg is
// sent as is.
type requestError struct{ code, msg string }

func (e *requestError) Error() string { return e.msg }

func badRequest(msg string) error { return &requestError{wire.CodeBadRequest, msg} }

// errNodeSecret answers node-plane requests that lack the deployment's
// shared secret, on both planes.
var errNodeSecret error = &requestError{wire.CodeForbidden, "node-plane secret missing or wrong"}

// sentinelCodes maps the service sentinels to their v1 codes; the first
// match wins.
var sentinelCodes = []struct {
	err  error
	code string
}{
	{ErrStaleEpoch, wire.CodeStaleEpoch},
	{ErrUnknownUser, wire.CodeUnknownUser},
	{ErrUnknownLease, wire.CodeUnknownLease},
	// not_primary shares moved's 421 family: the client refreshes its
	// topology and retries once against the primary the envelope names.
	{ErrNotPrimary, wire.CodeNotPrimary},
	{ErrMoved, wire.CodeMoved},
	{ErrOverloaded, wire.CodeOverloaded},
}

// statusForErr maps an error to the HTTP status and the typed body every
// error answer is cut from: the v1 code (wire.StatusForCode gives the
// status), the message, and the hints — the primary's address on a
// not_primary rejection and the retry-after of a shed.
func statusForErr(err error) (int, wire.ErrorBody) {
	body := wire.ErrorBody{Code: wire.CodeInternal, Message: err.Error()}
	var re *requestError
	if errors.As(err, &re) {
		body.Code = re.code
	}
	for _, sc := range sentinelCodes {
		if body.Code == wire.CodeInternal && errors.Is(err, sc.err) {
			body.Code = sc.code
		}
	}
	var np *NotPrimaryError
	if errors.As(err, &np) {
		body.Primary = np.PrimaryAddr
	}
	var shed *shedError
	if errors.As(err, &shed) {
		body.RetryAfterMS = int64(shed.retryAfter / time.Millisecond)
	}
	return wire.StatusForCode(body.Code), body
}

// writeV1Error answers err as the v1 JSON envelope. A shed also sets
// Retry-After in whole seconds, rounded up per RFC 9110.
func writeV1Error(w http.ResponseWriter, err error) {
	status, body := statusForErr(err)
	if body.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(max((body.RetryAfterMS+999)/1000, 1), 10))
	}
	replyJSON(w, status, wire.ErrorEnvelope{Error: body})
}

// writeLegacyError answers a Table-1 route's error as plain text, under
// the same status mapping as the v1 envelope.
func writeLegacyError(w http.ResponseWriter, err error) {
	status, _ := statusForErr(err)
	http.Error(w, err.Error(), status)
}

// sendFrameError answers a stream with the TError for err: the code,
// plus the primary-address and retry-after hints.
func sendFrameError(cn *frame.Conn, stream uint64, err error) {
	_, b := statusForErr(err)
	cn.WriteFrame(frame.TError, stream, frame.AppendError(nil, b.Code, b.Message, b.Primary, uint64(b.RetryAfterMS)))
}

// wsSendError pushes err to the worker as an ErrorEnvelope frame (the
// socket analogue of a non-2xx response) carrying the code and message.
// A cancelled session is not reported, and transport failures are
// ignored — the session is ending anyway.
func wsSendError(conn *ws.Conn, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	_, b := statusForErr(err)
	if raw, err := json.Marshal(wire.ErrorEnvelope{Error: wire.ErrorBody{Code: b.Code, Message: b.Message}}); err == nil {
		conn.WriteMessage(ws.OpText, raw)
	}
}

// replyJSON answers v as a JSON body with status. It returns nil so
// handlers can end with it: once the status is on the wire an encode
// failure (a gone client) has no answer left.
func replyJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
	return nil
}

// rateBatch marks the raters present and records their ratings: the
// ingest of POST /v1/rate and TRateBatch.
func (s *HTTPServer) rateBatch(ctx context.Context, ratings []core.Rating) error {
	for _, r := range ratings {
		s.seen.Touch(r.User)
	}
	return s.svc.RateBatch(ctx, ratings)
}

// applyResult folds a widget result back in and marks the real user
// behind it present: /neighbors, POST /v1/result, TResult and WS result
// messages.
func (s *HTTPServer) applyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, error) {
	recs, err := s.svc.ApplyResult(ctx, res)
	if err != nil {
		return nil, err
	}
	if u, ok := s.svc.ResolveUser(core.UserID(res.UID), res.Epoch); ok {
		s.seen.Touch(u)
	}
	return recs, nil
}

// ack resolves leases without results. A lone ack keeps its typed error
// (unknown_lease and friends); in a batch a missing lease is expected
// turbulence (the scheduler re-issued it), so the batch only reports
// how many entries applied.
func (s *HTTPServer) ack(ctx context.Context, acks []frame.Ack) (applied int, err error) {
	for _, a := range acks {
		if err := s.svc.Ack(ctx, a.Lease, a.Done); err == nil {
			applied++
		} else if len(acks) == 1 {
			return 0, err
		}
	}
	return applied, nil
}

// ids32 converts recommendations or neighbors to their wire form (never
// nil, so an empty list encodes as []).
func ids32[T ~uint32](xs []T) []uint32 {
	out := make([]uint32, len(xs))
	for i, x := range xs {
		out[i] = uint32(x)
	}
	return out
}

// Admission control (ROADMAP item 5): every request entering the HTTP
// mux or the framed listener is classified — rating ingest, worker job
// traffic, rec/neighbor reads — by its plane's route table and must
// clear the gate before any service work happens. A full class answers
// a typed overloaded rejection with a retry-after hint instead of
// queueing without bound: 429 {"error":{"code":"overloaded"}} +
// Retry-After on HTTP, a TError carrying the same code and hint on the
// framed plane. The node plane (/v1/replicate, /v1/nodes, TReplBatch)
// and the worker WebSocket upgrade are not gated: peers and attached
// sockets are already bounded by membership and connection counts, and
// shedding replication would trade memory for durability.

// ErrOverloaded is returned when the admission gate sheds a request
// because its class's bounded queue is full. Mapped to HTTP 429 /
// CodeOverloaded; the typed client backs off the hinted duration and
// retries once.
var ErrOverloaded = errors.New("server: overloaded, admission queue full")

// shedError is an admission shed. It wraps ErrOverloaded and carries the
// gate's retry-after hint, which the v1 envelope and TError announce.
type shedError struct {
	msg        string
	retryAfter time.Duration
}

func (e *shedError) Error() string { return e.msg }

func (e *shedError) Unwrap() error { return ErrOverloaded }

// Route classes the gate never sheds: ungated routes (counters, health,
// topology, the worker socket) and the node plane, which is
// secret-checked instead.
const (
	ungated   admit.Class = -1
	nodePlane admit.Class = -2
)

// Gate exposes the admission gate (read-only use: stats, tests).
func (s *HTTPServer) Gate() *admit.Gate { return s.gate }

// acquire takes an admission slot of class c, or returns the shed error.
// The caller must invoke release exactly once when the request finishes
// (including the full parked window of a worker long-poll — a parked
// poll is held capacity, which is precisely what the worker bound
// meters).
func (s *HTTPServer) acquire(ctx context.Context, c admit.Class) (release func(), err error) {
	release, ok := s.gate.Acquire(ctx, c)
	if !ok {
		return nil, s.shed(c.String() + " queue full")
	}
	return release, nil
}

// shed is the overloaded rejection carrying the gate's retry-after hint.
func (s *HTTPServer) shed(msg string) error {
	return &shedError{msg: msg, retryAfter: s.gate.RetryAfter()}
}
