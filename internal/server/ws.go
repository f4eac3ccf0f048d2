package server

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"hyrec/internal/frame"
	"hyrec/internal/wire"
	"hyrec/internal/ws"
)

// wsPingEvery is the keepalive cadence on worker sockets: the server
// pings, the worker's transport pongs, and a socket that stops pumping
// frames is torn down by the peer's read failing. Variable for tests.
var wsPingEvery = 20 * time.Second

// wsWriteGrace bounds every server→worker write: a worker that stops
// draining its socket fails the push (or the keepalive ping) within
// this window instead of wedging the session goroutines, so the lease
// it was holding expires and is reissued. Variable for tests.
var wsWriteGrace = 30 * time.Second

// handleV1WorkerWS serves GET /v1/worker/ws: the push-capable worker
// transport. One upgraded connection carries the whole worker protocol —
// the server pushes leased jobs (one per credit the worker granted,
// byte-identical payloads to the long-poll path), the worker streams
// back results and acks, and ping/pong keepalive polices liveness. The
// long-poll /v1/job?worker=1 endpoint remains the compatibility surface
// for clients that cannot hold a socket.
func (s *HTTPServer) handleV1WorkerWS(w http.ResponseWriter, r *http.Request) error {
	conn, err := ws.Upgrade(w, r, wire.MaxBodyBytes)
	if err != nil {
		// The handshake already answered the request.
		return nil
	}
	conn.SetWriteGrace(wsWriteGrace)
	s.wsWorkers.Add(1)
	defer s.wsWorkers.Add(-1)
	defer conn.Close()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	// Server shutdown (Close) releases the session immediately.
	stop := context.AfterFunc(s.dispatchCtx, cancel)
	defer stop()

	sess := &wsSession{wake: make(chan struct{}, 1)}

	// Reader: credits, results and acks flow in until the worker closes
	// (or the socket dies), which ends the session.
	go func() {
		defer cancel()
		s.readWorkerSocket(ctx, conn, sess)
	}()
	// Keepalive pinger.
	go func() {
		ticker := time.NewTicker(wsPingEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				if err := conn.WritePing(nil); err != nil {
					cancel()
					return
				}
			}
		}
	}()

	// Push loop: one leased job per credit, waiting as long as the
	// session lives.
	for sess.take(ctx) {
		var writeErr error
		leased, err := s.pullJob(ctx, false, func(body []byte) error {
			writeErr = conn.WriteMessage(ws.OpText, body)
			return writeErr
		})
		if err != nil {
			wsSendError(conn, err)
			break
		}
		if !leased || writeErr != nil { // session over
			break
		}
		s.wsJobsPushed.Add(1)
	}
	// Graceful goodbye for the cases where the session ended server-side
	// (shutdown, dispatch error); a no-op if the worker closed first.
	conn.WriteClose(ws.CloseGoingAway, "")
	return nil
}

// readWorkerSocket drains worker→server messages until the socket ends,
// answering each failed result or ack with an error frame.
func (s *HTTPServer) readWorkerSocket(ctx context.Context, conn *ws.Conn, sess *wsSession) {
	for {
		_, raw, err := conn.ReadMessage()
		if err != nil {
			return
		}
		msg, err := wire.DecodeWSClientMsg(raw)
		if err != nil {
			wsSendError(conn, badRequest(err.Error()))
			continue
		}
		if msg.Want > 0 {
			sess.grant(msg.Want)
		}
		if msg.Result != nil {
			if _, err := s.applyResult(ctx, msg.Result); err != nil {
				wsSendError(conn, err)
			}
		}
		if msg.Ack != nil {
			if _, err := s.ack(ctx, []frame.Ack{{Lease: msg.Ack.Lease, Done: msg.Ack.Done}}); err != nil {
				wsSendError(conn, err)
			}
		}
	}
}

// wsSession is the per-connection credit ledger: the worker grants
// credits sized to its compute capacity (at most wire.MaxWSWant per
// message), the push loop spends them.
type wsSession struct {
	credits atomic.Int64
	wake    chan struct{}
}

func (w *wsSession) grant(n int) {
	w.credits.Add(int64(n))
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// take blocks until one credit is available (true) or the session ends
// (false). The push loop is the only taker, so a positive balance
// cannot drop between the check and the spend.
func (w *wsSession) take(ctx context.Context) bool {
	for w.credits.Load() <= 0 {
		select {
		case <-ctx.Done():
			return false
		case <-w.wake:
		}
	}
	w.credits.Add(-1)
	return true
}
