package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"hyrec/internal/admit"
	"hyrec/internal/core"
	"hyrec/internal/frame"
	"hyrec/internal/wire"
)

// The framed transport listener: the binary twin of the /v1 JSON
// protocol (see internal/frame). A connection opens with a THello
// handshake — magic, version, and the node-plane secret when the peer
// wants the replication lane — then any number of exchanges interleave
// on uvarint streams: the client picks a stream ID per request and the
// server answers on it, so one socket carries many in-flight rate
// batches, job pulls, result posts, batched acks and replication
// shipments with no per-request connection or header cost. Frame
// handlers reuse the exact service surfaces the HTTP handlers do, and
// job/result payloads are the exact JSON bytes the HTTP path carries,
// so the two transports cannot drift semantically.

// frameWriteGrace bounds each socket write on a framed connection, like
// the WS layer's write grace: a peer that stops draining fails its
// connection instead of wedging every response producer. Variable for
// tests.
var frameWriteGrace = 30 * time.Second

// frameHelloTimeout bounds how long a fresh connection may sit without
// completing its handshake before the listener drops it.
var frameHelloTimeout = 10 * time.Second

// maxConnPullStreams bounds parked TJobPull goroutines per connection:
// a framed client issuing thousands of concurrent pull streams on one
// socket gets the overloaded TError past this, instead of pinning a
// goroutine per stream. Variable for tests.
var maxConnPullStreams int64 = 32

// maxServerPullStreams bounds parked TJobPull goroutines across all
// framed connections, the overall backstop behind the per-connection
// cap. Variable for tests.
var maxServerPullStreams int64 = 1024

// ServeFrames accepts framed-transport connections on ln until it
// closes. Close tears the listener and every framed connection down.
// Run it on its own goroutine alongside the HTTP listener:
//
//	go hsrv.ServeFrames(ln)
func (s *HTTPServer) ServeFrames(ln net.Listener) error {
	stop := context.AfterFunc(s.dispatchCtx, func() { ln.Close() })
	defer stop()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.handleFrameConn(c)
	}
}

// handleFrameConn runs one framed connection: handshake, then a read
// loop that handles bounded-latency requests inline and parks job
// pulls on their own goroutines so a waiting worker never blocks rate
// batches behind it.
func (s *HTTPServer) handleFrameConn(c net.Conn) {
	cn := frame.NewConn(c, 0)
	cn.SetMeter(&s.frameBytes)
	cn.SetWriteGrace(frameWriteGrace)
	defer cn.Close()

	authorized, err := s.frameHandshake(cn)
	if err != nil {
		return
	}
	s.frameConns.Add(1)
	defer s.frameConns.Add(-1)

	// Request contexts descend from dispatchCtx so Close releases parked
	// long-polls; closing the socket on Close unblocks the read loop.
	ctx, cancel := context.WithCancel(s.dispatchCtx)
	defer cancel()
	stop := context.AfterFunc(s.dispatchCtx, func() { cn.Close() })
	defer stop()

	var scr frameScratch
	for {
		f, err := cn.ReadFrame()
		if err != nil {
			return
		}
		s.dispatchFrame(ctx, cn, f, authorized, &scr)
	}
}

// frameScratch holds per-connection decode buffers reused across
// frames. Reuse is safe because handlers run inline (the next ReadFrame
// cannot start until the handler returns) and the service surfaces copy
// what they keep.
type frameScratch struct {
	ratings []core.Rating
	acks    []frame.Ack
	// pulls counts this connection's parked TJobPull goroutines against
	// maxConnPullStreams. Atomic because the parked goroutines decrement
	// it while the read loop checks and increments.
	pulls atomic.Int64
}

// frameHandshake reads and answers the THello frame, reporting whether
// the connection presented the node-plane secret. Malformed or
// mistimed handshakes drop the connection before any session state is
// allocated.
func (s *HTTPServer) frameHandshake(cn *frame.Conn) (authorized bool, err error) {
	cn.SetReadDeadline(time.Now().Add(frameHelloTimeout))
	defer cn.SetReadDeadline(time.Time{})
	f, err := cn.ReadFrame()
	if err != nil {
		return false, err
	}
	if f.Type != frame.THello {
		return false, fmt.Errorf("first frame %#x is not THello", byte(f.Type))
	}
	version, secret, err := frame.DecodeHello(f.Payload)
	if err != nil {
		return false, err
	}
	if version != frame.Version {
		sendFrameError(cn, f.Stream, badRequest(
			fmt.Sprintf("framed protocol version %d unsupported (want %d)", version, frame.Version)))
		return false, errors.New("version mismatch")
	}
	// Like the HTTP plane, a wrong or missing secret does not reject the
	// connection — it leaves the replication lane gated (TReplBatch
	// answers forbidden) while the client lanes stay usable.
	authorized = s.nodeSecretOK(secret)
	return authorized, cn.WriteFrame(frame.THelloOK, f.Stream, []byte{frame.Version})
}

// frameRoutes is the framed plane's route table: the admission class
// each request type clears before its handler runs. TReplBatch is node
// plane traffic — never shed, but refused on connections that did not
// present the node secret. TJobPull has no inline handler: it parks
// (parkJobPull).
var frameRoutes = map[frame.Type]struct {
	class admit.Class
	h     func(s *HTTPServer, ctx context.Context, cn *frame.Conn, f frame.Frame, scr *frameScratch) error
}{
	frame.TRateBatch: {admit.Rating, (*HTTPServer).frameRate},
	frame.TJobPull:   {admit.Worker, nil},
	frame.TJobGet:    {admit.Read, (*HTTPServer).frameJobGet},
	frame.TResult:    {admit.Worker, (*HTTPServer).frameResult},
	frame.TAckBatch:  {admit.Worker, (*HTTPServer).frameAckBatch},
	frame.TReplBatch: {nodePlane, (*HTTPServer).frameReplicate},
}

// dispatchFrame is the framed plane's wrapper: it handles one request
// frame and answers the handler's error as a TError on its stream.
// Handlers run inline on the connection's read loop — the framed twin
// of HTTP/1.1 pipelining, where the read loop is the natural
// backpressure point — except TJobPull, which parks for its long-poll
// window on its own goroutine so a waiting worker never blocks rate
// batches behind it. Inline handling means decode buffers and f.Payload
// (which aliases the connection's read buffer) stay valid for the
// handler's whole run, so the hot paths decode and answer without
// allocating.
func (s *HTTPServer) dispatchFrame(ctx context.Context, cn *frame.Conn, f frame.Frame, authorized bool, scr *frameScratch) {
	if err := s.serveFrame(ctx, cn, f, authorized, scr); err != nil {
		sendFrameError(cn, f.Stream, err)
	}
}

func (s *HTTPServer) serveFrame(ctx context.Context, cn *frame.Conn, f frame.Frame, authorized bool, scr *frameScratch) error {
	rt, ok := frameRoutes[f.Type]
	switch {
	case !ok:
		return badRequest(fmt.Sprintf("unexpected frame type %#x", byte(f.Type)))
	case rt.class == nodePlane && !authorized:
		// Like the HTTP plane, a wrong or missing secret leaves the
		// replication lane gated while the client lanes stay usable.
		return errNodeSecret
	case rt.class == nodePlane:
		return rt.h(s, ctx, cn, f, scr)
	}
	release, err := s.acquire(ctx, rt.class)
	if err != nil {
		return err
	}
	if f.Type == frame.TJobPull {
		return s.parkJobPull(ctx, cn, f, scr, release)
	}
	defer release()
	return rt.h(s, ctx, cn, f, scr)
}

func (s *HTTPServer) frameRate(ctx context.Context, cn *frame.Conn, f frame.Frame, scr *frameScratch) error {
	ratings, err := frame.DecodeRateBatch(f.Payload, scr.ratings[:0])
	scr.ratings = ratings[:0]
	if err != nil {
		return badRequest("bad rate batch: " + err.Error())
	}
	if err := s.rateBatch(ctx, ratings); err != nil {
		return err
	}
	var ob [10]byte
	cn.WriteFrame(frame.TRateOK, f.Stream, frame.AppendUint(ob[:0], uint64(len(ratings))))
	return nil
}

// parkJobPull is the framed twin of handleV1WorkerJob: on its own
// goroutine, which owns the pull's worker slot (release) for the whole
// park, it long-polls the staleness queue up to the requested wait
// (capped like the HTTP path) and answers a TJob whose payload is the
// exact JSON bytes GET /v1/job?worker=1 would serve — empty when the
// queue stayed idle. Parked pulls are also bounded per connection and
// across the server; past either bound the pull sheds like a full
// class. Only this read loop increments scr.pulls, so the
// check-then-add is race-free.
func (s *HTTPServer) parkJobPull(ctx context.Context, cn *frame.Conn, f frame.Frame, scr *frameScratch, release func()) error {
	waitMS, err := frame.DecodeUint(f.Payload)
	switch {
	case err != nil:
		err = badRequest("bad job pull: " + err.Error())
	case scr.pulls.Load() >= maxConnPullStreams:
		err = s.shed("too many parked job pulls on this connection")
	case s.frameStreams.Load() >= maxServerPullStreams:
		err = s.shed("too many parked job pulls server-wide")
	}
	if err != nil {
		release()
		return err
	}
	scr.pulls.Add(1)
	s.frameStreams.Add(1)
	stream := f.Stream
	go func() {
		defer s.frameStreams.Add(-1)
		defer scr.pulls.Add(-1)
		defer release()
		ctx, cancel := s.pollWindow(ctx, time.Duration(waitMS)*time.Millisecond)
		defer cancel()
		leased, err := s.pullJob(ctx, false, func(body []byte) error {
			cn.WriteFrame(frame.TJob, stream, body)
			return nil
		})
		if err != nil {
			sendFrameError(cn, stream, err)
		} else if !leased {
			cn.WriteFrame(frame.TJob, stream, nil)
		}
	}()
	return nil
}

// frameJobGet serves one user's job payload — the framed twin of
// GET /v1/job?uid=U, carrying the identical JSON bytes.
func (s *HTTPServer) frameJobGet(ctx context.Context, cn *frame.Conn, f frame.Frame, _ *frameScratch) error {
	uid, err := frame.DecodeUID(f.Payload)
	if err != nil {
		return badRequest("bad job get: " + err.Error())
	}
	s.seen.Touch(core.UserID(uid))
	bufs := wire.GetPayloadBufs()
	defer wire.PutPayloadBufs(bufs)
	jsonBody, err := s.svc.AppendJobJSON(ctx, core.UserID(uid), bufs.JSON)
	if err != nil {
		return err
	}
	bufs.JSON = jsonBody
	cn.WriteFrame(frame.TJob, f.Stream, jsonBody)
	return nil
}

func (s *HTTPServer) frameResult(ctx context.Context, cn *frame.Conn, f frame.Frame, _ *frameScratch) error {
	res, err := wire.DecodeResult(f.Payload)
	if err != nil {
		return badRequest("bad result body: " + err.Error())
	}
	recs, err := s.applyResult(ctx, res)
	if err != nil {
		return err
	}
	buf := wire.GetBuf()
	out := frame.AppendUint((*buf)[:0], uint64(len(recs)))
	for _, it := range recs {
		out = frame.AppendUID(out, uint32(it))
	}
	*buf = out
	cn.WriteFrame(frame.TRecs, f.Stream, out)
	wire.PutBuf(buf)
	return nil
}

// frameAckBatch applies a batched ack, answering how many entries
// applied (see HTTPServer.ack for the single-entry error surface).
func (s *HTTPServer) frameAckBatch(ctx context.Context, cn *frame.Conn, f frame.Frame, scr *frameScratch) error {
	acks, err := frame.DecodeAckBatch(f.Payload, scr.acks[:0])
	scr.acks = acks[:0]
	if err != nil {
		return badRequest("bad ack batch: " + err.Error())
	}
	applied, err := s.ack(ctx, acks)
	if err != nil {
		return err
	}
	var ob [10]byte
	cn.WriteFrame(frame.TAckOK, f.Stream, frame.AppendUint(ob[:0], uint64(applied)))
	return nil
}

func (s *HTTPServer) frameReplicate(ctx context.Context, cn *frame.Conn, f frame.Frame, _ *frameScratch) error {
	batch, err := frame.DecodeReplBatch(f.Payload)
	if err != nil {
		return badRequest("bad replicate batch: " + err.Error())
	}
	if s.node == nil {
		return badRequest("service does not accept replication")
	}
	ack, err := s.node.Replicate(ctx, batch)
	if err != nil {
		return err
	}
	var ob [20]byte
	out := frame.AppendUint(ob[:0], uint64(ack.Applied))
	cn.WriteFrame(frame.TReplOK, f.Stream, frame.AppendUint(out, ack.Seq))
	return nil
}
