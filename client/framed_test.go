package client

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyrec"
	"hyrec/internal/server"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// countingHandler wraps a server handler and counts requests to the
// hot-path endpoints the framed transport is supposed to absorb.
type countingHandler struct {
	http.Handler
	rate, job, result, ack, replicate atomic.Int64
}

func countHotPaths(h http.Handler) *countingHandler {
	ch := &countingHandler{}
	ch.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/rate":
			ch.rate.Add(1)
		case "/v1/job":
			ch.job.Add(1)
		case "/v1/result":
			ch.result.Add(1)
		case "/v1/ack":
			ch.ack.Add(1)
		case "/v1/replicate":
			ch.replicate.Add(1)
		}
		h.ServeHTTP(w, r)
	})
	return ch
}

// newFramedServer boots an engine-backed server with both an HTTP
// listener (request-counted) and a framed listener.
func newFramedServer(t *testing.T, mut func(*hyrec.Config)) (*hyrec.Engine, *countingHandler, *httptest.Server, string) {
	t.Helper()
	cfg := hyrec.DefaultConfig()
	cfg.K = 3
	cfg.R = 3
	if mut != nil {
		mut(&cfg)
	}
	eng := hyrec.NewEngine(cfg)
	srv := hyrec.NewServiceServer(eng, 0)
	ch := countHotPaths(srv.Handler())
	ts := httptest.NewServer(ch)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeFrames(ln)
	t.Cleanup(func() { ts.Close(); srv.Close(); eng.Close() })
	return eng, ch, ts, ln.Addr().String()
}

// relay is a severable TCP proxy in front of the framed listener, so
// tests can drop a framed connection mid-stream without touching the
// server.
type relay struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	conns  []net.Conn
}

func newRelay(t *testing.T, target string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln, target: target}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			r.mu.Lock()
			r.conns = append(r.conns, c, up)
			r.mu.Unlock()
			go func() { io.Copy(up, c); up.Close() }()
			go func() { io.Copy(c, up); c.Close() }()
		}
	}()
	t.Cleanup(r.kill)
	return r
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) kill() {
	r.ln.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
}

// TestFramedClientFullLoop runs the complete widget protocol through a
// framed client and proves the hot endpoints never touched HTTP.
func TestFramedClientFullLoop(t *testing.T) {
	_, ch, ts, frameAddr := newFramedServer(t, nil)
	c := New(ts.URL, WithFramed(frameAddr))
	defer c.Close()

	var ratings []hyrec.Rating
	for u := hyrec.UserID(1); u <= 10; u++ {
		ratings = append(ratings,
			hyrec.Rating{User: u, Item: hyrec.ItemID(u % 3), Liked: true},
			hyrec.Rating{User: u, Item: 100, Liked: true})
	}
	if err := c.RateBatch(tctx, ratings); err != nil {
		t.Fatal(err)
	}

	w := widget.New()
	gotRecs := false
	for round := 0; round < 3; round++ {
		for u := hyrec.UserID(1); u <= 10; u++ {
			job, err := c.Job(tctx, u)
			if err != nil {
				t.Fatalf("job(%d): %v", u, err)
			}
			res, _ := w.Execute(job)
			recs, err := c.ApplyResult(tctx, res)
			if err != nil {
				t.Fatalf("apply(%d): %v", u, err)
			}
			if len(recs) > 0 {
				gotRecs = true
			}
		}
	}
	if !gotRecs {
		t.Fatal("no recommendations after three framed client rounds")
	}
	if n := ch.rate.Load() + ch.job.Load() + ch.result.Load(); n != 0 {
		t.Fatalf("%d hot-path HTTP requests leaked past the framed lane (rate=%d job=%d result=%d)",
			n, ch.rate.Load(), ch.job.Load(), ch.result.Load())
	}
}

// TestFramedJSONConvergence is the interop criterion: the same workload
// through a framed client and a plain JSON client, against two
// identically-seeded engines, converges to identical neighborhoods and
// recommendations.
func TestFramedJSONConvergence(t *testing.T) {
	runWorkload := func(t *testing.T, framed bool) ([][]hyrec.UserID, [][]hyrec.ItemID) {
		t.Helper()
		_, _, ts, frameAddr := newFramedServer(t, nil)
		opts := []Option{}
		if framed {
			opts = append(opts, WithFramed(frameAddr))
		}
		c := New(ts.URL, opts...)
		defer c.Close()

		var ratings []hyrec.Rating
		for u := hyrec.UserID(1); u <= 8; u++ {
			for j := 0; j < 3; j++ {
				ratings = append(ratings, hyrec.Rating{User: u, Item: hyrec.ItemID((int(u) + j) % 7), Liked: true})
			}
		}
		if err := c.RateBatch(tctx, ratings); err != nil {
			t.Fatal(err)
		}
		w := widget.New()
		for round := 0; round < 3; round++ {
			for u := hyrec.UserID(1); u <= 8; u++ {
				job, err := c.Job(tctx, u)
				if err != nil {
					t.Fatal(err)
				}
				res, _ := w.Execute(job)
				if _, err := c.ApplyResult(tctx, res); err != nil {
					t.Fatal(err)
				}
			}
		}
		var hoods [][]hyrec.UserID
		var recs [][]hyrec.ItemID
		for u := hyrec.UserID(1); u <= 8; u++ {
			hood, err := c.Neighbors(tctx, u)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := c.Recommendations(tctx, u, 5)
			if err != nil {
				t.Fatal(err)
			}
			hoods = append(hoods, hood)
			recs = append(recs, rs)
		}
		return hoods, recs
	}

	framedHoods, framedRecs := runWorkload(t, true)
	jsonHoods, jsonRecs := runWorkload(t, false)
	for i := range framedHoods {
		if len(framedHoods[i]) != len(jsonHoods[i]) {
			t.Fatalf("user %d neighborhood diverges: framed %v vs json %v", i+1, framedHoods[i], jsonHoods[i])
		}
		for j := range framedHoods[i] {
			if framedHoods[i][j] != jsonHoods[i][j] {
				t.Fatalf("user %d neighborhood diverges: framed %v vs json %v", i+1, framedHoods[i], jsonHoods[i])
			}
		}
		if len(framedRecs[i]) != len(jsonRecs[i]) {
			t.Fatalf("user %d recs diverge: framed %v vs json %v", i+1, framedRecs[i], jsonRecs[i])
		}
		for j := range framedRecs[i] {
			if framedRecs[i][j] != jsonRecs[i][j] {
				t.Fatalf("user %d recs diverge: framed %v vs json %v", i+1, framedRecs[i], jsonRecs[i])
			}
		}
	}
}

// fixedSampler makes job assembly deterministic across calls: the
// default sampler draws random candidates per call, which is correct
// for the protocol but would make byte-comparing two fetches vacuous.
type fixedSampler struct{ users []hyrec.UserID }

func (s fixedSampler) Sample(u hyrec.UserID, _ int) []hyrec.UserID {
	var out []hyrec.UserID
	for _, c := range s.users {
		if c != u {
			out = append(out, c)
		}
	}
	return out
}

// TestFramedJobRawByteEquivalence pins the transport-equivalence
// criterion from the client's side: JobRaw over the framed lane is
// byte-for-byte JobRaw over HTTP.
func TestFramedJobRawByteEquivalence(t *testing.T) {
	eng, _, ts, frameAddr := newFramedServer(t, nil)
	eng.SetSampler(fixedSampler{users: []hyrec.UserID{1, 2, 3, 4}})
	for u := hyrec.UserID(1); u <= 4; u++ {
		if err := eng.Rate(tctx, u, hyrec.ItemID(u%3), true); err != nil {
			t.Fatal(err)
		}
		if err := eng.Rate(tctx, u, 9, true); err != nil {
			t.Fatal(err)
		}
	}
	framed := New(ts.URL, WithFramed(frameAddr))
	defer framed.Close()
	plain := New(ts.URL)
	defer plain.Close()

	for u := hyrec.UserID(1); u <= 4; u++ {
		fb, err := framed.JobRaw(tctx, u)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := plain.JobRaw(tctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if string(fb) != string(jb) {
			t.Fatalf("user %d job bytes diverge:\nframed: %s\njson:   %s", u, fb, jb)
		}
	}
}

// TestFramedWorkerDrainsQueue runs the stock Worker over a framed
// client: the lease/compute/result loop rides TJobPull/TResult with no
// HTTP requests on the worker endpoints.
func TestFramedWorkerDrainsQueue(t *testing.T) {
	eng, ch, ts, frameAddr := newFramedServer(t, func(cfg *hyrec.Config) {
		cfg.LeaseTTL = time.Minute
	})
	var ratings []hyrec.Rating
	for u := hyrec.UserID(1); u <= 8; u++ {
		for j := 0; j < 3; j++ {
			ratings = append(ratings, hyrec.Rating{User: u, Item: hyrec.ItemID((int(u) + j) % 7), Liked: true})
		}
	}
	if err := eng.RateBatch(tctx, ratings); err != nil {
		t.Fatal(err)
	}

	c := New(ts.URL, WithFramed(frameAddr))
	defer c.Close()
	w := NewWorker(c, WithPollBudget(100*time.Millisecond))
	for i := 0; i < 50; i++ {
		worked, err := w.RunOnce(tctx)
		if err != nil {
			t.Fatal(err)
		}
		if !worked {
			break
		}
	}
	if done, abandoned := w.Stats(); done != 8 || abandoned != 0 {
		t.Fatalf("framed worker stats done=%d abandoned=%d, want 8/0", done, abandoned)
	}
	if !eng.Scheduler().Quiet() {
		t.Fatalf("scheduler not quiet: %+v", eng.Scheduler().Stats())
	}
	if n := ch.job.Load() + ch.result.Load() + ch.ack.Load(); n != 0 {
		t.Fatalf("%d worker HTTP requests leaked past the framed lane", n)
	}
}

// TestFramedDropFallsBackToJSON severs the framed connection
// mid-session and proves the client carries on over JSON — including
// the leased job the drop stranded, which the scheduler re-issues
// after its TTL and a JSON worker completes.
func TestFramedDropFallsBackToJSON(t *testing.T) {
	eng, ch, ts, frameAddr := newFramedServer(t, func(cfg *hyrec.Config) {
		cfg.LeaseTTL = 100 * time.Millisecond
		cfg.LeaseRetries = 2
	})
	rl := newRelay(t, frameAddr)
	c := New(ts.URL, WithFramed(rl.addr()))
	defer c.Close()

	var ratings []hyrec.Rating
	for u := hyrec.UserID(1); u <= 3; u++ {
		for j := 0; j < 3; j++ {
			ratings = append(ratings, hyrec.Rating{User: u, Item: hyrec.ItemID((int(u) + j) % 7), Liked: true})
		}
	}
	if err := c.RateBatch(tctx, ratings); err != nil {
		t.Fatal(err)
	}
	if got := ch.rate.Load(); got != 0 {
		t.Fatalf("rate batch used HTTP (%d requests) while the framed lane was up", got)
	}

	// Lease a job over the framed lane, then sever the transport with
	// the lease outstanding.
	job, err := c.NextJob(tctx)
	if err != nil || job == nil {
		t.Fatalf("framed NextJob = %v, %v", job, err)
	}
	strandedLease := job.Lease
	rl.kill()

	// The client keeps working: subsequent operations fall back to JSON.
	if err := c.RateBatch(tctx, []hyrec.Rating{{User: 9, Item: 1, Liked: true}}); err != nil {
		t.Fatalf("rate batch after framed drop: %v", err)
	}
	if got := ch.rate.Load(); got == 0 {
		t.Fatal("rate batch after framed drop never reached the JSON path")
	}

	// The stranded lease expires and the scheduler re-issues the job; a
	// JSON-side worker drains everything.
	w := NewWorker(c, WithPollBudget(150*time.Millisecond))
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := w.RunOnce(tctx); err != nil {
			t.Fatal(err)
		}
		if eng.Scheduler().Quiet() && len(eng.Scheduler().Unrefreshed()) == 0 {
			break
		}
	}
	if !eng.Scheduler().Quiet() {
		t.Fatalf("scheduler never drained after framed drop: %+v", eng.Scheduler().Stats())
	}
	if st := eng.Scheduler().Stats(); st.Expired == 0 && st.Reissued == 0 {
		t.Fatalf("stranded lease %d neither expired nor re-issued: %+v", strandedLease, st)
	}
	if got := ch.job.Load() + ch.result.Load(); got == 0 {
		t.Fatal("post-drop worker loop never reached the JSON path")
	}
}

// replRecorder implements the server's NodePlane on top of an engine,
// recording what the framed replication lane delivers; the other node
// plane methods are inert.
type replRecorder struct {
	*hyrec.Engine
	mu      sync.Mutex
	batches []*wire.ReplBatch
}

func (r *replRecorder) Replicate(_ context.Context, b *wire.ReplBatch) (*wire.ReplAck, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batches = append(r.batches, b)
	return &wire.ReplAck{Applied: len(b.Users), Seq: b.Seq}, nil
}

func (r *replRecorder) ApplyNodeMap(context.Context, *wire.NodeMap) error { return nil }

func (r *replRecorder) LocateUser(hyrec.UserID) (wire.NodeRef, bool) { return wire.NodeRef{}, false }

func (r *replRecorder) NodeEpoch() uint64 { return 0 }

// TestFramedReplicateSecret drives Replicate over the framed lane with
// the node-plane secret — functionally pinning that the client's
// handshake secret is the same X-Hyrec-Node-Secret header the HTTP
// plane enforces — and proves a wrong secret is refused with the same
// typed forbidden error.
func TestFramedReplicateSecret(t *testing.T) {
	cfg := hyrec.DefaultConfig()
	cfg.K = 3
	eng := hyrec.NewEngine(cfg)
	rec := &replRecorder{Engine: eng}
	srv := hyrec.NewServiceServer(rec, 0)
	srv.RequireNodeSecret("peer-s3cret")
	ch := countHotPaths(srv.Handler())
	ts := httptest.NewServer(ch)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeFrames(ln)
	t.Cleanup(func() { ts.Close(); srv.Close(); eng.Close() })

	batch := &wire.ReplBatch{Epoch: 1, Partition: 2, Seq: 7, Users: []wire.ReplUser{{UID: 4, Liked: []uint32{1, 2}}}}

	// The node's client carries the secret as a header (what the HTTP
	// plane checks); the framed handshake must present the same secret.
	good := New(ts.URL, WithFramed(ln.Addr().String()),
		WithHeader(server.NodeSecretHeader, "peer-s3cret"))
	defer good.Close()
	ack, err := good.Replicate(tctx, batch)
	if err != nil {
		t.Fatalf("framed replicate with secret: %v", err)
	}
	if ack.Applied != 1 || ack.Seq != 7 {
		t.Fatalf("framed replicate ack = %+v", ack)
	}
	rec.mu.Lock()
	delivered := len(rec.batches)
	var via *wire.ReplBatch
	if delivered > 0 {
		via = rec.batches[0]
	}
	rec.mu.Unlock()
	if delivered != 1 || via.Seq != 7 || len(via.Users) != 1 || via.Users[0].UID != 4 {
		t.Fatalf("replicator saw %d batches, first %+v", delivered, via)
	}
	if got := ch.replicate.Load(); got != 0 {
		t.Fatalf("replicate used HTTP (%d requests) despite the framed lane", got)
	}

	// A wrong secret surfaces the same typed forbidden error the HTTP
	// plane answers — not a silent JSON fallback that would bypass the
	// framed gate's decision.
	bad := New(ts.URL, WithFramed(ln.Addr().String()),
		WithHeader(server.NodeSecretHeader, "wrong"))
	defer bad.Close()
	_, err = bad.Replicate(tctx, batch)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != wire.CodeForbidden {
		t.Fatalf("framed replicate with wrong secret = %v, want forbidden APIError", err)
	}
}

// TestFramedAbsentListenerFallsBack points WithFramed at a dead port:
// every operation must transparently use JSON, and the failed dial must
// not be re-paid per request inside the backoff window.
func TestFramedAbsentListenerFallsBack(t *testing.T) {
	_, ch, ts, _ := newFramedServer(t, nil)
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	c := New(ts.URL, WithFramed(deadAddr))
	defer c.Close()
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := c.RateBatch(tctx, []hyrec.Rating{{User: 1, Item: 1, Liked: true}}); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("5 fallback rate batches took %v — dial attempts not gated by the backoff", elapsed)
	}
	if got := ch.rate.Load(); got != 5 {
		t.Fatalf("JSON path saw %d rate batches, want 5", got)
	}
}
