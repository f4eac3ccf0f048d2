package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hyrec/internal/frame"
	"hyrec/internal/wire"
	"hyrec/internal/ws"
)

// evictWakeSource wraps an Engine and reproduces the dispatch race of a
// scale-in: the first NextJob call answers nil immediately — the
// scheduler woken mid-Evict sees an empty queue for an instant — and
// later calls block until "work arrives" (the evicted users re-marked
// stale on their new partition), then serve a leased job.
type evictWakeSource struct {
	*Engine
	workReady chan struct{}
	job       *wire.Job

	mu    sync.Mutex
	calls int
}

func (s *evictWakeSource) NextJob(ctx context.Context) (*wire.Job, error) {
	s.mu.Lock()
	s.calls++
	first := s.calls == 1
	s.mu.Unlock()
	if first {
		return nil, nil
	}
	select {
	case <-ctx.Done():
		return nil, nil
	case <-s.workReady:
		return s.job, nil
	}
}

// TestV1WorkerLongPollSurvivesEvictRace is the regression test for the
// scale-in early-idle answer, on every plane that pulls jobs: a pull
// whose first NextJob answers nil (the mid-Evict wake) must keep polling
// for the remaining wait window and pick up work that arrives mid-window
// instead of parking until the deadline and answering idle (an HTTP
// 204, an empty framed TJob, a WebSocket session that pushes nothing).
func TestV1WorkerLongPollSurvivesEvictRace(t *testing.T) {
	planes := []struct {
		name string
		// pull fetches one job body over the plane with a 2s window,
		// returning nil when the plane answered idle.
		pull func(t *testing.T, srv *HTTPServer) []byte
	}{
		{"http", func(t *testing.T, srv *HTTPServer) []byte {
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			resp, err := http.Get(ts.URL + "/v1/job?worker=1&wait=2s")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusNoContent {
				return nil
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("long-poll status %d, want 200", resp.StatusCode)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return body
		}},
		{"framed", func(t *testing.T, srv *HTTPServer) []byte {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.ServeFrames(ln)
			cn := dialFrame(t, ln.Addr().String(), "")
			f := frameCall(t, cn, frame.TJobPull, 3, frame.AppendUint(nil, 2000))
			if f.Type != frame.TJob {
				t.Fatalf("pull answered %#x, want TJob", byte(f.Type))
			}
			if len(f.Payload) == 0 {
				return nil
			}
			return f.Payload
		}},
		{"ws", func(t *testing.T, srv *HTTPServer) []byte {
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			conn, err := ws.Dial(ctx, ts.URL+wire.WSWorkerPath, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.WriteMessage(ws.OpText, []byte(`{"want":1}`)); err != nil {
				t.Fatal(err)
			}
			// A push loop that took the early nil as the end of the
			// session closes the socket instead of pushing.
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			op, msg, err := conn.ReadMessage()
			if err != nil || op != ws.OpText {
				return nil
			}
			return msg
		}},
	}
	for _, p := range planes {
		t.Run(p.name, func(t *testing.T) {
			e := NewEngine(testConfig())
			defer e.Close()
			src := &evictWakeSource{
				Engine:    e,
				workReady: make(chan struct{}),
				job:       &wire.Job{UID: 42, Epoch: 1, K: 4, R: 4, Lease: 7, Attempt: 1},
			}
			srv := NewServer(src, 0)
			defer srv.Close()

			// Work becomes available well inside the 2s window.
			go func() {
				time.Sleep(100 * time.Millisecond)
				close(src.workReady)
			}()

			start := time.Now()
			body := p.pull(t, srv)
			elapsed := time.Since(start)
			if body == nil {
				t.Fatalf("pull answered idle after %v despite work arriving at ~100ms", elapsed)
			}
			if elapsed > time.Second {
				t.Fatalf("pull took %v to serve work that arrived at ~100ms", elapsed)
			}
			job, err := wire.DecodeJob(body)
			if err != nil {
				t.Fatal(err)
			}
			if job.UID != 42 || job.Lease != 7 {
				t.Fatalf("served wrong job: %+v", job)
			}
		})
	}
}
