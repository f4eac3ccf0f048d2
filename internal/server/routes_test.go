package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hyrec/internal/admit"
	"hyrec/internal/core"
	"hyrec/internal/frame"
	"hyrec/internal/wire"
	"hyrec/internal/ws"
)

// routeCase is one HTTP request of the route conformance table.
type routeCase struct {
	method, path, body string
}

func (rc routeCase) String() string { return rc.method + " " + rc.path }

// do sends rc to base and returns the status, headers and body.
func (rc routeCase) do(t *testing.T, base string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(rc.method, base+rc.path, strings.NewReader(rc.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatalf("%s: %v", rc, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// conformanceServer serves an engine with every admission class bounded
// to one slot over HTTP and the framed listener.
func conformanceServer(t *testing.T, secret string) (*HTTPServer, string, string) {
	t.Helper()
	cfg := testConfig()
	cfg.MaxInflightRating = 1
	cfg.MaxInflightWorker = 1
	cfg.MaxInflightRead = 1
	e := NewEngine(cfg)
	s := NewServer(e, 0)
	if secret != "" {
		s.RequireNodeSecret(secret)
	}
	ts := httptest.NewServer(s.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeFrames(ln)
	t.Cleanup(func() {
		s.Close()
		ts.Close()
		e.Close()
	})
	return s, ts.URL, ln.Addr().String()
}

// holdClass takes class c's only admission slot until the test ends.
func holdClass(t *testing.T, s *HTTPServer, c admit.Class) {
	t.Helper()
	release, ok := s.Gate().Acquire(context.Background(), c)
	if !ok {
		t.Fatalf("could not take the %s slot", c)
	}
	t.Cleanup(release)
}

// TestRouteConformance pins what every HTTP route and framed request
// type answers at the transport level: wrong methods, sheds under a full
// admission class, and the routes the gate never sheds.
func TestRouteConformance(t *testing.T) {
	const result = `{"uid":1,"epoch":0,"neighbors":[],"recs":[]}`
	gated := map[admit.Class][]routeCase{
		admit.Rating: {
			{"POST", "/v1/rate", rateBody},
			{"POST", "/rate?uid=1&item=2", ""},
		},
		admit.Worker: {
			{"GET", "/v1/job?worker=1", ""},
			{"POST", "/v1/ack", `{"lease":5,"done":true}`},
			{"POST", "/v1/result", result},
			{"POST", "/neighbors", result},
			{"GET", "/neighbors?uid=1&epoch=0", ""},
		},
		admit.Read: {
			{"GET", "/v1/job?uid=1", ""},
			{"GET", "/v1/recs?uid=1", ""},
			{"GET", "/v1/neighbors?uid=1", ""},
			{"GET", "/online?uid=1", ""},
			{"GET", "/recommendations?uid=1", ""},
		},
	}
	ratings := frame.AppendRateBatch(nil, []core.Rating{{User: 1, Item: 2, Liked: true}})
	frameGated := []struct {
		class   admit.Class
		typ     frame.Type
		payload []byte
	}{
		{admit.Rating, frame.TRateBatch, ratings},
		{admit.Worker, frame.TJobPull, frame.AppendUint(nil, 0)},
		{admit.Read, frame.TJobGet, frame.AppendUID(nil, 1)},
		{admit.Worker, frame.TResult, []byte(result)},
		{admit.Worker, frame.TAckBatch, frame.AppendAckBatch(nil, []frame.Ack{{Lease: 5, Done: true}})},
	}

	t.Run("wrong method", func(t *testing.T) {
		_, base, _ := conformanceServer(t, "")
		for _, tc := range []struct {
			rc   routeCase
			want string
		}{
			{routeCase{"GET", "/v1/rate", ""}, "POST required"},
			{routeCase{"POST", "/v1/job", ""}, "GET required"},
			{routeCase{"POST", "/v1/job?worker=1", ""}, "GET required"},
			{routeCase{"GET", "/v1/ack", ""}, "POST required"},
			{routeCase{"GET", "/v1/result", ""}, "POST required"},
			{routeCase{"POST", "/v1/recs?uid=1", ""}, "GET required"},
			{routeCase{"POST", "/v1/neighbors?uid=1", ""}, "GET required"},
			{routeCase{"DELETE", "/v1/topology", ""}, "GET or POST required"},
			{routeCase{"GET", "/v1/replicate", ""}, "POST required"},
			{routeCase{"GET", "/v1/nodes", ""}, "POST required"},
		} {
			status, _, body := tc.rc.do(t, base)
			want := `{"error":{"code":"method_not_allowed","message":"` + tc.want + `"}}` + "\n"
			if status != http.StatusMethodNotAllowed || body != want {
				t.Errorf("%s = %d %q, want 405 %q", tc.rc, status, body, want)
			}
		}
		// The worker socket's handshake answers a wrong method itself.
		status, _, body := routeCase{"POST", wire.WSWorkerPath, ""}.do(t, base)
		if status != http.StatusMethodNotAllowed || body != "websocket handshake requires GET\n" {
			t.Errorf("POST %s = %d %q, want the handshake's 405", wire.WSWorkerPath, status, body)
		}
	})

	for _, c := range []admit.Class{admit.Rating, admit.Worker, admit.Read} {
		t.Run("shed "+c.String(), func(t *testing.T) {
			s, base, addr := conformanceServer(t, "")
			holdClass(t, s, c)
			want := `{"error":{"code":"overloaded","message":"` + c.String() +
				` queue full","retry_after_ms":1000}}` + "\n"
			for _, rc := range gated[c] {
				status, h, body := rc.do(t, base)
				if status != http.StatusTooManyRequests || h.Get("Retry-After") != "1" || body != want {
					t.Errorf("%s = %d Retry-After %q %q, want 429 Retry-After 1 %q",
						rc, status, h.Get("Retry-After"), body, want)
				}
			}
			cn := dialFrame(t, addr, "")
			for i, fg := range frameGated {
				if fg.class != c {
					continue
				}
				f := frameCall(t, cn, fg.typ, uint64(i+1), fg.payload)
				if f.Type != frame.TError {
					t.Errorf("frame %#x answered %#x, want TError", byte(fg.typ), byte(f.Type))
					continue
				}
				code, msg, primary, retryMS, err := frame.DecodeError(f.Payload)
				if err != nil || code != wire.CodeOverloaded || msg != c.String()+" queue full" ||
					primary != "" || retryMS != 1000 {
					t.Errorf("frame %#x TError = %q %q %q %d %v, want overloaded %q with a 1000ms hint",
						byte(fg.typ), code, msg, primary, retryMS, err, c.String()+" queue full")
				}
			}
		})
	}

	t.Run("never shed", func(t *testing.T) {
		s, base, addr := conformanceServer(t, "")
		for _, c := range []admit.Class{admit.Rating, admit.Worker, admit.Read} {
			holdClass(t, s, c)
		}
		for _, tc := range []struct {
			rc     routeCase
			status int
		}{
			{routeCase{"POST", "/v1/replicate", `{"epoch":1,"partition":0,"seq":1}`}, http.StatusBadRequest},
			{routeCase{"POST", "/v1/nodes", `{}`}, http.StatusBadRequest},
			{routeCase{"GET", "/v1/topology", ""}, http.StatusOK},
			{routeCase{"GET", "/stats", ""}, http.StatusOK},
			{routeCase{"GET", "/metrics", ""}, http.StatusOK},
			{routeCase{"GET", "/healthz", ""}, http.StatusOK},
		} {
			if status, _, body := tc.rc.do(t, base); status != tc.status {
				t.Errorf("%s = %d %q, want %d", tc.rc, status, body, tc.status)
			}
		}

		cn := dialFrame(t, addr, "")
		f := frameCall(t, cn, frame.TReplBatch, 1, frame.AppendReplBatch(nil, &wire.ReplBatch{Epoch: 1, Seq: 1}))
		if code, msg, _, _, _ := frame.DecodeError(f.Payload); f.Type != frame.TError ||
			code != wire.CodeBadRequest || msg != "service does not accept replication" {
			t.Errorf("TReplBatch answered %#x %q %q, want the engine's bad_request", byte(f.Type), code, msg)
		}

		// WS messages bypass the gate: results and acks reach the service,
		// which answers their own errors.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		conn, err := ws.Dial(ctx, strings.Replace(base, "http", "ws", 1)+wire.WSWorkerPath, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, tc := range []struct{ msg, code string }{
			{`{"ack":{"lease":5,"done":true}}`, wire.CodeUnknownLease},
			{`{"result":{"uid":1,"epoch":99}}`, wire.CodeStaleEpoch},
		} {
			if err := conn.WriteMessage(ws.OpText, []byte(tc.msg)); err != nil {
				t.Fatal(err)
			}
			_, raw, err := conn.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			var env wire.ErrorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != tc.code {
				t.Errorf("WS %s answered %s, want code %q", tc.msg, raw, tc.code)
			}
		}
	})

	t.Run("node secret", func(t *testing.T) {
		_, base, addr := conformanceServer(t, "s3cret")
		want := `{"error":{"code":"forbidden","message":"node-plane secret missing or wrong"}}` + "\n"
		for _, rc := range []routeCase{
			{"POST", "/v1/replicate", `{}`},
			{"POST", "/v1/nodes", `{}`},
		} {
			if status, _, body := rc.do(t, base); status != http.StatusForbidden || body != want {
				t.Errorf("%s = %d %q, want 403 %q", rc, status, body, want)
			}
		}
		cn := dialFrame(t, addr, "wrong")
		f := frameCall(t, cn, frame.TReplBatch, 1, frame.AppendReplBatch(nil, &wire.ReplBatch{Epoch: 1, Seq: 1}))
		if code, msg, _, _, _ := frame.DecodeError(f.Payload); f.Type != frame.TError ||
			code != wire.CodeForbidden || msg != "node-plane secret missing or wrong" {
			t.Errorf("unauthorized TReplBatch answered %#x %q %q, want forbidden", byte(f.Type), code, msg)
		}
	})
}
