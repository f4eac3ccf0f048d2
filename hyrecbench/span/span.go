// Package span records the timed intervals the benchmark's traced run
// joins per operation. The generator and the traced server host both
// keep spans in memory and hand them over when the run ends; one
// operation's spans share an ID carried in the Header request header.
package span

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Header carries the operation ID from the generator to the server.
const Header = "X-Hyrec-Bench-Op"

// Span is one timed interval of one operation. N, A and B are counts the
// layer knows at that point: ratings in a batch, candidates in a job,
// JSON and gzip payload bytes.
type Span struct {
	Op    uint64 `json:"op"`
	Name  string `json:"name"`
	Start int64  `json:"start"` // Unix nanoseconds
	End   int64  `json:"end"`
	N     int    `json:"n,omitempty"`
	A     int    `json:"a,omitempty"`
	B     int    `json:"b,omitempty"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Log is an in-memory span list, safe for concurrent use. A nil *Log
// records nothing, so untraced code paths pay one nil check.
type Log struct {
	mu    sync.Mutex
	spans []Span
}

// Add records s.
func (l *Log) Add(s Span) {
	if l == nil || s.Op == 0 {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// Time records the interval from start to now under name.
func (l *Log) Time(op uint64, name string, start time.Time, n int) {
	if l == nil || op == 0 {
		return
	}
	l.Add(Span{Op: op, Name: name, Start: start.UnixNano(), End: time.Now().UnixNano(), N: n})
}

// Spans returns a copy of everything recorded.
func (l *Log) Spans() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans...)
}

type opKey struct{}

// WithOp tags ctx with an operation ID.
func WithOp(ctx context.Context, op uint64) context.Context {
	if op == 0 {
		return ctx
	}
	return context.WithValue(ctx, opKey{}, op)
}

// Op returns ctx's operation ID, 0 when untagged.
func Op(ctx context.Context) uint64 {
	op, _ := ctx.Value(opKey{}).(uint64)
	return op
}

// Transport stamps each request whose context carries an operation ID
// with the Header, so the server's spans join the generator's.
type Transport struct{ Base http.RoundTripper }

// RoundTrip implements http.RoundTripper.
func (t Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if op := Op(req.Context()); op != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(Header, strconv.FormatUint(op, 10))
	}
	return t.Base.RoundTrip(req)
}

// Handler records one span per request that carries the Header, named
// prefix + the request path's last element, and passes the operation ID
// on in the request context.
func Handler(next http.Handler, log *Log, prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.ParseUint(r.Header.Get(Header), 10, 64)
		if err != nil || op == 0 {
			next.ServeHTTP(w, r)
			return
		}
		name := r.URL.Path
		for i := len(name) - 1; i >= 0; i-- {
			if name[i] == '/' {
				name = name[i+1:]
				break
			}
		}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(WithOp(r.Context(), op)))
		log.Time(op, prefix+name, start, 0)
	})
}
