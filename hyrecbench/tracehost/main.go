// Command tracehost is the benchmark's traced stand-in for
// cmd/hyrec-server. It assembles the same single-engine server from the
// same public constructors, but wraps the engine and the HTTP handler
// so every request carrying span.Header records a handler span and an
// engine span. On SIGTERM it shuts down and prints its spans as one
// JSON line prefixed "SPANS " on standard output.
//
//	tracehost -addr 127.0.0.1:8080 [-lease-ttl 500ms -fallback-workers 1]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hyrec"
	"hyrec/hyrecbench/span"
	"hyrec/internal/core"
	"hyrec/internal/wire"
)

// tracedEngine embeds the engine, so every optional capability the HTTP
// layer probes for still resolves to the engine's own methods; only the
// timed calls are overridden.
type tracedEngine struct {
	*hyrec.Engine
	log *span.Log
}

func (t *tracedEngine) AppendJobPayload(ctx context.Context, u core.UserID, jsonDst, gzDst []byte) ([]byte, []byte, error) {
	start := time.Now()
	js, gz, err := t.Engine.AppendJobPayload(ctx, u, jsonDst, gzDst)
	if op := span.Op(ctx); op != 0 {
		t.log.Add(span.Span{Op: op, Name: "engine.job", Start: start.UnixNano(), End: time.Now().UnixNano(),
			A: len(js) - len(jsonDst), B: len(gz) - len(gzDst)})
	}
	return js, gz, err
}

func (t *tracedEngine) ApplyResult(ctx context.Context, res *wire.Result) ([]core.ItemID, error) {
	start := time.Now()
	recs, err := t.Engine.ApplyResult(ctx, res)
	t.log.Time(span.Op(ctx), "engine.result", start, 0)
	return recs, err
}

func (t *tracedEngine) RateBatch(ctx context.Context, ratings []core.Rating) error {
	start := time.Now()
	err := t.Engine.RateBatch(ctx, ratings)
	t.log.Time(span.Op(ctx), "engine.rate", start, len(ratings))
	return err
}

func (t *tracedEngine) Recommendations(ctx context.Context, u core.UserID, n int) ([]core.ItemID, error) {
	start := time.Now()
	recs, err := t.Engine.Recommendations(ctx, u, n)
	t.log.Time(span.Op(ctx), "engine.read", start, 0)
	return recs, err
}

func (t *tracedEngine) Neighbors(ctx context.Context, u core.UserID) ([]core.UserID, error) {
	start := time.Now()
	hood, err := t.Engine.Neighbors(ctx, u)
	t.log.Time(span.Op(ctx), "engine.read", start, 0)
	return hood, err
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracehost", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		leaseTTL = fs.Duration("lease-ttl", 0, "job lease duration; > 0 enables the async scheduler")
		fallback = fs.Int("fallback-workers", 0, "server-side fallback worker pool size")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The remaining settings are cmd/hyrec-server's defaults.
	cfg := hyrec.DefaultConfig()
	cfg.LeaseTTL = *leaseTTL
	cfg.FallbackWorkers = *fallback

	spans := &span.Log{}
	eng := &tracedEngine{Engine: hyrec.NewEngine(cfg), log: spans}
	srv := hyrec.NewServiceServer(eng, time.Hour)
	srv.Start()
	defer eng.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           span.Handler(srv.Handler(), spans, "http."),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case <-ctx.Done():
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			srv.Close()
			return err
		}
	}
	srv.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	out, err := json.Marshal(spans.Spans())
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	_, err = fmt.Printf("SPANS %s\n", out)
	return err
}
