package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hyrec"
	"hyrec/hyrecbench/span"
	"hyrec/internal/core"
	"hyrec/internal/dataset"
)

// inProc serves a Service from this process, so the workloads run in a
// test without building the server binary.
type inProc struct {
	srv *httptest.Server
	hs  *hyrec.HTTPServer
	svc hyrec.Service
}

func (t *inProc) URL() string           { return t.srv.URL }
func (t *inProc) Usage() (usage, error) { return readUsage("self") }
func (t *inProc) Stop() error {
	t.srv.CloseClientConnections()
	t.srv.Close()
	t.hs.Close()
	return t.svc.Close()
}

// inProcStarter builds each server the way cmd/hyrec-server does, with
// wrap substituting a Service around the engine.
func inProcStarter(wrap func(*hyrec.Engine) hyrec.Service) starter {
	return func(w *workload, traced bool) (target, error) {
		cfg := hyrec.DefaultConfig()
		cfg.LeaseTTL = w.leaseTTL
		cfg.FallbackWorkers = w.fallback
		eng := hyrec.NewEngine(cfg)
		var svc hyrec.Service = eng
		if wrap != nil {
			svc = wrap(eng)
		}
		hs := hyrec.NewServiceServer(svc, time.Hour)
		hs.Start()
		return &inProc{srv: httptest.NewServer(hs.Handler()), hs: hs, svc: svc}, nil
	}
}

// tiny shrinks a workload to a test-sized population and rate.
func tiny(name string) *workload {
	w := workloads(2)[name]
	switch name {
	case "visit":
		w.data = dataset.Scaled(dataset.ML1Config(), 0.1)
		w.mix.rate = 40
		w.warmVisits = 20
	case "ingest":
		w.data = dataset.Scaled(dataset.DiggConfig(), 0.01)
		w.mix.rate = 100
		w.warmVisits = 20
		w.checkUsers = 20
	case "push-workers":
		w.data = dataset.Scaled(dataset.DiggConfig(), 0.01)
		w.mix.rate = 30
	}
	w.limit = time.Second // a loaded test machine must not fail the capacity rule
	w.floor = 0.01
	return w
}

func runTiny(t *testing.T, w *workload, wrap func(*hyrec.Engine) hyrec.Service) *report {
	t.Helper()
	rep, err := bench(context.Background(), w, 2, 2, false, inProcStarter(wrap))
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return rep
}

func TestWorkloadsTiny(t *testing.T) {
	for _, name := range []string{"visit", "ingest", "push-workers"} {
		t.Run(name, func(t *testing.T) {
			rep := runTiny(t, tiny(name), nil)
			if len(rep.problems) > 0 {
				t.Fatalf("checks failed on a correct server: %v", rep.problems)
			}
			if rep.failed > 0 || rep.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			for _, d := range endToEnd {
				v, ok := rep.metrics[d.name]
				if !ok || v <= 0 {
					t.Errorf("%s = %v (measured %v), want > 0", d.name, v, ok)
				}
			}
		})
	}
}

// dropEveryOther acknowledges every rating but stores only every other.
type dropEveryOther struct {
	*hyrec.Engine
	n atomic.Int64
}

func (d *dropEveryOther) RateBatch(ctx context.Context, rs []core.Rating) error {
	keep := rs[:0:0]
	for _, r := range rs {
		if d.n.Add(1)%2 == 0 {
			keep = append(keep, r)
		}
	}
	return d.Engine.RateBatch(ctx, keep)
}

// noNeighbours serves empty neighbourhoods.
type noNeighbours struct{ *hyrec.Engine }

func (noNeighbours) Neighbors(context.Context, core.UserID) ([]core.UserID, error) { return nil, nil }

// failingReads fails every tenth recommendation read.
type failingReads struct {
	*hyrec.Engine
	n atomic.Int64
}

func (f *failingReads) Recommendations(ctx context.Context, u core.UserID, n int) ([]core.ItemID, error) {
	if f.n.Add(1)%10 == 0 {
		return nil, errors.New("injected failure")
	}
	return f.Engine.Recommendations(ctx, u, n)
}

func TestChecksCatchBrokenService(t *testing.T) {
	t.Run("dropped ratings", func(t *testing.T) {
		w := tiny("ingest")
		rep := runTiny(t, w, func(e *hyrec.Engine) hyrec.Service { return &dropEveryOther{Engine: e} })
		if !hasProblem(rep, "acknowledged") {
			t.Fatalf("ingest check missed dropped ratings: %v", rep.problems)
		}
	})
	t.Run("failed reads", func(t *testing.T) {
		rep := runTiny(t, tiny("ingest"), func(e *hyrec.Engine) hyrec.Service { return &failingReads{Engine: e} })
		if !hasProblem(rep, "failed at the nominal rate") {
			t.Fatalf("failed operations did not fail the run: %v", rep.problems)
		}
	})
	t.Run("empty neighbours", func(t *testing.T) {
		rep := runTiny(t, tiny("visit"), func(e *hyrec.Engine) hyrec.Service { return noNeighbours{e} })
		if !hasProblem(rep, "knn_quality") {
			t.Fatalf("quality check missed empty neighbourhoods: %v", rep.problems)
		}
	})
}

func hasProblem(rep *report, substr string) bool {
	for _, p := range rep.problems {
		if strings.Contains(p, substr) {
			return true
		}
	}
	return false
}

func TestPlanIsSeeded(t *testing.T) {
	w := tiny("ingest")
	a, err := makePlan(w, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makePlan(w, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makePlan(w, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Fatalf("same seed, different inputs: %s vs %s", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Fatalf("seeds 1 and 2 drew identical inputs %s", a.digest)
	}
}

// TestNewRatingsFollowTrace: generated ratings never repeat a user's
// item, and on the Digg trace, whose votes all binarise to liked, they
// carry no dislike.
func TestNewRatingsFollowTrace(t *testing.T) {
	p, err := makePlan(tiny("ingest"), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int64]bool{}
	n := 0
	for _, o := range p.fixed {
		for _, r := range o.ratings {
			n++
			k := [2]int64{int64(r.User), int64(r.Item)}
			if _, seeded := p.pop.base[r.User][r.Item]; seeded || seen[k] {
				t.Fatalf("user %d rated item %d twice", r.User, r.Item)
			}
			seen[k] = true
			if !r.Liked {
				t.Fatalf("user %d disliked item %d on a trace without dislikes", r.User, r.Item)
			}
		}
	}
	if n == 0 {
		t.Fatal("the schedule carries no ratings")
	}
}

func TestLayerMetricsSelfAndTransport(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span.Span{
		{Op: 1, Name: "client.job", Start: 0, End: 10 * ms},
		{Op: 1, Name: "http.job", Start: 2 * ms, End: 8 * ms},
		{Op: 1, Name: "engine.job", Start: 3 * ms, End: 7 * ms, A: 4096, B: 1024},
		{Op: 1, Name: "client.rate", Start: 0, End: 3 * ms, N: 4},
		{Op: 1, Name: "http.rate", Start: ms, End: 3 * ms},
		{Op: 1, Name: "engine.rate", Start: ms, End: 2 * ms, N: 4},
	}
	m := layerMetrics(spans, &measured{e2e: map[string]float64{}, window: time.Second})
	want := map[string]float64{
		"client.job_ms": 10, "http.job_ms": 6, "http.job_self_ms": 2, "transport.job_ms": 4,
		"engine.job_ms": 4, "wire.gzip_ratio": 4, "wire.job_gz_kb": 1,
		"http.rate_self_ms": 1, "transport.rate_ms": 1, "engine.rate_us_per_rating": 250,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestGCTraceParse(t *testing.T) {
	var g gcTrace
	g.Write([]byte("gc 1 @0.011s 2%: 0.020+1.5+0.030 ms clock, 0.04+0/1/2+0.06 ms cpu, 4->4->0 MB, 4 MB goal, 2 P\nnot a gc line\ngc 2 @0.5s 1%: 1.0+2"))
	g.Write([]byte("+0.5 ms clock, x\n"))
	n, pause := g.snapshot()
	if n != 2 || pause != 1550*time.Microsecond {
		t.Fatalf("cycles %d pause %v, want 2 and 1.55ms", n, pause)
	}
}
