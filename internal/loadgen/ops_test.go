package loadgen_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"hyrec"
	"hyrec/client"
	"hyrec/internal/bench"
	"hyrec/internal/loadgen"
	"hyrec/internal/server"
)

func newBenchServer(tb testing.TB) (*hyrec.Engine, *httptest.Server) {
	tb.Helper()
	eng := hyrec.NewEngine(hyrec.DefaultConfig())
	srv := hyrec.NewServiceServer(eng, 0)
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(func() { ts.Close(); srv.Close() })
	return eng, ts
}

// TestBatchBeatsSingleRate is the protocol's reason to exist: moving
// ratings as one batch per request instead of one rating per request
// must be at least 2× faster end to end. Both paths run through the
// bench runner's closed loop for the same window. Skipped with -short
// to keep CI timing-insensitive; the benchmarks below track the same
// ratio.
func TestBatchBeatsSingleRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; run without -short")
	}
	_, ts := newBenchServer(t)
	c := client.New(ts.URL)
	defer c.Close()

	uids := loadgen.UIDRange(64)
	const batch = 64
	run := func(name string, op loadgen.Op) bench.Result {
		t.Helper()
		res, err := bench.Run(context.Background(), c, bench.Scenario{
			Name: name,
			Op: func(ctx context.Context, _ server.Service, worker, i int) error {
				return op(ctx, c, worker*1_000_003+i)
			},
		}, bench.Options{Window: 400 * time.Millisecond, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != 0 {
			t.Fatalf("%s: %d failures", name, res.Failures)
		}
		return res
	}
	single := run("rate-single", loadgen.RateOp(uids, 100))
	batched := run("rate-batch", loadgen.RateBatchOp(uids, 100, batch))

	// Compare ratings-per-second: the batch path moves `batch` ratings
	// per request.
	singleRPS := single.ThroughputOpsPerSec
	batchRPS := batched.ThroughputOpsPerSec * batch
	t.Logf("single: %.0f ratings/s, batched(×%d): %.0f ratings/s (%.1fx)",
		singleRPS, batch, batchRPS, batchRPS/singleRPS)
	if batchRPS < 2*singleRPS {
		t.Fatalf("batch path %.0f ratings/s < 2× single path %.0f ratings/s", batchRPS, singleRPS)
	}
}

// BenchmarkClientRateSingle measures the per-request /v1/rate path: one
// rating per round trip.
func BenchmarkClientRateSingle(b *testing.B) {
	_, ts := newBenchServer(b)
	c := client.New(ts.URL)
	defer c.Close()
	uids := loadgen.UIDRange(64)
	op := loadgen.RateOp(uids, 100)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(ctx, c, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ratings/s")
}

// BenchmarkClientRateBatch measures the amortized path: 64 ratings per
// round trip. Compare ratings/s against BenchmarkClientRateSingle.
func BenchmarkClientRateBatch(b *testing.B) {
	_, ts := newBenchServer(b)
	c := client.New(ts.URL)
	defer c.Close()
	uids := loadgen.UIDRange(64)
	const batch = 64
	op := loadgen.RateBatchOp(uids, 100, batch)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(ctx, c, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ratings/s")
}

// BenchmarkClientJob measures the personalization-job fetch through the
// typed client (gzip negotiation + decode).
func BenchmarkClientJob(b *testing.B) {
	eng, ts := newBenchServer(b)
	ctx := context.Background()
	for u := hyrec.UserID(1); u <= 64; u++ {
		eng.Rate(ctx, u, hyrec.ItemID(u%7), true)
	}
	c := client.New(ts.URL)
	defer c.Close()
	op := loadgen.JobOp(loadgen.UIDRange(64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(ctx, c, i); err != nil {
			b.Fatal(err)
		}
	}
}
