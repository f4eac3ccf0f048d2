package server

import (
	"testing"

	"hyrec/internal/core"
)

// benchEngine builds an engine with a populated roster and KNN graph so
// job assembly exercises the full sampling path.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	cfg := DefaultConfig()
	cfg.K = 10
	e := NewEngine(cfg)
	for u := core.UserID(1); u <= 2000; u++ {
		for j := 0; j < 8; j++ {
			e.Rate(tctx, u, core.ItemID((int(u)+j)%200), true)
		}
	}
	return e
}

// BenchmarkRandomUsersParallel measures the sampling RNG under
// concurrent assembly — the hot path that used to serialize every
// worker on one global rngMu. With the per-user lock sharding,
// goroutines drawing for different users proceed in parallel; run with
// -cpu 1,4,16 to see the scaling.
func BenchmarkRandomUsersParallel(b *testing.B) {
	e := benchEngine(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		u := core.UserID(1)
		for pb.Next() {
			e.RandomUsers(10, u)
			u++
		}
	})
}

// BenchmarkJobParallel measures whole-job assembly (sampler + candidate
// profiles + encoding) under concurrency — the serving path the RNG
// sharding unblocks.
func BenchmarkJobParallel(b *testing.B) {
	e := benchEngine(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		u := core.UserID(1)
		for pb.Next() {
			if _, _, err := e.JobPayload(1 + (u % 2000)); err != nil {
				b.Fatal(err)
			}
			u++
		}
	})
}
