// Package bench is HyRec's capacity-measurement subsystem: it drives any
// server.Service — an in-process Engine, a partitioned Cluster, or the
// typed HTTP client pointed at a live server — through named workload
// scenarios and records, per scenario, the three quantities the paper's
// economic argument rests on (Section 5: one server must sustain far more
// users than a CRec-style central recommender): sustained throughput,
// request latency (p50/p99), and allocations per operation.
//
// The runner is the repository's one closed-loop driver (soak and
// batch-versus-single tests run on it too): a fixed worker count
// issues operations back-to-back for a measurement window, each worker
// recording latencies locally (no shared state on the hot path), and
// process-wide allocation counters are sampled around the window.
// Workloads are deterministic: every operation is a pure function of
// (worker, iteration) over a seeded population, so two runs over the
// same build exercise the same request stream.
//
// Results serialize to the machine-readable BENCH_hotpath.json at the
// repo root (report.go); scripts/bench.sh replays the short form of every
// scenario in CI and fails when throughput or allocations regress beyond
// tolerance against the committed baseline. This file is the perf
// trajectory every PR is judged against.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"hyrec/internal/server"
	"hyrec/internal/stats"
)

// Op is one logical operation against the service under test. i is the
// worker-local iteration counter; together with worker it determines the
// operation deterministically.
type Op func(ctx context.Context, svc server.Service, worker, i int) error

// Scenario is a named workload: a seeding step and the operation stream.
type Scenario struct {
	// Name identifies the scenario in reports ("rate-heavy", …).
	Name string
	// Description is the one-line summary shown in the text table.
	Description string
	// Setup seeds the service (population, ratings, warm KNN rows).
	Setup func(ctx context.Context, svc server.Service) error
	// Op issues one operation.
	Op Op
}

// Options parametrise a run.
type Options struct {
	// Window is the measurement window per scenario (default 2s).
	Window time.Duration
	// Workers is the closed-loop worker count (default GOMAXPROCS).
	Workers int
	// Seed drives workload derivation (default 1).
	Seed int64
	// Users is the seeded population size (default 512).
	Users int
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 2 * time.Second
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Users <= 0 {
		o.Users = 512
	}
	return o
}

// Result is one scenario's measurement — the unit of BENCH_hotpath.json.
type Result struct {
	// Scenario is the workload name; Service names the deployment shape
	// under test (engine, cluster-4, engine-wire, …); Mode is "inproc"
	// or "wire".
	Scenario string `json:"scenario"`
	Service  string `json:"service"`
	Mode     string `json:"mode"`

	Workers  int     `json:"workers"`
	Ops      int64   `json:"ops"`
	Failures int64   `json:"failures"`
	Seconds  float64 `json:"seconds"`

	// ThroughputOpsPerSec is successfully completed operations per
	// second of window — failures are excluded, so a fast error path
	// cannot masquerade as capacity.
	ThroughputOpsPerSec float64 `json:"throughput_ops_per_sec"`
	// P50Ms / P99Ms are per-operation latency percentiles in
	// milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// AllocsPerOp is process-wide heap allocations per successful
	// operation over the window (for wire scenarios this covers both
	// ends of the connection).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// BytesPerOp is process-wide heap bytes allocated per operation.
	BytesPerOp float64 `json:"bytes_per_op"`

	// ShedTotal counts requests the server's admission gate shed during
	// the measurement window. Non-zero only on adversarial rows (the
	// overload scenario); Compare requires a shed row's gate to still be
	// engaging, and skips the allocs/op ceiling for it (the flood's own
	// allocations land in the process-wide counters).
	ShedTotal int64 `json:"shed_total,omitempty"`
}

// Run executes one scenario against svc and measures it. The service is
// seeded by sc.Setup, warmed for ~1/8 of the window (pools, caches, JIT
// map growth), then measured for the full window.
func Run(ctx context.Context, svc server.Service, sc Scenario, opt Options) (Result, error) {
	opt = opt.withDefaults()
	if sc.Setup != nil {
		if err := sc.Setup(ctx, svc); err != nil {
			return Result{}, fmt.Errorf("bench: setup %s: %w", sc.Name, err)
		}
	}

	warm := opt.Window / 8
	if warm < 20*time.Millisecond {
		warm = 20 * time.Millisecond
	}
	runWorkers(ctx, svc, sc.Op, opt.Workers, warm, nil)

	lat := make([][]float64, opt.Workers)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	failures := runWorkers(ctx, svc, sc.Op, opt.Workers, opt.Window, lat)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	all := mergeSorted(lat)
	res := Result{
		Scenario: sc.Name,
		Workers:  opt.Workers,
		Ops:      int64(len(all)),
		Failures: failures,
		Seconds:  elapsed.Seconds(),
	}
	if len(all) == 0 {
		return res, fmt.Errorf("bench: scenario %s completed zero operations", sc.Name)
	}
	res.ThroughputOpsPerSec = float64(len(all)) / elapsed.Seconds()
	res.P50Ms = stats.Percentile(all, 50)
	res.P99Ms = stats.Percentile(all, 99)
	res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(len(all))
	res.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(all))
	return res, nil
}

// runWorkers drives the closed loop: `workers` goroutines issue ops until
// the deadline, recording per-op latency into lat[worker] when lat is
// non-nil (warmup passes nil). Returns the failure count.
func runWorkers(ctx context.Context, svc server.Service, op Op, workers int,
	window time.Duration, lat [][]float64) int64 {
	ctx, cancel := context.WithTimeout(ctx, window)
	defer cancel()
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	failures := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []float64
			if lat != nil {
				local = make([]float64, 0, 4096)
			}
			for i := 0; time.Now().Before(deadline); i++ {
				opStart := time.Now()
				err := op(ctx, svc, w, i)
				if err != nil {
					// The window closing mid-call is the harness, not
					// the workload.
					if ctx.Err() != nil {
						break
					}
					// Failed ops are counted but contribute no latency
					// sample: a fast error path must not inflate
					// throughput or deflate percentiles.
					failures[w]++
					continue
				}
				if lat != nil {
					local = append(local, float64(time.Since(opStart))/float64(time.Millisecond))
				}
			}
			if lat != nil {
				lat[w] = local
			}
		}(w)
	}
	wg.Wait()
	var failed int64
	for _, f := range failures {
		failed += f
	}
	return failed
}

func mergeSorted(lat [][]float64) []float64 {
	n := 0
	for _, l := range lat {
		n += len(l)
	}
	out := make([]float64, 0, n)
	for _, l := range lat {
		out = append(out, l...)
	}
	sort.Float64s(out)
	return out
}
