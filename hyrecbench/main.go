// Command hyrecbench is HyRec's end-to-end benchmark. It starts the real
// server binary as a child process, drives it open-loop over the public
// /v1 HTTP and WebSocket planes from one generator process, checks the
// outputs, and prints every metric by name and unit; the last line of
// standard output is one JSON object. See README.md for the workloads,
// the metrics and how to read a traced run.
//
//	hyrecbench --workload visit --seed 1 --seconds 24 --trace 0 \
//	    --server .bench_build/bin/hyrec-server --host .bench_build/bin/tracehost
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/dataset"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name       string
	data       dataset.GenConfig
	mix        mix
	limit      time.Duration // latency limit of the capacity rule; half of it bounds generator lateness
	conns      int           // HTTP connections the generator may open
	socket     bool          // one more connection: the worker WebSocket
	warmVisits int
	leaseTTL   time.Duration
	fallback   int
	abandon    float64
	floor      float64 // knn_quality below this fails the run
	checkUsers int     // users whose profiles the ingest check reads back
}

func (w *workload) serverFlags() []string {
	var f []string
	if w.leaseTTL > 0 {
		f = append(f, "-lease-ttl", w.leaseTTL.String())
	}
	if w.fallback > 0 {
		f = append(f, "-fallback-workers", fmt.Sprint(w.fallback))
	}
	return f
}

// workloads returns the benchmark's workloads for a host with nproc
// CPUs: the generator opens at most nproc connections in total.
func workloads(nproc int) map[string]*workload {
	return map[string]*workload{
		// The paper's synchronous flow on an ML1-sized population: job
		// assembly, gzip and the dense packed kernel; little ingest.
		"visit": {
			name: "visit", data: dataset.ML1Config(),
			mix:   mix{rate: 100, readsPer: 1, rateFirst: 0.25, primary: opVisit},
			limit: 250 * time.Millisecond,
			conns: nproc, warmVisits: 100, floor: 0.25,
		},
		// The write path with reads beside it, on Digg-sized sparse
		// profiles, five times more users than the recommendation LRU.
		"ingest": {
			name: "ingest", data: dataset.Scaled(dataset.DiggConfig(), 0.35),
			mix:   mix{rate: 1000, readsPer: 0.25, batch: 32, primary: opRate},
			limit: 50 * time.Millisecond,
			conns: nproc, warmVisits: 200, floor: 0.15, checkUsers: 200,
		},
		// The asynchronous scheduler over WebSocket push: ratings on
		// Zipf-skewed users, one socket worker draining the queue.
		"push-workers": {
			name: "push-workers", data: dataset.Scaled(dataset.DiggConfig(), 0.02),
			mix:   mix{rate: 100, readsPer: 1, batch: 1, zipfUsers: true, primary: opRate},
			limit: 50 * time.Millisecond,
			conns: max(1, nproc-1), socket: true,
			leaseTTL: 500 * time.Millisecond, fallback: 1, abandon: 0.1, floor: 0.2,
		},
	}
}

// plan is everything a run sends, drawn from the seed before the server
// starts.
type plan struct {
	pop      *population
	sch      *scheduler
	fixed    []op
	warm     []core.UserID
	quality  []core.UserID // users whose neighbourhoods knn_quality scores
	check    []core.UserID // candidates for the ingest read-back check
	digest   string
	fixedDur time.Duration
	stepDur  time.Duration
}

// The fixed-rate phase lasts --seconds. The traced run replays half of
// it on each server and spends stepShare of --seconds on the step-up
// phase in between.
const stepShare = 0.3

func makePlan(w *workload, seed int64, seconds float64) (*plan, error) {
	pop, err := makePopulation(w.data)
	if err != nil {
		return nil, err
	}
	total := time.Duration(seconds * float64(time.Second))
	p := &plan{pop: pop, sch: newScheduler(pop, seed)}
	p.fixedDur = total
	p.stepDur = time.Duration(float64(total) * stepShare / maxSteps)
	p.warm = p.sch.sample(w.warmVisits)
	p.fixed = p.sch.phase(w.mix, p.fixedDur)
	switch {
	case w.socket:
		p.quality = pop.users
	case w.mix.primary == opVisit:
		set := map[core.UserID]bool{}
		for _, u := range p.warm {
			set[u] = true
		}
		for _, o := range p.fixed {
			if o.kind == opVisit {
				set[o.user] = true
			}
		}
		for u := range set {
			p.quality = append(p.quality, u)
		}
		slices.Sort(p.quality)
	default:
		p.quality = p.warm
	}
	if w.checkUsers > 0 {
		p.check = p.sch.sample(10 * w.checkUsers)
	}
	p.digest = digest(pop, p.fixed[:min(len(p.fixed), digestOps)])
	return p, nil
}

// starter launches a server for w; traced selects the span-recording
// host.
type starter func(w *workload, traced bool) (target, error)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hyrecbench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "visit, ingest or push-workers")
		seed      = fs.Int64("seed", 1, "workload seed")
		seconds   = fs.Float64("seconds", 24, "measured seconds per run")
		trace     = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		serverBin = fs.String("server", ".bench_build/bin/hyrec-server", "hyrec-server binary")
		hostBin   = fs.String("host", ".bench_build/bin/tracehost", "traced host binary")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	// The generator holds the whole schedule and ledger; collecting less
	// often keeps its own pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	w, ok := workloads(nproc)[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hyrecbench: need --workload visit|ingest|push-workers, --seconds > 0, --trace 0|1\n")
		return 2
	}
	for _, bin := range []string{*serverBin, *hostBin} {
		if _, err := os.Stat(bin); err != nil {
			fmt.Fprintf(os.Stderr, "hyrecbench: %v (build with hyrecbench/run.sh)\n", err)
			return 1
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		killAllChildren()
		fmt.Fprintf(os.Stderr, "hyrecbench: %v: server stopped\n", s)
		os.Exit(1)
	}()
	defer killAllChildren()

	start := func(w *workload, traced bool) (target, error) {
		if traced {
			return startChild(*hostBin, w.serverFlags(), true)
		}
		return startChild(*serverBin, w.serverFlags(), false)
	}
	rep, err := bench(context.Background(), w, *seed, *seconds, *trace == 1, start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyrecbench: %v\n", err)
		return 1
	}
	if want := pinnedDigest("BENCHMARK.json", w.name); *seed == 1 && want != "" && want != rep.digest {
		rep.problems = append(rep.problems, fmt.Sprintf("input digest %s differs from the %s pinned for seed 1: the generated workload changed", rep.digest, want))
	}
	rep.print(os.Stdout, *trace == 1)
	return 0
}

// pinnedDigest reads the digest BENCHMARK.json records for a workload's
// default seed, in its "why" as "digest <hex>"; "" when absent.
func pinnedDigest(path, name string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
	}
	if json.Unmarshal(data, &spec) != nil {
		return ""
	}
	re := regexp.MustCompile(`digest ([0-9a-f]{16})`)
	for _, wl := range spec.Workloads {
		if m := re.FindStringSubmatch(wl.Why); wl.Name == name && m != nil {
			return m[1]
		}
	}
	return ""
}

// bench runs one workload: untraced, it measures the end-to-end metrics;
// traced, it measures half the fixed-rate phase untraced and half
// against the span-recording host, and derives the per-layer metrics.
func bench(ctx context.Context, w *workload, seed int64, seconds float64, traced bool, start starter) (*report, error) {
	p, err := makePlan(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	rep := &report{digest: p.digest, metrics: map[string]float64{}}
	rep.line("workload %s seed %d: %s, %d users, %d items, %d seed ratings; input digest %s",
		w.name, seed, p.pop.name, len(p.pop.users), p.pop.items, len(p.pop.ratings), p.digest)
	if traced {
		return rep, runTraced(ctx, w, p, seed, start, rep)
	}

	const setups = 5
	times := make([]float64, 0, setups)
	var s *session
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
			s.t.Stop()
		}
		var d time.Duration
		s, d, _, err = setup(ctx, w, p, seed, start, false, false)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	defer s.t.Stop()
	defer s.close()
	sort.Float64s(times)
	rep.metrics["setup_s"] = times[len(times)/2]
	rep.line("setup: %d runs, median %.3f s (each: start server, seed, warm up)", setups, rep.metrics["setup_s"])
	m, err := measure(ctx, s, p.fixed, false, rep)
	if err != nil {
		return nil, err
	}
	for k, v := range m.e2e {
		rep.metrics[k] = v
	}
	rep.problems = append(rep.problems, s.problems...)
	return rep, nil
}

// probe is the state two servers seeded alike must agree on.
type probe struct {
	payloads [][]byte
	stats    map[string]float64
}

var deadlineField = regexp.MustCompile(`"deadline_ms":[0-9]+,`)

// takeProbe fetches jobs for the first users, one at a time, and reads
// the counters. A job's lease deadline is wall-clock time, so it is
// blanked before comparing.
func takeProbe(ctx context.Context, s *session) (*probe, error) {
	pr := &probe{}
	for _, u := range s.p.pop.users[:min(16, len(s.p.pop.users))] {
		raw, err := s.c.JobRaw(ctx, u)
		if err != nil {
			return nil, fmt.Errorf("probe job: %w", err)
		}
		pr.payloads = append(pr.payloads, deadlineField.ReplaceAll(raw, nil))
	}
	st, err := s.stats(ctx)
	if err != nil {
		return nil, err
	}
	pr.stats = st
	return pr, nil
}

// probeStats are the counters compared between the shipped server and
// the traced host.
var probeStats = []string{"users", "json_bytes", "gzip_bytes", "messages", "knn_entries", "sched_issued", "sched_pending"}

func (a *probe) equal(b *probe) (payloads, stats bool) {
	payloads = len(a.payloads) == len(b.payloads)
	for i := range a.payloads {
		payloads = payloads && string(a.payloads[i]) == string(b.payloads[i])
	}
	stats = true
	for _, k := range probeStats {
		stats = stats && a.stats[k] == b.stats[k]
	}
	return payloads, stats
}

// setup starts a server and brings it to the measured state: seeded,
// warmed up and, for the scheduler workload, with its refresh queue
// drained by the socket worker. The returned time excludes building.
func setup(ctx context.Context, w *workload, p *plan, seed int64, start starter, traced, withProbe bool) (*session, time.Duration, *probe, error) {
	t0 := time.Now()
	t, err := start(w, traced)
	if err != nil {
		return nil, 0, nil, err
	}
	s := newSession(w, p, t, nil)
	fail := func(err error) (*session, time.Duration, *probe, error) {
		s.close()
		t.Stop()
		return nil, 0, nil, err
	}
	if err := s.seed(ctx); err != nil {
		return fail(err)
	}
	var pr *probe
	if withProbe {
		if pr, err = takeProbe(ctx, s); err != nil {
			return fail(err)
		}
	}
	if err := s.warm(ctx); err != nil {
		return fail(err)
	}
	if w.socket {
		s.startWorker(seed)
		if err := s.drain(ctx, 60*time.Second); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	return s, time.Since(t0), pr, nil
}

// measured is one fixed-rate phase (and optional step-up) on a session.
type measured struct {
	e2e                         map[string]float64
	res                         []result
	before                      map[string]float64 // /stats around the fixed-rate phase
	after                       map[string]float64
	backlog                     float64 // time-averaged scheduler backlog
	window                      time.Duration
	primaryOK                   int
	workerDone, workerAbandoned int64
}

func measure(ctx context.Context, s *session, ops []op, stepUp bool, rep *report) (*measured, error) {
	w, p := s.w, s.p
	m := &measured{e2e: map[string]float64{}}
	var err error
	if m.before, err = s.stats(ctx); err != nil {
		return nil, err
	}
	var wd0, wa0 int64
	var bl *sampler
	var statsCost int64
	if w.socket {
		if statsCost, err = s.statsCost(ctx); err != nil {
			return nil, err
		}
		wd0, wa0 = s.worker.Stats()
	}
	u0, err := s.t.Usage()
	if err != nil {
		return nil, err
	}
	polls0 := s.polls.Load()
	if w.socket {
		bl = s.sampleBacklog(200 * time.Millisecond)
	}
	c0, err := readUsage("self")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	m.res = runOpen(ctx, ops, s.do)
	m.window = time.Since(t0)
	c1, err := readUsage("self")
	if err != nil {
		return nil, err
	}
	if bl != nil {
		// Stopped before the server's counters are read, so every /stats
		// poll of the phase is whole on both sides of the subtraction.
		if m.backlog, err = bl.finish(); err != nil {
			return nil, err
		}
		wd, wa := s.worker.Stats()
		m.workerDone, m.workerAbandoned = wd-wd0, wa-wa0
	}
	u1, err := s.t.Usage()
	if err != nil {
		return nil, err
	}
	polls1 := s.polls.Load()
	if m.after, err = s.stats(ctx); err != nil {
		return nil, err
	}
	prim, reads, all := count(m.res, isPrimary), count(m.res, isRead), count(m.res, anyKind)
	m.primaryOK = prim.ok
	rep.phase("fixed", prim, reads, w.mix.rate)
	rep.attempted += all.sent
	rep.failed += all.failed
	if prim.ok == 0 {
		return nil, errors.New("no operation succeeded in the fixed-rate phase")
	}
	if all.failed > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d of %d operations failed at the nominal rate", all.failed, all.sent))
	}
	m.e2e["ok_share"] = float64(all.ok) / float64(all.sent)
	if polls := polls1 - polls0; polls > 0 {
		rep.line("  %d /stats polls of %d bytes each left out of wire_kb_per_op", polls, statsCost)
	}

	lat := latencies(m.res, isPrimary)
	late := sortedLate(m.res)
	rep.line("  generator late p50 %.3f ms, p99 %.3f ms", ms(pct(late, 0.5)), ms(pct(late, 0.99)))
	m.e2e["p50_ms"] = ms(pct(lat, 0.50))
	m.e2e["p99_ms"] = ms(pct(lat, 0.99))
	m.e2e["read_p99_ms"] = ms(pct(latencies(m.res, isRead), 0.99))
	m.e2e["loadgen.late_p99_ms"] = ms(pct(late, 0.99))
	m.e2e["server_cpu_ms_per_op"] = ms(u1.cpu-u0.cpu) / float64(prim.ok)
	m.e2e["client_cpu_ms_per_op"] = ms(c1.cpu-c0.cpu) / float64(prim.ok)
	// The benchmark's own /stats polls are left out of the bandwidth.
	m.e2e["wire_kb_per_op"] = float64(u1.ioBytes-u0.ioBytes-(polls1-polls0)*statsCost) / 1024 / float64(prim.ok)
	// Peak RSS through the fixed-rate phase; the traced run's step-up
	// phase, whose reach varies with the host, is left out.
	m.e2e["server_rss_mb"] = float64(u1.hwmKB) / 1024
	m.e2e["loadgen.valid"] = 1
	if l := pct(late, 0.99); l > w.limit/2 {
		m.e2e["loadgen.valid"] = 0
		rep.line("INVALID latency figures: the generator ran %.2f ms late at p99 (limit %.2f ms), so they would include its own saturation", ms(l), ms(w.limit/2))
	}
	q, err := s.knnQuality(ctx, p.quality, 10)
	if err != nil {
		return nil, err
	}
	m.e2e["knn_quality"] = q
	if q < w.floor {
		rep.problems = append(rep.problems, fmt.Sprintf("knn_quality %.3f is below the floor %.2f", q, w.floor))
	}

	if stepUp {
		try := func(rate float64) stepOutcome {
			mx := w.mix
			mx.rate = rate
			step := p.sch.phase(mx, p.stepDur)
			res := runOpen(ctx, step, s.do)
			out := judgeStep(rate, res, p.stepDur, w.limit)
			rep.phase(fmt.Sprintf("step %.0f/s", rate), count(res, isPrimary), count(res, isRead), rate)
			rep.line("  tail p%.0f %.2f ms, pass %v", 100*stepQ(count(res, isPrimary).sent), ms(out.tail), out.pass)
			all := count(res, anyKind)
			rep.attempted += all.sent
			rep.failed += all.failed
			return out
		}
		rate, bounded := capacity(judgeStep(w.mix.rate, m.res, p.fixedDur, w.limit), maxSteps, try, w.limit)
		m.e2e["max_rate_per_s"] = rate
		if !bounded {
			rep.line("note: every step met the limit; max_rate_per_s is the highest step offered")
		}
	}
	if w.socket {
		if err := s.drain(ctx, 30*time.Second); err != nil {
			rep.problems = append(rep.problems, "after the rating stream stopped: "+err.Error())
		}
		st, err := s.stats(ctx)
		if err != nil {
			return nil, err
		}
		if st["sched_fallback_errors"] != 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("sched_fallback_errors = %.0f", st["sched_fallback_errors"]))
		}
	}
	if len(p.check) > 0 {
		users := make([]core.UserID, 0, w.checkUsers)
		for _, u := range p.check {
			if len(users) < w.checkUsers && s.hasAcks(u) {
				users = append(users, u)
			}
		}
		if err := s.checkIngest(ctx, users); err != nil {
			return nil, err
		}
		rep.line("ingest check: read back %d users' profiles", len(users))
	}
	return m, nil
}

func (s *session) hasAcks(u core.UserID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.acked[u]) > 0
}

// report collects what a run prints.
type report struct {
	lines             []string
	digest            string
	metrics           map[string]float64
	attempted, failed int
	problems          []string
}

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) phase(name string, prim, reads tally, rate float64) {
	r.line("phase %-12s offered %.0f/s: primary sent %d ok %d failed %d; reads sent %d ok %d failed %d",
		name, rate, prim.sent, prim.ok, prim.failed, reads.sent, reads.ok, reads.failed)
}

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics a user of the system sees, in the
// result of every untraced run. They count work (CPU time, bytes,
// memory) or outcomes, which stay steady on a shared host.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"server_cpu_ms_per_op", "ms"},
	{"client_cpu_ms_per_op", "ms"},
	{"server_rss_mb", "MB"},
	{"wire_kb_per_op", "KB"},
	{"knn_quality", "ratio"},
	{"ok_share", "fraction"},
}

// wallClock are the latency and capacity figures. They swing with CPU
// steal on a shared virtual machine by more than any regression bound,
// so they are not in the result of an untraced run, which prints its
// latencies only; the traced run, which alone searches for the
// capacity, reports them as loadgen.* per-layer metrics.
var wallClock = []metricDef{
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"max_rate_per_s", "1/s"},
}

func (r *report) print(out *os.File, traced bool) {
	for _, l := range r.lines {
		fmt.Fprintln(out, l)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	} else {
		for _, d := range wallClock {
			if v, ok := r.metrics[d.name]; ok {
				fmt.Fprintf(out, "%-28s %14.4f %s (not gated)\n", d.name, v, d.unit)
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			r.problems = append(r.problems, "metric "+d.name+" was not measured")
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(out, "%-28s %14.4f %s\n", d.name, v, d.unit)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	failures.Lock()
	for _, e := range failures.first {
		fmt.Fprintln(out, "operation failed:", e)
	}
	failures.Unlock()
	if len(r.problems) == 0 {
		fmt.Fprintln(out, "checks: all passed")
	} else {
		fmt.Fprintf(out, "checks: %d failed\n", len(r.problems))
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, max(r.attempted, 1), r.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hyrecbench: encode result:", err)
		return
	}
	fmt.Fprintln(out, string(line))
}
