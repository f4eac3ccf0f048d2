package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"hyrec/hyrecbench/span"
)

// perLayer are the traced run's metrics. README.md maps each to the
// end-to-end metric and workload it should move. A layer a workload does
// not exercise reads 0.
var perLayer = []metricDef{
	{"loadgen.p50_ms", "ms"}, {"loadgen.p99_ms", "ms"}, {"loadgen.read_p99_ms", "ms"},
	{"loadgen.max_rate_per_s", "1/s"}, {"loadgen.valid", "bool"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.op_sent", "count"}, {"loadgen.op_ok", "count"}, {"loadgen.op_failed", "count"},
	{"loadgen.read_sent", "count"}, {"loadgen.read_ok", "count"}, {"loadgen.read_failed", "count"},
	{"client.job_ms", "ms"}, {"client.result_ms", "ms"}, {"client.rate_ms", "ms"}, {"client.read_ms", "ms"},
	{"transport.job_ms", "ms"}, {"transport.result_ms", "ms"}, {"transport.rate_ms", "ms"}, {"transport.read_ms", "ms"},
	{"http.job_ms", "ms"}, {"http.result_ms", "ms"}, {"http.rate_ms", "ms"}, {"http.recs_ms", "ms"}, {"http.neighbors_ms", "ms"},
	{"http.job_self_ms", "ms"}, {"http.result_self_ms", "ms"}, {"http.rate_self_ms", "ms"}, {"http.recs_self_ms", "ms"}, {"http.neighbors_self_ms", "ms"},
	{"admit.shed_rating", "count"}, {"admit.shed_read", "count"}, {"admit.shed_worker", "count"},
	{"engine.job_ms", "ms"}, {"engine.result_ms", "ms"}, {"engine.rate_us_per_rating", "us"}, {"engine.read_ms", "ms"},
	{"wire.job_gz_kb", "KB"}, {"wire.job_json_kb", "KB"}, {"wire.gzip_ratio", "ratio"}, {"wire.candidates_per_job", "count"}, {"wire.decode_ms", "ms"},
	{"widget.knn_ms", "ms"}, {"widget.recommend_ms", "ms"}, {"core.knn_ns_per_candidate", "ns"},
	{"sched.issued", "count"}, {"sched.acked", "count"}, {"sched.expired", "count"}, {"sched.reissued", "count"},
	{"sched.fallback_runs", "count"}, {"sched.ack_share", "fraction"}, {"sched.coalesce_share", "fraction"},
	{"sched.backlog_mean", "count"}, {"sched.refresh_lag_ms", "ms"},
	{"ws.jobs_pushed", "count"}, {"ws.worker_done", "count"}, {"ws.worker_abandoned", "count"},
	{"proc.gc_cycles_per_kop", "count"}, {"proc.gc_pause_ms", "ms"},
	{"trace.untraced_p50_ms", "ms"}, {"trace.traced_p50_ms", "ms"},
	{"trace.untraced_cpu_ms_per_op", "ms"}, {"trace.traced_cpu_ms_per_op", "ms"},
	{"trace.p50_overhead_share", "fraction"},
	{"trace.payload_equal", "bool"}, {"trace.stats_equal", "bool"},
}

// runTraced measures the first half of the fixed-rate schedule, and the
// step-up phase, against the shipped server, then the same half against
// the traced host, both after the same seeding. Job payloads and
// counters probed right after seeding must be equal on both, which shows
// the host takes the server's code path; the two sets of end-to-end
// numbers state the overhead.
func runTraced(ctx context.Context, w *workload, p *plan, seed int64, start starter, rep *report) error {
	half := p.fixed[:0:0]
	for _, o := range p.fixed {
		if o.due < p.fixedDur/2 {
			half = append(half, o)
		}
	}

	plain, _, prA, err := setup(ctx, w, p, seed, start, false, true)
	if err != nil {
		return err
	}
	rep.line("untraced half against the shipped server:")
	mA, err := measure(ctx, plain, half, true, rep)
	plain.close()
	plain.t.Stop()
	if err != nil {
		return err
	}
	rep.problems = append(rep.problems, plain.problems...)

	host, _, prB, err := setup(ctx, w, p, seed, start, true, true)
	if err != nil {
		return err
	}
	defer host.close()
	defer host.t.Stop()
	ch, ok := host.t.(*child)
	if !ok {
		return fmt.Errorf("traced run needs a child-process host")
	}
	// A fresh session with span recording, on the seeded, warmed host.
	host.close()
	traced := newSession(w, p, host.t, &span.Log{})
	traced.acked = host.acked
	if w.socket {
		traced.startWorker(seed)
	}
	defer traced.close()
	gc0, pause0 := ch.gc.snapshot()
	rep.line("traced half against the span-recording host:")
	mB, err := measure(ctx, traced, half, false, rep)
	if err != nil {
		return err
	}
	gc1, pause1 := ch.gc.snapshot()
	rep.problems = append(rep.problems, traced.problems...)
	traced.close()
	out, err := ch.Terminate(10 * time.Second)
	if err != nil {
		return err
	}
	var hostSpans []span.Span
	for _, l := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(l, "SPANS "); ok {
			if err := json.Unmarshal([]byte(rest), &hostSpans); err != nil {
				return fmt.Errorf("decode host spans: %w", err)
			}
		}
	}
	if hostSpans == nil {
		return fmt.Errorf("traced host printed no spans")
	}

	payEq, statsEq := prA.equal(prB)
	if !payEq {
		rep.problems = append(rep.problems, "job payloads differ between the shipped server and the traced host")
	}
	if !statsEq {
		rep.problems = append(rep.problems, "/stats counters differ between the shipped server and the traced host")
	}

	for _, d := range append(endToEnd, wallClock...) {
		a, okA := mA.e2e[d.name]
		b, okB := mB.e2e[d.name]
		if okA && okB {
			rep.line("  %-24s untraced %10.4f  traced %10.4f %s", d.name, a, b, d.unit)
		}
	}
	m := layerMetrics(append(traced.tr.Spans(), hostSpans...), mB)
	for _, d := range wallClock {
		m["loadgen."+d.name] = mA.e2e[d.name]
	}
	m["loadgen.valid"] = min(mA.e2e["loadgen.valid"], mB.e2e["loadgen.valid"])
	m["trace.untraced_p50_ms"] = mA.e2e["p50_ms"]
	m["trace.traced_p50_ms"] = mB.e2e["p50_ms"]
	m["trace.untraced_cpu_ms_per_op"] = mA.e2e["server_cpu_ms_per_op"]
	m["trace.traced_cpu_ms_per_op"] = mB.e2e["server_cpu_ms_per_op"]
	m["trace.p50_overhead_share"] = mB.e2e["p50_ms"]/mA.e2e["p50_ms"] - 1
	m["trace.payload_equal"] = b2f(payEq)
	m["trace.stats_equal"] = b2f(statsEq)
	if gcs := gc1 - gc0; gcs > 0 {
		m["proc.gc_cycles_per_kop"] = float64(gcs) / (float64(mB.primaryOK) / 1000)
		m["proc.gc_pause_ms"] = ms(pause1-pause0) / float64(gcs)
	} else {
		m["proc.gc_cycles_per_kop"], m["proc.gc_pause_ms"] = 0, 0
	}
	for k, v := range m {
		rep.metrics[k] = v
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// layerMetrics joins the generator's and the host's spans per operation
// and reduces them to medians. Self time is a span minus the child span
// it covers (the handler minus its engine call); transport time is the
// client's span minus the server handler's for the same request.
func layerMetrics(spans []span.Span, mm *measured) map[string]float64 {
	byOp := map[uint64]map[string]span.Span{}
	for _, s := range spans {
		m := byOp[s.Op]
		if m == nil {
			m = map[string]span.Span{}
			byOp[s.Op] = m
		}
		m[s.Name] = s
	}
	durs := map[string][]float64{} // name → per-op values
	add := func(k string, v float64) { durs[k] = append(durs[k], v) }
	engineOf := map[string]string{"job": "engine.job", "result": "engine.result", "rate": "engine.rate", "recs": "engine.read", "neighbors": "engine.read"}
	var jsonB, gzB, cands float64
	var jobs, decodes int
	for _, m := range byOp {
		for name, s := range m {
			d := ms(s.Dur())
			switch name {
			case "client.job", "client.result", "client.rate", "client.read", "wire.decode",
				"widget.knn", "widget.recommend", "engine.job", "engine.result", "engine.read":
				add(name, d)
			case "engine.rate":
				if s.N > 0 {
					add("engine.rate_us", float64(s.Dur())/float64(time.Microsecond)/float64(s.N))
				}
			}
			switch name {
			case "engine.job":
				jsonB += float64(s.A)
				gzB += float64(s.B)
				jobs++
			case "widget.knn":
				if s.N > 0 {
					add("core.knn_ns", float64(s.Dur())/float64(s.N))
				}
				cands += float64(s.N)
				decodes++
			}
		}
		for ep, eng := range engineOf {
			h, ok := m["http."+ep]
			if !ok {
				continue
			}
			add("http."+ep, ms(h.Dur()))
			if c, ok := m[eng]; ok {
				add("http."+ep+"_self", ms(h.Dur()-c.Dur()))
			}
			clientName := "client." + ep
			if ep == "recs" || ep == "neighbors" {
				clientName = "client.read"
			}
			if c, ok := m[clientName]; ok {
				t := "transport." + strings.TrimPrefix(clientName, "client.")
				add(t, ms(c.Dur()-h.Dur()))
			}
		}
	}
	med := func(k string) float64 {
		xs := durs[k]
		if len(xs) == 0 {
			return 0
		}
		slices.Sort(xs)
		return xs[len(xs)/2]
	}
	out := map[string]float64{}
	for _, k := range []string{"client.job", "client.result", "client.rate", "client.read",
		"transport.job", "transport.result", "transport.rate", "transport.read",
		"http.job", "http.result", "http.rate", "http.recs", "http.neighbors",
		"http.job_self", "http.result_self", "http.rate_self", "http.recs_self", "http.neighbors_self",
		"engine.job", "engine.result", "engine.read", "wire.decode", "widget.knn", "widget.recommend"} {
		out[k+"_ms"] = med(k)
	}
	out["engine.rate_us_per_rating"] = med("engine.rate_us")
	out["core.knn_ns_per_candidate"] = med("core.knn_ns")
	out["wire.job_gz_kb"], out["wire.job_json_kb"], out["wire.gzip_ratio"], out["wire.candidates_per_job"] = 0, 0, 0, 0
	if jobs > 0 {
		out["wire.job_gz_kb"] = gzB / float64(jobs) / 1024
		out["wire.job_json_kb"] = jsonB / float64(jobs) / 1024
		if gzB > 0 {
			out["wire.gzip_ratio"] = jsonB / gzB
		}
	}
	if decodes > 0 {
		out["wire.candidates_per_job"] = cands / float64(decodes)
	}

	prim, reads := count(mm.res, isPrimary), count(mm.res, isRead)
	out["loadgen.late_p99_ms"] = mm.e2e["loadgen.late_p99_ms"]
	out["loadgen.op_sent"], out["loadgen.op_ok"], out["loadgen.op_failed"] = float64(prim.sent), float64(prim.ok), float64(prim.failed)
	out["loadgen.read_sent"], out["loadgen.read_ok"], out["loadgen.read_failed"] = float64(reads.sent), float64(reads.ok), float64(reads.failed)

	delta := func(k string) float64 { return mm.after[k] - mm.before[k] }
	out["admit.shed_rating"] = delta("shed_rating")
	out["admit.shed_read"] = delta("shed_read")
	out["admit.shed_worker"] = delta("shed_worker")
	for _, k := range []string{"acked", "expired", "reissued", "fallback_runs"} {
		out["sched."+k] = delta("sched_" + k)
	}
	// Leases issued to users (job fetches) and dispatched to workers.
	out["sched.issued"] = delta("sched_issued") + delta("sched_dispatched")
	out["sched.ack_share"], out["sched.coalesce_share"], out["sched.refresh_lag_ms"] = 0, 0, 0
	if issued := out["sched.issued"]; issued > 0 {
		out["sched.ack_share"] = delta("sched_acked") / issued
		ratings := 0.0
		for _, m := range byOp {
			if s, ok := m["client.rate"]; ok {
				ratings += float64(s.N)
			}
		}
		if ratings > 0 {
			out["sched.coalesce_share"] = 1 - issued/ratings
		}
	}
	out["sched.backlog_mean"] = mm.backlog
	if acked := delta("sched_acked"); acked > 0 {
		// Little's law: mean wait = mean backlog / completion rate.
		out["sched.refresh_lag_ms"] = mm.backlog / (acked / mm.window.Seconds()) * 1000
	}
	out["ws.jobs_pushed"] = delta("ws_jobs_pushed_total")
	out["ws.worker_done"] = float64(mm.workerDone)
	out["ws.worker_abandoned"] = float64(mm.workerAbandoned)
	return out
}
