package main

import (
	"context"
	"math"
	"slices"
	"sync"
	"time"
)

// result is what happened to one scheduled operation. Latency is timed
// from the operation's due time, so a stall also charges the operations
// queued behind it; late is how far behind schedule the generator
// started it.
type result struct {
	kind opKind
	ok   bool
	lat  time.Duration
	late time.Duration
	end  time.Duration // completion, from the phase start
}

// maxInflight bounds the generator's outstanding operations. An
// operation that waits for a slot starts late and shows in
// loadgen.late_p99_ms.
const maxInflight = 4096

// runOpen drives ops open-loop: each starts at its due time whether or
// not earlier ones have finished. It returns once every operation has
// completed.
func runOpen(ctx context.Context, ops []op, do func(context.Context, *op) error) []result {
	res := make([]result, len(ops))
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		due := start.Add(ops[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			r := &res[i]
			r.kind = ops[i].kind
			r.late = time.Since(due)
			err := do(ctx, &ops[i])
			now := time.Now()
			r.ok = err == nil
			r.lat = now.Sub(due)
			r.end = now.Sub(start)
			if err != nil {
				failures.note(err)
			}
		}(i)
	}
	wg.Wait()
	return res
}

// failLog keeps the first few operation errors for the report.
type failLog struct {
	sync.Mutex
	first []string
}

var failures failLog

func (f *failLog) note(err error) {
	f.Lock()
	defer f.Unlock()
	if len(f.first) < 5 {
		f.first = append(f.first, err.Error())
	}
}

// tally counts a phase's operations by kind class.
type tally struct{ sent, ok, failed int }

func count(res []result, want func(opKind) bool) tally {
	var t tally
	for _, r := range res {
		if !want(r.kind) {
			continue
		}
		t.sent++
		if r.ok {
			t.ok++
		} else {
			t.failed++
		}
	}
	return t
}

func isPrimary(k opKind) bool { return k.primary() }
func isRead(k opKind) bool    { return !k.primary() }
func anyKind(opKind) bool     { return true }

// latencies returns the sorted latencies of the selected operations. A
// failed operation counts as infinitely slow: it missed every limit.
func latencies(res []result, want func(opKind) bool) []time.Duration {
	var out []time.Duration
	for _, r := range res {
		if !want(r.kind) {
			continue
		}
		if r.ok {
			out = append(out, r.lat)
		} else {
			out = append(out, time.Duration(math.MaxInt64))
		}
	}
	slices.Sort(out)
	return out
}

// pct is the nearest-rank q-quantile of sorted xs.
func pct(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// tailQ is the highest of p99, p95 and p90 that leaves at least ten
// samples beyond it in n samples (p90 when even that is short).
func tailQ(n int) float64 {
	for _, q := range []float64{0.99, 0.95} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.90
}

// stepQ is the percentile a capacity step is judged by: tailQ, but never
// above p95, so steps at different rates are judged alike and one stray
// stall in a short step does not end the search.
func stepQ(n int) float64 { return min(tailQ(n), 0.95) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stepOutcome is one step of the step-up phase.
type stepOutcome struct {
	rate float64
	tail time.Duration // at stepQ of the step's primary operations
	pass bool
	t    tally
}

// judgeStep applies the capacity rule: no failures, the tail under the
// limit, and a flat backlog — the operations due in the step's last
// quarter still finish within the limit at the median, which a queue
// that keeps growing cannot do.
func judgeStep(rate float64, res []result, window, limit time.Duration) stepOutcome {
	lat := latencies(res, isPrimary)
	s := stepOutcome{rate: rate, tail: pct(lat, stepQ(len(lat))), t: count(res, anyKind)}
	var last []result
	for _, r := range res {
		if due := r.end - r.lat; due >= window*3/4 {
			last = append(last, r)
		}
	}
	s.pass = s.t.failed == 0 && s.tail <= limit && pct(latencies(last, isPrimary), 0.5) <= limit
	return s
}

// maxSteps bounds the step-up phase; each step gets an equal share of it.
const maxSteps = 10

// capacity searches for the highest rate meeting the limit, starting
// from the fixed-rate phase's outcome: it doubles the rate until a step
// fails, then climbs from the last passing rate in 10% steps until one
// fails, and interpolates at the crossing. A failing step is run once
// more before it counts, so one stray stall does not end the search.
// bounded is false when no step failed within steps.
func capacity(fixed stepOutcome, steps int, try func(rate float64) stepOutcome, limit time.Duration) (rate float64, bounded bool) {
	if !fixed.pass {
		// The nominal rate already misses the limit.
		return maxRate(stepOutcome{}, &fixed, limit), true
	}
	n := 0
	judge := func(rate float64) stepOutcome {
		n++
		out := try(rate)
		if !out.pass && n < steps {
			n++
			out = try(rate)
		}
		return out
	}
	lo := fixed
	var hi *stepOutcome
	for n < steps && hi == nil {
		if out := judge(lo.rate * 2); out.pass {
			lo = out
		} else {
			hi = &out
		}
	}
	if hi == nil {
		return lo.rate, false
	}
	for r := lo.rate * 1.1; n < steps && r < hi.rate; r *= 1.1 {
		out := judge(r)
		if !out.pass {
			hi = &out
			break
		}
		lo = out
	}
	return maxRate(lo, hi, limit), true
}

// maxRate interpolates the highest rate meeting the limit between the
// last passing rate and the first failing step, linearly in log latency,
// so the estimate moves smoothly rather than by whole steps.
func maxRate(lo stepOutcome, hi *stepOutcome, limit time.Duration) float64 {
	tlo := math.Max(ms(lo.tail), 1e-3)
	thi := math.Max(ms(hi.tail), ms(limit)*1.0001)
	if hi.t.failed > 0 || thi <= tlo {
		thi = math.Max(thi, 10*ms(limit))
	}
	frac := (math.Log(ms(limit)) - math.Log(tlo)) / (math.Log(thi) - math.Log(tlo))
	frac = math.Min(math.Max(frac, 0), 1)
	return lo.rate + frac*(hi.rate-lo.rate)
}

// sortedLate returns how late each operation started, sorted.
func sortedLate(res []result) []time.Duration {
	late := make([]time.Duration, len(res))
	for i, r := range res {
		late[i] = r.late
	}
	slices.Sort(late)
	return late
}
