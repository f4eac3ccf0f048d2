package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyrec/client"
	"hyrec/hyrecbench/span"
	"hyrec/internal/core"
	"hyrec/internal/widget"
	"hyrec/internal/wire"
)

// session is the generator's side of one server: its connection pool,
// the typed client, the widget standing in for the browser, and the
// ledger of every rating the server acknowledged.
type session struct {
	w   *workload
	p   *plan
	t   target
	hc  *http.Client
	c   *client.Client
	wid *widget.Widget
	tr  *span.Log // nil when untraced
	ops atomic.Uint64

	polls atomic.Int64 // /stats reads

	mu       sync.Mutex
	acked    map[core.UserID][]ack
	problems []string

	worker     *client.WSWorker
	stopWorker func()
}

type ack struct {
	r  core.Rating
	at time.Time
}

// connBudget enforces the generator's connection budget: a dial beyond
// it fails the operation instead of opening another socket.
type connBudget struct {
	mu    sync.Mutex
	open  int
	limit int
}

type budgetConn struct {
	net.Conn
	b    *connBudget
	once sync.Once
}

func (c *budgetConn) Close() error {
	c.once.Do(func() {
		c.b.mu.Lock()
		c.b.open--
		c.b.mu.Unlock()
	})
	return c.Conn.Close()
}

func (b *connBudget) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	b.mu.Lock()
	if b.open >= b.limit {
		b.mu.Unlock()
		return nil, fmt.Errorf("connection budget of %d exhausted", b.limit)
	}
	b.open++
	b.mu.Unlock()
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		b.mu.Lock()
		b.open--
		b.mu.Unlock()
		return nil, err
	}
	return &budgetConn{Conn: c, b: b}, nil
}

func newSession(w *workload, p *plan, t target, tr *span.Log) *session {
	s := &session{w: w, p: p, t: t, tr: tr, wid: widget.New(), acked: make(map[core.UserID][]ack)}
	budget := &connBudget{limit: w.conns}
	var rt http.RoundTripper = &http.Transport{
		DialContext:         budget.dial,
		MaxConnsPerHost:     w.conns,
		MaxIdleConnsPerHost: w.conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true, // the client negotiates gzip itself
	}
	if tr != nil {
		rt = span.Transport{Base: rt}
	}
	s.hc = &http.Client{Transport: rt}
	s.c = client.New(t.URL(), client.WithHTTPClient(s.hc), client.WithTimeout(10*time.Second))
	return s
}

func (s *session) close() {
	if s.stopWorker != nil {
		s.stopWorker()
		s.stopWorker = nil
	}
	s.c.Close()
	s.hc.CloseIdleConnections()
}

func (s *session) problem(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.problems) < 20 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

func (s *session) ack(rs []core.Rating) {
	now := time.Now()
	s.mu.Lock()
	for _, r := range rs {
		s.acked[r.User] = append(s.acked[r.User], ack{r, now})
	}
	s.mu.Unlock()
}

// ratedBefore reports whether u had rated item by t, as acknowledged.
func (s *session) ratedBefore(u core.UserID, item core.ItemID, t time.Time) bool {
	if _, ok := s.p.pop.base[u][item]; ok {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.acked[u] {
		if a.r.Item == item && a.at.Before(t) {
			return true
		}
	}
	return false
}

// profile is u's profile as the generator sent it.
func (s *session) profile(u core.UserID) core.Profile {
	s.mu.Lock()
	extra := make([]core.Rating, len(s.acked[u]))
	for i, a := range s.acked[u] {
		extra[i] = a.r
	}
	s.mu.Unlock()
	return s.p.pop.profile(u, extra)
}

func (s *session) newOp(ctx context.Context) (context.Context, uint64) {
	if s.tr == nil {
		return ctx, 0
	}
	id := s.ops.Add(1)
	return span.WithOp(ctx, id), id
}

// do runs one scheduled operation.
func (s *session) do(ctx context.Context, o *op) error {
	ctx, id := s.newOp(ctx)
	switch o.kind {
	case opVisit:
		return s.visit(ctx, id, o)
	case opRate:
		start := time.Now()
		err := s.c.RateBatch(ctx, o.ratings)
		s.tr.Time(id, "client.rate", start, len(o.ratings))
		if err == nil {
			s.ack(o.ratings)
		}
		return err
	case opRecs:
		start := time.Now()
		_, err := s.c.Recommendations(ctx, o.user, 0)
		s.tr.Time(id, "client.read", start, 0)
		return err
	case opNeighbors:
		start := time.Now()
		_, err := s.c.Neighbors(ctx, o.user)
		s.tr.Time(id, "client.read", start, 0)
		return err
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// visit is the paper's synchronous cycle: optionally rate an item, fetch
// the personalization job, decode and execute it as the browser would,
// and post the result. The returned recommendations are checked.
func (s *session) visit(ctx context.Context, id uint64, o *op) error {
	if len(o.ratings) > 0 {
		start := time.Now()
		err := s.c.RateBatch(ctx, o.ratings)
		s.tr.Time(id, "client.rate", start, len(o.ratings))
		if err != nil {
			return err
		}
		s.ack(o.ratings)
	}
	jobStart := time.Now()
	raw, err := s.c.JobRaw(ctx, o.user)
	s.tr.Time(id, "client.job", jobStart, 0)
	if err != nil {
		return err
	}
	start := time.Now()
	job, err := wire.DecodeJob(raw)
	s.tr.Time(id, "wire.decode", start, len(raw))
	if err != nil {
		return err
	}
	res, timing := s.wid.Execute(job)
	if s.tr != nil {
		s.tr.Add(span.Span{Op: id, Name: "widget.knn", End: int64(timing.KNN), N: len(job.Candidates)})
		s.tr.Add(span.Span{Op: id, Name: "widget.recommend", End: int64(timing.Recommend)})
	}
	start = time.Now()
	recs, err := s.c.ApplyResult(ctx, res)
	s.tr.Time(id, "client.result", start, 0)
	if err != nil {
		return err
	}
	s.checkRecs(o.user, recs, job.R, jobStart)
	return nil
}

// checkRecs: at most r distinct, known items, none of which the user
// had rated when the job was fetched.
func (s *session) checkRecs(u core.UserID, recs []core.ItemID, r int, jobStart time.Time) {
	if len(recs) > r {
		s.problem("user %d got %d recommendations, more than r=%d", u, len(recs), r)
	}
	seen := make(map[core.ItemID]bool, len(recs))
	for _, it := range recs {
		switch {
		case int(it) >= s.p.pop.items:
			s.problem("user %d was recommended unknown item %d", u, it)
		case seen[it]:
			s.problem("user %d was recommended item %d twice", u, it)
		case s.ratedBefore(u, it, jobStart):
			s.problem("user %d was recommended item %d it had already rated", u, it)
		}
		seen[it] = true
	}
}

// seed loads the population in order, one maximal batch at a time. The
// order is fixed so two servers seeded alike hold identical state.
func (s *session) seed(ctx context.Context) error {
	rs := s.p.pop.ratings
	for len(rs) > 0 {
		n := min(len(rs), wire.MaxBatchRatings)
		if err := s.c.RateBatch(ctx, rs[:n]); err != nil {
			return fmt.Errorf("seed population: %w", err)
		}
		rs = rs[n:]
	}
	return nil
}

// warm runs closed-loop visits for the plan's warm-up users.
func (s *session) warm(ctx context.Context) error {
	var wg sync.WaitGroup
	var next atomic.Int64
	errs := make([]error, s.w.conns)
	for g := 0; g < s.w.conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.p.warm) {
					return
				}
				if err := s.visit(ctx, 0, &op{kind: opVisit, user: s.p.warm[i]}); err != nil {
					errs[g] = fmt.Errorf("warm-up visit: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stats reads /stats as numbers.
func (s *session) stats(ctx context.Context) (map[string]float64, error) {
	s.polls.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.t.URL()+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("read /stats: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read /stats: %w", err)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// statsCost is the server's socket bytes for one /stats read: the least
// of three reads on the idle server. A phase that polls /stats subtracts
// this much per poll from the bandwidth it reports.
func (s *session) statsCost(ctx context.Context) (int64, error) {
	best := int64(math.MaxInt64)
	for i := 0; i < 3; i++ {
		a, err := s.t.Usage()
		if err != nil {
			return 0, err
		}
		if _, err := s.stats(ctx); err != nil {
			return 0, err
		}
		b, err := s.t.Usage()
		if err != nil {
			return 0, err
		}
		best = min(best, b.ioBytes-a.ioBytes)
	}
	return best, nil
}

// backlog is the scheduler's outstanding refresh work.
func backlog(st map[string]float64) float64 {
	return st["sched_pending"] + st["sched_leased"] + st["sched_fallback_queued"]
}

// startWorker runs one closed-loop socket worker, as a browser tab
// would, until the session closes.
func (s *session) startWorker(seed int64) {
	s.worker = client.NewWSWorker(s.c, client.WithAbandonProb(s.w.abandon, seed))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.worker.Run(ctx); err != nil {
			s.problem("socket worker: %v", err)
		}
	}()
	s.stopWorker = func() {
		cancel()
		<-done
	}
}

// drain waits until the scheduler has no outstanding work.
func (s *session) drain(ctx context.Context, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		st, err := s.stats(ctx)
		if err != nil {
			return err
		}
		if backlog(st) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("scheduler backlog still %.0f after %s", backlog(st), within)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// sampler polls /stats while a phase runs, for the time-averaged
// scheduler backlog.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	sum     float64
	n       int
	lastErr error
}

func (s *session) sampleBacklog(every time.Duration) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-t.C:
				st, err := s.stats(context.Background())
				if err != nil {
					sm.lastErr = err
					continue
				}
				sm.sum += backlog(st)
				sm.n++
			}
		}
	}()
	return sm
}

func (sm *sampler) finish() (mean float64, err error) {
	close(sm.stop)
	<-sm.done
	if sm.n == 0 {
		return 0, fmt.Errorf("no /stats sample during the phase: %v", sm.lastErr)
	}
	return sm.sum / float64(sm.n), sm.lastErr
}

// knnQuality is the mean view similarity of the served neighbourhoods
// over that of the ideal KNN, both scored with cosine on the ratings the
// generator sent, for the given users.
func (s *session) knnQuality(ctx context.Context, users []core.UserID, k int) (float64, error) {
	served := make([][]core.UserID, len(users))
	var wg sync.WaitGroup
	var next atomic.Int64
	var firstErr error
	var errMu sync.Mutex
	for g := 0; g < s.w.conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(users) {
					return
				}
				hood, err := s.c.Neighbors(ctx, users[i])
				if err != nil {
					errMu.Lock()
					firstErr = err
					errMu.Unlock()
					return
				}
				served[i] = hood
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, fmt.Errorf("fetch neighbours: %w", firstErr)
	}
	all := make([]core.Profile, len(s.p.pop.users))
	index := make(map[core.UserID]int, len(all))
	for i, u := range s.p.pop.users {
		all[i] = s.profile(u)
		index[u] = i
	}
	var sim core.Cosine
	var got, ideal float64
	scores := make([]float64, 0, len(all))
	for i, u := range users {
		own := all[index[u]]
		for _, v := range served[i] {
			if j, ok := index[v]; ok && v != u {
				got += sim.Score(own, all[j])
			}
		}
		scores = scores[:0]
		for j, p := range all {
			if s.p.pop.users[j] != u {
				scores = append(scores, sim.Score(own, p))
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		for _, v := range scores[:min(k, len(scores))] {
			ideal += v
		}
	}
	if ideal == 0 {
		return 0, fmt.Errorf("ideal KNN has zero similarity over %d users", len(users))
	}
	return got / ideal, nil
}

// checkIngest fetches a job for each sampled user and compares the
// profile it carries with every rating the server acknowledged for that user.
// Item IDs in a job are pseudonyms, so the comparison is by liked and
// disliked counts.
func (s *session) checkIngest(ctx context.Context, users []core.UserID) error {
	for _, u := range users {
		job, err := s.c.Job(ctx, u)
		if err != nil {
			return fmt.Errorf("fetch job for check: %w", err)
		}
		want := s.profile(u)
		if len(job.Profile.Liked) != want.NumLiked() || len(job.Profile.Disliked) != len(want.Disliked()) {
			s.problem("user %d: job profile holds %d liked + %d disliked items, the server acknowledged %d + %d",
				u, len(job.Profile.Liked), len(job.Profile.Disliked), want.NumLiked(), len(want.Disliked()))
		}
	}
	return nil
}
