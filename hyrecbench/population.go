package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"hyrec/internal/core"
	"hyrec/internal/dataset"
)

// opKind is what one scheduled operation does.
type opKind uint8

const (
	opVisit     opKind = iota // rate (sometimes), job, decode, execute, result
	opRate                    // POST /v1/rate
	opRecs                    // GET /v1/recs
	opNeighbors               // GET /v1/neighbors
)

func (k opKind) primary() bool { return k == opVisit || k == opRate }

// op is one scheduled operation of an open-loop phase.
type op struct {
	due     time.Duration // offset from the phase start
	kind    opKind
	user    core.UserID
	ratings []core.Rating // the visit's pre-rating, or the rate batch
}

// population is a seeded user base: the ratings that seed the server,
// and every user's items, which the schedule extends with new ones.
type population struct {
	name    string
	users   []core.UserID
	items   int
	ratings []core.Rating
	base    map[core.UserID]map[core.ItemID]bool // seeded items → liked
	byUser  map[core.UserID][]int32              // indices into ratings
	byItem  [][]int32
}

// makePopulation generates cfg's trace and binarises it. The population
// is the calibrated dataset itself, under the dataset's own seed, as the
// paper replays fixed traces; the workload seed draws what happens to
// it. User IDs are shifted by one so none is zero.
func makePopulation(cfg dataset.GenConfig) (*population, error) {
	tr, err := dataset.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", cfg.Name, err)
	}
	p := &population{
		name: cfg.Name, items: tr.Items,
		base:   make(map[core.UserID]map[core.ItemID]bool, tr.Users),
		byUser: make(map[core.UserID][]int32, tr.Users),
		byItem: make([][]int32, tr.Items),
	}
	for i, ev := range dataset.Binarize(tr) {
		r := ev.Rating()
		r.User++
		p.ratings = append(p.ratings, r)
		p.byUser[r.User] = append(p.byUser[r.User], int32(i))
		p.byItem[r.Item] = append(p.byItem[r.Item], int32(i))
		m := p.base[r.User]
		if m == nil {
			m = make(map[core.ItemID]bool)
			p.base[r.User] = m
			p.users = append(p.users, r.User)
		}
		m[r.Item] = r.Liked
	}
	return p, nil
}

// profile returns u's seeded profile plus extra ratings.
func (p *population) profile(u core.UserID, extra []core.Rating) core.Profile {
	rs := make([]core.Rating, 0, len(p.base[u])+len(extra))
	for it, liked := range p.base[u] {
		rs = append(rs, core.Rating{User: u, Item: it, Liked: liked})
	}
	return core.ProfileFromRatings(u, append(rs, extra...))
}

// mix is the traffic of an open-loop phase: a total arrival rate split
// across operation kinds by weight.
type mix struct {
	rate      float64 // primary operations per second
	readsPer  float64 // reads per primary operation
	batch     int     // ratings per rate batch (opRate)
	rateFirst float64 // share of visits that rate an item first (opVisit)
	zipfUsers bool    // skew users by Zipf popularity
	primary   opKind
}

// scheduler draws schedules deterministically from one seeded stream and
// keeps every user's item set, so no generated rating repeats an item.
type scheduler struct {
	rng   *rand.Rand
	pop   *population
	zipf  *rand.Zipf
	added map[core.UserID]map[core.ItemID]bool
	decks [2][]core.UserID // unused users of the current pass: ops, reads
}

func newScheduler(pop *population, seed int64) *scheduler {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	return &scheduler{
		rng:   rng,
		pop:   pop,
		zipf:  rand.NewZipf(rng, 1.2, 1, uint64(len(pop.users)-1)),
		added: make(map[core.UserID]map[core.ItemID]bool),
	}
}

// user draws the next user from deck d. Uniform draws deal every user
// once per pass, in a fresh seeded order each pass, so every seed loads
// the same mix of heavy and light profiles and seeds differ only in
// order; Zipf draws are independent.
func (s *scheduler) user(d int, zipf bool) core.UserID {
	if zipf {
		return s.pop.users[s.zipf.Uint64()]
	}
	if len(s.decks[d]) == 0 {
		s.decks[d] = append(s.decks[d], s.pop.users...)
		s.rng.Shuffle(len(s.decks[d]), func(i, j int) {
			s.decks[d][i], s.decks[d][j] = s.decks[d][j], s.decks[d][i]
		})
	}
	u := s.decks[d][len(s.decks[d])-1]
	s.decks[d] = s.decks[d][:len(s.decks[d])-1]
	return u
}

// walkTries bounds the co-rating walks newRating makes for one rating.
const walkTries = 32

// newRating draws an item u has not rated yet by a co-rating walk over
// the seeded trace: from one of u's own ratings to another user who
// rated that item, and on to one of that user's ratings, whose item and
// opinion it takes. The generated stream so keeps the trace's item
// popularity, its communities and its liked share (Digg votes are all
// liked). When the walks keep landing on rated items, it takes the next
// unrated item after a popularity draw instead; false when u has rated
// every item.
func (s *scheduler) newRating(u core.UserID) (core.Rating, bool) {
	m := s.added[u]
	if m == nil {
		m = make(map[core.ItemID]bool)
		s.added[u] = m
	}
	rated := func(it core.ItemID) bool {
		_, seeded := s.pop.base[u][it]
		_, added := m[it]
		return seeded || added
	}
	pick := func(idx []int32) core.Rating { return s.pop.ratings[idx[s.rng.Intn(len(idx))]] }
	own := s.pop.byUser[u]
	for n := 0; n < walkTries; n++ {
		peer := pick(s.pop.byItem[pick(own).Item]).User
		if r := pick(s.pop.byUser[peer]); !rated(r.Item) {
			m[r.Item] = r.Liked
			return core.Rating{User: u, Item: r.Item, Liked: r.Liked}, true
		}
	}
	r := s.pop.ratings[s.rng.Intn(len(s.pop.ratings))]
	for n := 0; rated(r.Item); n++ {
		if n == s.pop.items {
			return core.Rating{}, false
		}
		r.Item = (r.Item + 1) % core.ItemID(s.pop.items)
	}
	m[r.Item] = r.Liked
	return core.Rating{User: u, Item: r.Item, Liked: r.Liked}, true
}

// phase draws a Poisson schedule of mx for d.
func (s *scheduler) phase(mx mix, d time.Duration) []op {
	total := mx.rate * (1 + mx.readsPer)
	var ops []op
	t := 0.0
	for {
		t += s.rng.ExpFloat64() / total
		if t >= d.Seconds() {
			return ops
		}
		o := op{due: time.Duration(t * float64(time.Second))}
		if s.rng.Float64()*(1+mx.readsPer) >= 1 {
			o.kind = opRecs
			if s.rng.Intn(2) == 0 {
				o.kind = opNeighbors
			}
			o.user = s.user(1, false)
			ops = append(ops, o)
			continue
		}
		o.kind = mx.primary
		switch mx.primary {
		case opVisit:
			o.user = s.user(0, mx.zipfUsers)
			if s.rng.Float64() < mx.rateFirst {
				if r, ok := s.newRating(o.user); ok {
					o.ratings = []core.Rating{r}
				}
			}
		case opRate:
			for len(o.ratings) < mx.batch {
				if r, ok := s.newRating(s.user(0, mx.zipfUsers)); ok {
					o.ratings = append(o.ratings, r)
				}
			}
			o.user = o.ratings[0].User
		}
		ops = append(ops, o)
	}
}

// sample draws n distinct users.
func (s *scheduler) sample(n int) []core.UserID {
	if n > len(s.pop.users) {
		n = len(s.pop.users)
	}
	out := make([]core.UserID, n)
	for i, j := range s.rng.Perm(len(s.pop.users))[:n] {
		out[i] = s.pop.users[j]
	}
	return out
}

// digestOps is how much of the fixed-rate schedule the digest covers: a
// prefix, so the digest does not depend on --seconds.
const digestOps = 1000

// digest fingerprints the generated inputs: the seeding ratings and the
// start of the fixed-rate schedule. For the default seed it is pinned,
// so a change to the dataset generator or to the schedule cannot pass
// unnoticed.
func digest(pop *population, ops []op) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putRating := func(r core.Rating) {
		liked := uint64(0)
		if r.Liked {
			liked = 1
		}
		put(uint64(r.User)<<33 | uint64(r.Item)<<1 | liked)
	}
	for _, r := range pop.ratings {
		putRating(r)
	}
	for _, o := range ops {
		put(uint64(o.due))
		put(uint64(o.kind)<<32 | uint64(o.user))
		for _, r := range o.ratings {
			putRating(r)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
