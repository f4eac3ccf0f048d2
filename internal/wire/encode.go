package wire

import (
	"strconv"
	"sync"

	"hyrec/internal/core"
)

// AppendProfileMsg appends the JSON encoding of m to dst and returns the
// extended slice. The output is byte-identical to encoding/json's Marshal
// of ProfileMsg, so jobs assembled from cached fragments remain parseable
// by any JSON decoder.
func AppendProfileMsg(dst []byte, m ProfileMsg) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, uint64(m.ID), 10)
	dst = append(dst, `,"liked":`...)
	dst = appendUintArray(dst, m.Liked)
	if len(m.Disliked) > 0 {
		dst = append(dst, `,"disliked":`...)
		dst = appendUintArray(dst, m.Disliked)
	}
	return append(dst, '}')
}

// AppendJob appends the JSON encoding of j to dst, using enc to encode each
// candidate profile (enc may serve cached fragments). It produces the same
// bytes as EncodeJob.
func AppendJob(dst []byte, j *Job, enc func(dst []byte, m ProfileMsg) []byte) []byte {
	if enc == nil {
		enc = AppendProfileMsg
	}
	dst = append(dst, `{"uid":`...)
	dst = strconv.AppendUint(dst, uint64(j.UID), 10)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, j.Epoch, 10)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, int64(j.K), 10)
	dst = append(dst, `,"r":`...)
	dst = strconv.AppendInt(dst, int64(j.R), 10)
	dst = AppendLeaseMeta(dst, j)
	dst = append(dst, `,"profile":`...)
	dst = enc(dst, j.Profile)
	dst = append(dst, `,"candidates":`...)
	if j.Candidates == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range j.Candidates {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = enc(dst, c)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// AppendResult appends the JSON encoding of r to dst, byte-identical to
// encoding/json's Marshal of Result — including the omitempty behaviour
// of the lease field — so pooled-buffer result encoding on the widget and
// client side stays interoperable with any JSON decoder.
// TestResultEncoderEquivalence pins the equivalence.
func AppendResult(dst []byte, r *Result) []byte {
	dst = append(dst, `{"uid":`...)
	dst = strconv.AppendUint(dst, uint64(r.UID), 10)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, r.Epoch, 10)
	if r.Lease != 0 {
		dst = append(dst, `,"lease":`...)
		dst = strconv.AppendUint(dst, r.Lease, 10)
	}
	dst = append(dst, `,"neighbors":`...)
	dst = appendUintArray(dst, r.Neighbors)
	dst = append(dst, `,"recs":`...)
	dst = appendUintArray(dst, r.Recommendations)
	return append(dst, '}')
}

// AppendLeaseMeta appends the job's lease metadata fields (between "r"
// and "profile"), matching encoding/json's omitempty behaviour so the
// scheduler-free format stays byte-identical to the legacy one. It is
// the single source of truth for this fragment: both AppendJob and the
// engine's cached assembly call it, so the two encoders cannot drift.
func AppendLeaseMeta(dst []byte, j *Job) []byte {
	if j.Lease != 0 {
		dst = append(dst, `,"lease":`...)
		dst = strconv.AppendUint(dst, j.Lease, 10)
	}
	if j.LeaseDeadlineMS != 0 {
		dst = append(dst, `,"deadline_ms":`...)
		dst = strconv.AppendInt(dst, j.LeaseDeadlineMS, 10)
	}
	if j.Attempt != 0 {
		dst = append(dst, `,"attempt":`...)
		dst = strconv.AppendInt(dst, int64(j.Attempt), 10)
	}
	return dst
}

func appendUintArray(dst []byte, xs []uint32) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(x), 10)
	}
	return append(dst, ']')
}

// ProfileCache memoises the JSON fragment of each user's profile, keyed by
// (profile version, anonymiser epoch). The orchestrator assembles
// personalization jobs by concatenating cached fragments, turning per-request
// serialization into memcpy — the "serialized-profile cache" design decision
// benchmarked by BenchmarkAblationProfileCache. Safe for concurrent use.
type ProfileCache struct {
	mu    sync.RWMutex
	epoch uint64
	m     map[core.UserID]cachedFragment
}

type cachedFragment struct {
	version uint64
	data    []byte
	// gz is data's deflate form (self-contained, sync-flushed fragment;
	// see gzipsplice.go), built on the first FragmentGz call and reused
	// until the fragment is invalidated. gzLevel records the level it was
	// compressed at.
	gz      []byte
	gzLevel GzipLevel
}

// NewProfileCache returns an empty cache.
func NewProfileCache() *ProfileCache {
	return &ProfileCache{m: make(map[core.UserID]cachedFragment)}
}

// Fragment returns the JSON fragment for profile p under anon's epoch,
// computing and caching it on miss. The returned slice must not be
// modified. Pass a core.AliasView so the fragment's epoch matches the
// job it is spliced into.
func (c *ProfileCache) Fragment(p core.Profile, anon core.Aliaser) []byte {
	epoch := uint64(0)
	if anon != nil {
		epoch = anon.Epoch()
	}
	c.mu.RLock()
	if c.epoch == epoch {
		if f, ok := c.m[p.User()]; ok && f.version == p.Version() {
			c.mu.RUnlock()
			return f.data
		}
	}
	c.mu.RUnlock()

	data := AppendProfileMsg(nil, ProfileToMsg(p, anon))

	c.mu.Lock()
	if c.epoch != epoch {
		// The anonymiser rotated: every cached pseudonym is stale.
		c.m = make(map[core.UserID]cachedFragment, len(c.m))
		c.epoch = epoch
	}
	c.m[p.User()] = cachedFragment{version: p.Version(), data: data}
	c.mu.Unlock()
	return data
}

// FragmentGz returns both the JSON fragment for profile p and its cached
// deflate form at the given level, for spliced gzip assembly
// (gzipsplice.go). Semantics match Fragment; the deflate leg is built on
// first use and memoised alongside the JSON. Both returned slices must
// not be modified.
func (c *ProfileCache) FragmentGz(p core.Profile, anon core.Aliaser, level GzipLevel) (data, gz []byte, err error) {
	epoch := uint64(0)
	if anon != nil {
		epoch = anon.Epoch()
	}
	c.mu.RLock()
	if c.epoch == epoch {
		if f, ok := c.m[p.User()]; ok && f.version == p.Version() && f.gz != nil && f.gzLevel == level {
			c.mu.RUnlock()
			return f.data, f.gz, nil
		}
	}
	c.mu.RUnlock()

	// Miss (or JSON-only hit): rebuild both legs outside the lock. The
	// JSON is re-encoded rather than fetched back under RLock — cheaper
	// than a second lock round-trip and identical bytes either way.
	data = AppendProfileMsg(nil, ProfileToMsg(p, anon))
	gz, err = AppendDeflateFragment(make([]byte, 0, len(data)/2+16), data, level)
	if err != nil {
		return nil, nil, err
	}

	c.mu.Lock()
	if c.epoch != epoch {
		c.m = make(map[core.UserID]cachedFragment, len(c.m))
		c.epoch = epoch
	}
	c.m[p.User()] = cachedFragment{version: p.Version(), data: data, gz: gz, gzLevel: level}
	c.mu.Unlock()
	return data, gz, nil
}

// Len returns the number of cached fragments (for tests and stats).
func (c *ProfileCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
