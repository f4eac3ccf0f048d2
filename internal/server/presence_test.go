package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hyrec/internal/core"
)

func TestPresenceOnlineWindow(t *testing.T) {
	p := newPresence()
	clock := time.Unix(1000, 0)
	p.now = func() time.Time { return clock }

	p.Touch(1)
	p.Touch(2)
	clock = clock.Add(2 * time.Minute)
	p.Touch(3)

	if got := p.Online(5 * time.Minute); got != 3 {
		t.Fatalf("online = %d, want 3", got)
	}
	// 1 and 2 age out of a 1-minute window.
	if got := p.Online(time.Minute); got != 1 {
		t.Fatalf("online(1m) = %d, want 1", got)
	}
}

func TestPresencePrunesAncientEntries(t *testing.T) {
	p := newPresence()
	clock := time.Unix(1000, 0)
	p.now = func() time.Time { return clock }

	p.Touch(1)
	clock = clock.Add(100 * time.Minute) // > 10× a 5-minute window
	p.Touch(2)
	if got := p.Online(5 * time.Minute); got != 1 {
		t.Fatalf("online = %d, want 1", got)
	}
	if !p.LastSeen(1).IsZero() {
		t.Fatal("ancient entry not pruned")
	}
	if p.LastSeen(2).IsZero() {
		t.Fatal("fresh entry lost")
	}
}

func TestPresenceLastSeen(t *testing.T) {
	p := newPresence()
	if !p.LastSeen(9).IsZero() {
		t.Fatal("unseen user has a timestamp")
	}
	p.Touch(9)
	if p.LastSeen(9).IsZero() {
		t.Fatal("touched user has no timestamp")
	}
}

func TestStatsReportsOnlineUsers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAnonymizer = true
	e := NewEngine(cfg)
	for u := core.UserID(1); u <= 5; u++ {
		e.Rate(tctx, u, 1, true)
	}
	s := NewServer(e, 0)
	h := s.Handler()

	// Two users show up; stats must count them online.
	for _, uid := range []string{"1", "2"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/online?uid="+uid, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/online?uid=%s: %d", uid, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["online_users"] != 2 {
		t.Fatalf("online_users = %d, want 2 (stats: %v)", stats["online_users"], stats)
	}
	if stats["users"] != 5 {
		t.Fatalf("users = %d, want 5", stats["users"])
	}
}

func TestPresenceConcurrent(t *testing.T) {
	p := newPresence()
	done := make(chan struct{})
	for g := 0; g < 6; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 300; i++ {
				p.Touch(core.UserID(i % 50))
				p.Online(time.Minute)
			}
		}(g)
	}
	for g := 0; g < 6; g++ {
		<-done
	}
}
