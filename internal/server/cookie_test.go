package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"hyrec/internal/core"
)

// First contact without identification: /online mints an ID, sets the
// cookie, and serves a job; follow-up requests with the cookie hit the
// same user.
func TestCookieIdentificationFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAnonymizer = true
	e := NewEngine(cfg)
	// Pre-register a small community so jobs have candidates.
	for u := core.UserID(1); u <= 5; u++ {
		e.Rate(tctx, u, 1, true)
	}
	s := NewServer(e, 0)
	h := s.Handler()

	// 1. Anonymous first visit mints a cookie.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/online", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("anonymous /online: %d %s", rec.Code, rec.Body.String())
	}
	cookies := rec.Result().Cookies()
	var uidCk *http.Cookie
	for _, c := range cookies {
		if c.Name == UIDCookieName {
			uidCk = c
		}
	}
	if uidCk == nil {
		t.Fatalf("no %s cookie set; got %v", UIDCookieName, cookies)
	}
	minted64, err := strconv.ParseUint(uidCk.Value, 10, 32)
	if err != nil {
		t.Fatalf("cookie value %q: %v", uidCk.Value, err)
	}
	minted := core.UserID(minted64)
	if !e.Profiles().Known(minted) {
		t.Fatal("minted user not registered")
	}

	// 2. Rating with the cookie lands on the minted user's profile.
	req := httptest.NewRequest(http.MethodPost, "/rate?item=42&liked=true", nil)
	req.AddCookie(uidCk)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("cookie /rate: %d %s", rec.Code, rec.Body.String())
	}
	if !e.Profiles().Get(minted).LikedContains(42) {
		t.Fatal("cookie rating did not reach the minted user's profile")
	}

	// 3. A second anonymous visit mints a different user.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/online", nil))
	var second *http.Cookie
	for _, c := range rec.Result().Cookies() {
		if c.Name == UIDCookieName {
			second = c
		}
	}
	if second == nil || second.Value == uidCk.Value {
		t.Fatalf("second anonymous visit reused identity: %v", second)
	}
}

func TestCookieRepeatVisitDoesNotRemint(t *testing.T) {
	e := NewEngine(DefaultConfig())
	s := NewServer(e, 0)
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/online", nil))
	var ck *http.Cookie
	for _, c := range rec.Result().Cookies() {
		if c.Name == UIDCookieName {
			ck = c
		}
	}
	if ck == nil {
		t.Fatal("no cookie minted")
	}

	req := httptest.NewRequest(http.MethodGet, "/online", nil)
	req.AddCookie(ck)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat visit: %d", rec.Code)
	}
	for _, c := range rec.Result().Cookies() {
		if c.Name == UIDCookieName {
			t.Fatalf("repeat visit re-minted the cookie: %v", c)
		}
	}
}

func TestExplicitUIDBeatsCookie(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAnonymizer = true
	e := NewEngine(cfg)
	s := NewServer(e, 0)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodPost, "/rate?uid=77&item=9", nil)
	req.AddCookie(&http.Cookie{Name: UIDCookieName, Value: "88"})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("/rate: %d", rec.Code)
	}
	if !e.Profiles().Get(77).LikedContains(9) {
		t.Fatal("explicit uid ignored")
	}
	if e.Profiles().Known(88) {
		t.Fatal("cookie user updated despite explicit uid")
	}
}

func TestMalformedCookieRejected(t *testing.T) {
	e := NewEngine(DefaultConfig())
	s := NewServer(e, 0)
	h := s.Handler()

	req := httptest.NewRequest(http.MethodPost, "/rate?item=1", nil)
	req.AddCookie(&http.Cookie{Name: UIDCookieName, Value: "not-a-number"})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed cookie: %d, want 400", rec.Code)
	}
}

func TestRateWithoutIdentityRejected(t *testing.T) {
	e := NewEngine(DefaultConfig())
	s := NewServer(e, 0)
	h := s.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rate?item=1", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unidentified /rate: %d, want 400", rec.Code)
	}
}

func TestMintUserUnique(t *testing.T) {
	e := NewEngine(DefaultConfig())
	s := NewServer(e, 0)
	seen := make(map[core.UserID]bool)
	for i := 0; i < 1000; i++ {
		id, err := s.mintUser()
		if err != nil {
			t.Fatal(err)
		}
		if id == 0 {
			t.Fatal("minted reserved ID 0")
		}
		if seen[id] {
			t.Fatalf("duplicate minted ID %v", id)
		}
		seen[id] = true
	}
}
