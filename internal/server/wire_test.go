package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobsched"
)

// wireGolden holds the recorded transcript TestWireGolden compares
// against. Delete it and rerun the test to record a new one.
var wireGolden = filepath.Join("testdata", "wire.golden")

// TestWireGolden pins the daemon's wire format: status code,
// Content-Type, Retry-After and body of every route, driven through
// Handler on the fake-clock bridge so the transcript is deterministic.
// The session holds running, queued, cancelled, high-priority and
// preempted jobs, and ids that exercise JSON's HTML and U+2028 escapes.
func TestWireGolden(t *testing.T) {
	s, fc := bridgeServer(t, jobsched.Config{Bound: 1200, Policy: jobsched.AggressiveBackfill,
		Reallocate: true, Preempt: true}, Options{QueueDepth: 1, RequestTimeout: 500 * time.Millisecond})
	h := s.Handler()
	var tr strings.Builder
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	record := func(method, path string, rec *httptest.ResponseRecorder) {
		fmt.Fprintf(&tr, "== %s %s\n%d %s retry-after=%q\n%s", method, path, rec.Code,
			rec.Header().Get("Content-Type"), rec.Header().Get("Retry-After"), rec.Body.String())
	}
	do := func(method, path, body string) { record(method, path, serve(method, path, body)) }
	job := func(id string) string { return "/v1/jobs/" + url.PathEscape(id) }

	do("GET", "/v1/cluster", "")
	do("GET", "/v1/jobs", "")
	fc.Advance(3 * time.Second)
	do("POST", "/v1/jobs", `{"id":"low<1>","app":"comd"}`)
	fc.Advance(2 * time.Second)
	do("POST", "/v1/jobs", `{"id":"hi&2","app":"comd","priority":9}`)
	do("POST", "/v1/jobs", `{"app":"amg"}`)
	fc.Advance(time.Second)
	do("POST", "/v1/jobs:batch", `{"jobs":[{"id":"q\u2028x","app":"comd"},{"id":"hi&2","app":"comd"},`+
		`{"app":"bogus"},{"id":"lo","app":"sp-mz.C","priority":-1},{"app":"ep"}]}`)
	do("DELETE", job("q\u2028x"), "")
	do("DELETE", job("q\u2028x"), "")
	do("GET", job("low<1>"), "")
	do("GET", job("hi&2"), "")
	do("GET", job("ghost"), "")
	do("DELETE", job("ghost"), "")
	do("POST", "/v1/jobs", `{`)
	do("POST", "/v1/jobs", `{"app":"bogus"}`)
	do("POST", "/v1/jobs", `{"id":"low<1>","app":"comd"}`)
	do("POST", "/v1/jobs:batch", `{"jobs":[]}`)
	fc.Advance(40 * time.Second)
	do("GET", "/v1/jobs", "")
	do("GET", "/v1/cluster", "")

	// Backpressure: with the driver lock held, one submission takes the
	// only admission slot and waits; the next is refused with 429, and
	// the waiter then times out against the lock with 503.
	s.lock <- struct{}{}
	waiter := make(chan *httptest.ResponseRecorder)
	go func() { waiter <- serve("POST", "/v1/jobs", `{"id":"w","app":"comd"}`) }()
	deadline := time.Now().Add(5 * time.Second)
	for s.gWaiting.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	do("POST", "/v1/jobs", `{"id":"over","app":"comd"}`)
	record("POST", "/v1/jobs", <-waiter)
	s.release()

	if _, err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	do("GET", "/v1/cluster", "")
	do("GET", "/v1/jobs", "")
	do("POST", "/v1/jobs", `{"app":"comd"}`)
	do("POST", "/v1/jobs:batch", `{"jobs":[{"app":"comd"}]}`)

	got := tr.String()
	want, err := os.ReadFile(wireGolden)
	if os.IsNotExist(err) {
		if err := os.WriteFile(wireGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; rerun to compare", wireGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("wire transcript diverges at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}
