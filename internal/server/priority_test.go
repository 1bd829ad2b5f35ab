package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/jobsched"
	"repro/internal/telemetry"
)

// TestRetryAfterHint pins the backpressure math: ceil((waiting+1) /
// timescale) wall seconds, clamped to [1, 30], with a non-positive
// timescale defaulting to 1.
func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		waiting   int
		timescale float64
		want      int
	}{
		{0, 1, 1},     // empty backlog: minimal hint
		{9, 1, 10},    // ten virtual seconds at wall speed
		{120, 60, 3},  // deep backlog drains fast at ×60
		{5, 0.1, 30},  // slow bridge: clamp at 30
		{1e6, 1, 30},  // huge backlog: clamp at 30
		{3, 0, 4},     // zero timescale defaults to 1
		{0, 100, 1},   // never below 1
		{99, 100, 1},  // exactly one wall second
		{100, 100, 2}, // ceil rounds up
	}
	for _, c := range cases {
		if got := retryAfterHint(c.waiting, c.timescale); got != c.want {
			t.Errorf("retryAfterHint(%d, %v) = %d, want %d",
				c.waiting, c.timescale, got, c.want)
		}
	}
}

// TestRetryAfterHeaderComputed: a 429 carries the computed hint, not a
// hardcoded constant. Timescale 60 with an empty backlog must hint 1.
func TestRetryAfterHeaderComputed(t *testing.T) {
	s := newServer(t, jobsched.Config{Bound: 2000}, Options{Timescale: 60})
	rec := httptest.NewRecorder()
	s.writeErr(rec, errQueueFull)
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1", got)
	}
	rec = httptest.NewRecorder()
	s.writeErr(rec, errBusy)
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("busy Retry-After = %q, want 1", got)
	}
}

// TestSubmitPriorityPassthrough: the priority field flows request →
// driver → status, and the labelled submit counters bucket it.
func TestSubmitPriorityPassthrough(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, _ := bridgeServer(t, jobsched.Config{Bound: 2000, Preempt: true},
		Options{Registry: reg})
	ctx := context.Background()
	js, err := submitOne(ctx, s, "hi", "comd", 5)
	if err != nil {
		t.Fatal(err)
	}
	if js.Priority != 5 {
		t.Fatalf("submit priority = %d, want 5", js.Priority)
	}
	res, err := s.submitBatch(ctx, []SubmitRequest{
		{ID: "lo", App: "comd", Priority: -2},
		{ID: "mid", App: "comd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status.Priority != -2 || res[1].Status.Priority != 0 {
		t.Fatalf("batch priorities = %d, %d; want -2, 0",
			res[0].Status.Priority, res[1].Status.Priority)
	}
	for band, want := range map[string]uint64{"high": 1, "low": 1, "normal": 1} {
		if got := s.mSubmitsPri[band].Value(); got != want {
			t.Errorf("submits[%s] = %d, want %d", band, got, want)
		}
	}
	// Status echoes the resolved priority back.
	st, err := s.status(ctx, "hi")
	if err != nil {
		t.Fatal(err)
	}
	if st.Priority != 5 {
		t.Fatalf("status priority = %d, want 5", st.Priority)
	}
}

// TestE2EPreemptionOverHTTP drives the full daemon surface: a cluster
// fully committed to a low-priority job, then a high-priority POST
// /v1/jobs. The response must show the job running immediately (started
// within the bound via preemption), and the victim must surface as
// re-queued with its eviction counted.
func TestE2EPreemptionOverHTTP(t *testing.T) {
	s := newServer(t, jobsched.Config{Bound: 1200, Policy: jobsched.AggressiveBackfill,
		Reallocate: true, Preempt: true}, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) JobJSON {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST status = %d, want 201", resp.StatusCode)
		}
		var jj JobJSON
		if err := json.NewDecoder(resp.Body).Decode(&jj); err != nil {
			t.Fatal(err)
		}
		return jj
	}
	low := post(`{"id":"low","app":"comd"}`)
	if low.State != "running" {
		t.Fatalf("low state = %q, want running", low.State)
	}
	hi := post(`{"id":"hi","app":"comd","priority":9}`)
	if hi.State != "running" || hi.Priority != 9 {
		t.Fatalf("hi state=%q priority=%d, want running/9 via preemption", hi.State, hi.Priority)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/low")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lowNow JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&lowNow); err != nil {
		t.Fatal(err)
	}
	if lowNow.State != "queued" || lowNow.Preempts != 1 {
		t.Fatalf("victim state=%q preemptions=%d, want queued/1", lowNow.State, lowNow.Preempts)
	}
	// The cluster must still respect the bound after the eviction.
	resp2, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var cs ClusterJSON
	if err := json.NewDecoder(resp2.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if cs.AllocW > cs.BoundW+1e-6 {
		t.Fatalf("allocated %.1f W exceeds bound %.1f W after preemption", cs.AllocW, cs.BoundW)
	}
}
