package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/jobsched"
	"repro/internal/telemetry"
)

// Shared CLIP so the regression trains once per test binary.
var (
	testCl   = hw.NewCluster(8, hw.HaswellSpec(), 0, 1)
	testCLIP *core.CLIP
	clipOnce sync.Once
)

func newServer(t *testing.T, cfg jobsched.Config, opts Options) *Server {
	t.Helper()
	clipOnce.Do(func() {
		c, err := core.New(testCl)
		if err != nil {
			t.Fatal(err)
		}
		testCLIP = c
	})
	sched, err := jobsched.New(testCl, testCLIP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	s, err := New(sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fakeClock is a settable wall clock for bridge tests: no pump, no real
// sleeping — the test turns the hands and asks the bridge to sync.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// bridgeServer wires a server to a fake clock without starting HTTP or
// the pump.
func bridgeServer(t *testing.T, cfg jobsched.Config, opts Options) (*Server, *fakeClock) {
	t.Helper()
	s := newServer(t, cfg, opts)
	fc := &fakeClock{now: time.Unix(1_000_000, 0)}
	s.clock = fc.Now
	s.epoch = fc.Now()
	return s, fc
}

// submitOne admits one job the way POST /v1/jobs does: as a batch of
// one, whose whole-batch or entry error is the submission's error.
func submitOne(ctx context.Context, s *Server, id, app string, pri int) (jobsched.JobStatus, error) {
	res, err := s.submitBatch(ctx, []SubmitRequest{{ID: id, App: app, Priority: pri}})
	if err != nil {
		return jobsched.JobStatus{}, err
	}
	return res[0].Status, res[0].Err
}

func TestBridgeMapsWallToVirtual(t *testing.T) {
	s, fc := bridgeServer(t, jobsched.Config{Bound: 2000}, Options{})
	ctx := context.Background()
	// No wall time elapsed: virtual clock stays at zero.
	cs, err := s.cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Now != 0 {
		t.Fatalf("virtual now = %v at epoch, want 0", cs.Now)
	}
	// 90 wall seconds at timescale 1 → virtual 90.
	fc.Advance(90 * time.Second)
	cs, err = s.cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cs.Now-90) > 1e-9 {
		t.Fatalf("virtual now = %v after 90s wall, want 90", cs.Now)
	}
}

func TestBridgeTimescale(t *testing.T) {
	s, fc := bridgeServer(t, jobsched.Config{Bound: 2000}, Options{Timescale: 60})
	ctx := context.Background()
	fc.Advance(2 * time.Second)
	cs, err := s.cluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cs.Now-120) > 1e-9 {
		t.Fatalf("virtual now = %v after 2s wall at ×60, want 120", cs.Now)
	}
}

func TestBridgeSubmitLifecycle(t *testing.T) {
	s, fc := bridgeServer(t, jobsched.Config{Bound: 2000}, Options{})
	ctx := context.Background()
	fc.Advance(5 * time.Second)
	js, err := submitOne(ctx, s, "j1", "comd", 0)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != jobsched.JobRunning {
		t.Fatalf("state = %v, want running", js.State)
	}
	if math.Abs(js.Arrival-5) > 1e-9 {
		t.Errorf("arrival = %v, want virtual 5", js.Arrival)
	}
	// Turn the clock to just before the estimated finish: still running.
	pre := time.Duration((js.EstFinish-5)*0.9*float64(time.Second)) - time.Millisecond
	fc.Advance(pre)
	got, err := s.status(ctx, "j1")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != jobsched.JobRunning {
		t.Fatalf("state before est finish = %v, want running", got.State)
	}
	// Past the finish: the bridge fires the completion on catch-up.
	fc.Advance(time.Duration((js.EstFinish) * float64(time.Second)))
	got, err = s.status(ctx, "j1")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != jobsched.JobCompleted {
		t.Fatalf("state after est finish = %v, want completed", got.State)
	}
	if math.Abs(got.Finish-js.EstFinish) > 1e-6 {
		t.Errorf("finish %v, want the scheduled %v (event fired at its virtual time, not at poll time)",
			got.Finish, js.EstFinish)
	}
}

func TestBridgeAutoIDAndUnknownApp(t *testing.T) {
	s, _ := bridgeServer(t, jobsched.Config{Bound: 2000}, Options{})
	ctx := context.Background()
	js, err := submitOne(ctx, s, "", "comd", 0)
	if err != nil {
		t.Fatal(err)
	}
	if js.ID != "job-1" {
		t.Errorf("auto id = %q, want job-1", js.ID)
	}
	if _, err := submitOne(ctx, s, "", "no-such-app", 0); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestBridgeDrainWithoutStart(t *testing.T) {
	s, _ := bridgeServer(t, jobsched.Config{Bound: 320}, Options{})
	ctx := context.Background()
	if _, err := submitOne(ctx, s, "a", "comd", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := submitOne(ctx, s, "b", "comd", 0); err != nil {
		t.Fatal(err)
	}
	final, err := s.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 2 {
		t.Fatalf("drain reported %d jobs, want 2", len(final))
	}
	for _, js := range final {
		if js.State != jobsched.JobCompleted {
			t.Errorf("job %s after drain: %v, want completed", js.ID, js.State)
		}
	}
	if _, err := submitOne(ctx, s, "c", "comd", 0); err == nil {
		t.Error("submit accepted while draining")
	}
	// Drain is idempotent.
	if _, err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionControlQueueFullAndDeadline(t *testing.T) {
	s, _ := bridgeServer(t, jobsched.Config{Bound: 2000},
		Options{QueueDepth: 1, RequestTimeout: 50 * time.Millisecond})
	// Hold the driver lock so submissions pile up at admission.
	s.lock <- struct{}{}
	errs := make(chan error, 2)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
		defer cancel()
		_, err := submitOne(ctx, s, "w1", "comd", 0)
		errs <- err
	}()
	// Give the first submission time to occupy the single slot.
	deadline := time.Now().Add(time.Second)
	for len(s.slots) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
	defer cancel()
	_, err := submitOne(ctx, s, "w2", "comd", 0)
	if !errors.Is(err, errQueueFull) {
		t.Errorf("second submit err = %v, want queue-full", err)
	}
	// The waiter times out against the held lock (503 territory).
	if err := <-errs; !errors.Is(err, errBusy) {
		t.Errorf("first submit err = %v, want busy/deadline", err)
	}
	s.release()
	// With the lock free again, submissions flow.
	if _, err := submitOne(context.Background(), s, "w3", "comd", 0); err != nil {
		t.Fatal(err)
	}
}

// --- HTTP surface -------------------------------------------------------

// httpServer starts a full daemon on an ephemeral port with a slow
// timescale (virtual time is effectively frozen during the test, so
// submitted jobs stay observable).
func httpServer(t *testing.T, cfg jobsched.Config, opts Options) (*Server, string) {
	t.Helper()
	s := newServer(t, cfg, opts)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = s.Drain(ctx)
		_ = s.Close(ctx)
	})
	return s, "http://" + addr
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPJobLifecycle(t *testing.T) {
	_, base := httpServer(t, jobsched.Config{Bound: 2000}, Options{Timescale: 1e-6})
	var job JobJSON
	code := doJSON(t, "POST", base+"/v1/jobs", SubmitRequest{ID: "alpha", App: "comd"}, &job)
	if code != http.StatusCreated {
		t.Fatalf("submit code = %d, want 201", code)
	}
	if job.State != "running" || len(job.Nodes) == 0 || job.PerNodeW <= 0 {
		t.Fatalf("submit response %+v", job)
	}
	// Status roundtrip.
	var got JobJSON
	if code := doJSON(t, "GET", base+"/v1/jobs/alpha", nil, &got); code != http.StatusOK {
		t.Fatalf("status code = %d", code)
	}
	if got.ID != "alpha" || got.State != "running" {
		t.Errorf("status %+v", got)
	}
	// Listing includes it.
	var list []JobJSON
	if code := doJSON(t, "GET", base+"/v1/jobs", nil, &list); code != http.StatusOK || len(list) != 1 {
		t.Errorf("list code=%d len=%d", code, len(list))
	}
	// Cluster shows the allocation and the invariant.
	var cs ClusterJSON
	if code := doJSON(t, "GET", base+"/v1/cluster", nil, &cs); code != http.StatusOK {
		t.Fatalf("cluster code = %d", code)
	}
	if cs.Running != 1 || cs.AllocW <= 0 {
		t.Errorf("cluster %+v", cs)
	}
	if cs.AllocW+cs.ReservedW > cs.BoundW+1e-6 {
		t.Errorf("bound invariant violated over HTTP: %+v", cs)
	}
	if math.Abs(cs.BoundW-(cs.FreeW+cs.AllocW+cs.ReservedW)) > 1e-6 {
		t.Errorf("power decomposition inconsistent: %+v", cs)
	}
	occupied := 0
	for _, n := range cs.Nodes {
		if n.Job == "alpha" {
			occupied++
		}
	}
	if occupied != len(job.Nodes) {
		t.Errorf("%d nodes report the job, placement has %d", occupied, len(job.Nodes))
	}
	// Cancel reclaims the power.
	var cancelled JobJSON
	if code := doJSON(t, "DELETE", base+"/v1/jobs/alpha", nil, &cancelled); code != http.StatusOK {
		t.Fatalf("cancel code = %d", code)
	}
	if cancelled.State != "cancelled" || cancelled.Reclaim <= 0 {
		t.Errorf("cancel response %+v", cancelled)
	}
	if code := doJSON(t, "GET", base+"/v1/cluster", nil, &cs); code != http.StatusOK || cs.AllocW != 0 {
		t.Errorf("alloc = %v after cancel, want 0", cs.AllocW)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, base := httpServer(t, jobsched.Config{Bound: 2000}, Options{Timescale: 1e-6})
	if code := doJSON(t, "GET", base+"/v1/jobs/ghost", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job status code = %d, want 404", code)
	}
	if code := doJSON(t, "DELETE", base+"/v1/jobs/ghost", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job cancel code = %d, want 404", code)
	}
	if code := doJSON(t, "POST", base+"/v1/jobs", SubmitRequest{App: "bogus"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown app code = %d, want 400", code)
	}
	if code := doJSON(t, "POST", base+"/v1/jobs", SubmitRequest{ID: "dup", App: "comd"}, nil); code != http.StatusCreated {
		t.Fatalf("first submit code = %d", code)
	}
	if code := doJSON(t, "POST", base+"/v1/jobs", SubmitRequest{ID: "dup", App: "comd"}, nil); code != http.StatusConflict {
		t.Errorf("duplicate submit code = %d, want 409", code)
	}
	if code := doJSON(t, "DELETE", base+"/v1/jobs/dup", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel code not 200")
	}
	if code := doJSON(t, "DELETE", base+"/v1/jobs/dup", nil, nil); code != http.StatusConflict {
		t.Errorf("double cancel code = %d, want 409", code)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	s, base := httpServer(t, jobsched.Config{Bound: 2000},
		Options{Timescale: 1e-6, QueueDepth: 1, RequestTimeout: 200 * time.Millisecond})
	// Wedge the driver lock so a submission occupies the only slot.
	s.lock <- struct{}{}
	defer s.release()
	done := make(chan int, 1)
	go func() {
		done <- doJSON(t, "POST", base+"/v1/jobs", SubmitRequest{App: "comd"}, nil)
	}()
	deadline := time.Now().Add(time.Second)
	for len(s.slots) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest("POST", base+"/v1/jobs",
		bytes.NewReader([]byte(`{"app":"comd"}`)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow submit code = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	// The slot holder times out against the wedged lock → 503.
	if code := <-done; code != http.StatusServiceUnavailable {
		t.Errorf("waiting submit code = %d, want 503", code)
	}
}

func TestHTTPMetricsExposed(t *testing.T) {
	_, base := httpServer(t, jobsched.Config{Bound: 2000}, Options{Timescale: 1e-6})
	if code := doJSON(t, "POST", base+"/v1/jobs", SubmitRequest{App: "comd"}, nil); code != http.StatusCreated {
		t.Fatal("submit failed")
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"clip_http_requests_total",
		"clip_http_submits_total",
		"clip_http_request_seconds",
		"clip_http_submit_queue_depth",
		"clip_virtual_now_seconds",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	var health map[string]string
	if code := doJSON(t, "GET", base+"/healthz", nil, &health); code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz = %d %v", 0, health)
	}
}

func TestHTTPDrainEndToEnd(t *testing.T) {
	// Real timescale ×300: jobs complete in wall milliseconds via the
	// pump; drain finishes the rest instantly in virtual time.
	s, base := httpServer(t, jobsched.Config{Bound: 640}, Options{Timescale: 300})
	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		var job JobJSON
		if code := doJSON(t, "POST", base+"/v1/jobs", SubmitRequest{App: "comd"}, &job); code != http.StatusCreated {
			t.Fatalf("submit %d code = %d", i, code)
		}
		ids = append(ids, job.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != len(ids) {
		t.Fatalf("drain reported %d jobs, want %d (zero lost)", len(final), len(ids))
	}
	for _, js := range final {
		if !js.State.Terminal() {
			t.Errorf("job %s not terminal after drain: %v", js.ID, js.State)
		}
	}
	// The daemon still answers status queries post-drain.
	var got JobJSON
	if code := doJSON(t, "GET", base+"/v1/jobs/"+ids[0], nil, &got); code != http.StatusOK {
		t.Errorf("post-drain status code = %d", code)
	}
	// New submissions are refused.
	if code := doJSON(t, "POST", base+"/v1/jobs", SubmitRequest{App: "comd"}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit code = %d, want 503", code)
	}
	var cs ClusterJSON
	if code := doJSON(t, "GET", base+"/v1/cluster", nil, &cs); code != http.StatusOK {
		t.Fatal("cluster after drain")
	}
	if cs.Running != 0 || cs.Queued != 0 || cs.AllocW != 0 || !cs.Draining {
		t.Errorf("cluster after drain %+v", cs)
	}
}

func TestHTTPConcurrentSubmitsUnderPump(t *testing.T) {
	// Hammer the daemon from several goroutines while the pump advances
	// virtual time; every accepted job must be tracked and the final
	// drain must account for all of them. Run with -race in make check.
	s, base := httpServer(t, jobsched.Config{Bound: 2000}, Options{Timescale: 120})
	const workers, per = 4, 5
	var wg sync.WaitGroup
	accepted := make(chan string, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var job JobJSON
				id := fmt.Sprintf("w%d-%d", w, i)
				code := doJSON(t, "POST", base+"/v1/jobs", SubmitRequest{ID: id, App: "comd"}, &job)
				if code == http.StatusCreated {
					accepted <- id
				}
			}
		}(w)
	}
	wg.Wait()
	close(accepted)
	n := 0
	for range accepted {
		n++
	}
	if n != workers*per {
		t.Fatalf("accepted %d of %d submissions", n, workers*per)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := s.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != n {
		t.Fatalf("drain reported %d jobs, want %d", len(final), n)
	}
	for _, js := range final {
		if !js.State.Terminal() {
			t.Errorf("job %s not terminal: %v", js.ID, js.State)
		}
	}
}

func TestHTTPSubmitBatch(t *testing.T) {
	_, base := httpServer(t, jobsched.Config{Bound: 2000}, Options{Timescale: 1e-6})
	// Mixed batch: two good entries, a duplicate and an unknown app.
	// Failures are per-entry — they must not stop later entries.
	req := BatchSubmitRequest{Jobs: []SubmitRequest{
		{ID: "b1", App: "comd"},
		{ID: "b1", App: "comd"},
		{App: "bogus"},
		{ID: "b2", App: "amg"},
	}}
	var out BatchResponseJSON
	if code := doJSON(t, "POST", base+"/v1/jobs:batch", req, &out); code != http.StatusOK {
		t.Fatalf("batch code = %d, want 200", code)
	}
	if out.Admitted != 2 || len(out.Entries) != 4 {
		t.Fatalf("admitted=%d entries=%d, want 2/4", out.Admitted, len(out.Entries))
	}
	wantCodes := []int{http.StatusCreated, http.StatusConflict, http.StatusBadRequest, http.StatusCreated}
	for i, e := range out.Entries {
		if e.Code != wantCodes[i] {
			t.Errorf("entry %d code = %d, want %d (%+v)", i, e.Code, wantCodes[i], e)
		}
		if (e.Code == http.StatusCreated) != (e.Job != nil) {
			t.Errorf("entry %d: job presence does not match code %d", i, e.Code)
		}
		if e.Code != http.StatusCreated && e.Error == "" {
			t.Errorf("entry %d rejected without an error message", i)
		}
	}
	if out.Entries[0].Job.ID != "b1" || out.Entries[3].Job.ID != "b2" {
		t.Errorf("admitted ids %q/%q, want b1/b2",
			out.Entries[0].Job.ID, out.Entries[3].Job.ID)
	}
	var list []JobJSON
	if code := doJSON(t, "GET", base+"/v1/jobs", nil, &list); code != http.StatusOK || len(list) != 2 {
		t.Errorf("list after batch: code %d, %d jobs, want 2", code, len(list))
	}
}

func TestHTTPSubmitBatchValidation(t *testing.T) {
	_, base := httpServer(t, jobsched.Config{Bound: 2000}, Options{Timescale: 1e-6})
	if code := doJSON(t, "POST", base+"/v1/jobs:batch", BatchSubmitRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty batch code = %d, want 400", code)
	}
	huge := BatchSubmitRequest{Jobs: make([]SubmitRequest, maxBatch+1)}
	for i := range huge.Jobs {
		huge.Jobs[i] = SubmitRequest{App: "comd"}
	}
	if code := doJSON(t, "POST", base+"/v1/jobs:batch", huge, nil); code != http.StatusBadRequest {
		t.Errorf("oversized batch code = %d, want 400", code)
	}
}

// TestHTTPBodyLimit: a body past maxBody is refused with 413 on both
// submit routes and the daemon keeps serving, while a full batch of
// maxBatch entries with 64-byte ids stays under the limit.
func TestHTTPBodyLimit(t *testing.T) {
	_, base := httpServer(t, jobsched.Config{Bound: 2000}, Options{Timescale: 1e-6})
	big := strings.Repeat("x", maxBody)
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/jobs", SubmitRequest{ID: big, App: "comd"}},
		{"/v1/jobs:batch", BatchSubmitRequest{Jobs: []SubmitRequest{{ID: big, App: "comd"}}}},
	} {
		var e ErrorJSON
		if code := doJSON(t, "POST", base+c.path, c.body, &e); code != http.StatusRequestEntityTooLarge || e.Error == "" {
			t.Errorf("POST %s over the limit: code %d error %q, want 413 with an error", c.path, code, e.Error)
		}
	}
	full := BatchSubmitRequest{Jobs: make([]SubmitRequest, maxBatch)}
	for i := range full.Jobs {
		full.Jobs[i] = SubmitRequest{ID: fmt.Sprintf("%064d", i), App: "comd"}
	}
	var out BatchResponseJSON
	if code := doJSON(t, "POST", base+"/v1/jobs:batch", full, &out); code != http.StatusOK || out.Admitted != maxBatch {
		t.Fatalf("full batch: code %d, admitted %d, want 200 and %d", code, out.Admitted, maxBatch)
	}
	if code := doJSON(t, "POST", base+"/v1/jobs", SubmitRequest{ID: "after", App: "comd"}, nil); code != http.StatusCreated {
		t.Errorf("submit after 413s: code %d, want 201", code)
	}
}

func TestHTTPPprofGated(t *testing.T) {
	_, off := httpServer(t, jobsched.Config{Bound: 2000}, Options{Timescale: 1e-6})
	if code := doJSON(t, "GET", off+"/debug/pprof/", nil, nil); code != http.StatusNotFound {
		t.Errorf("pprof without -pprof: code %d, want 404", code)
	}
	_, on := httpServer(t, jobsched.Config{Bound: 2000}, Options{Timescale: 1e-6, Pprof: true})
	resp, err := http.Get(on + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -pprof: code %d, want 200", resp.StatusCode)
	}
}
