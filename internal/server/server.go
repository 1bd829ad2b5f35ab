// Package server is the online serving layer of the CLIP reproduction:
// it wraps the deterministic jobsched.Online driver behind an HTTP/JSON
// API (cmd/clipd) and bridges wall-clock time onto the driver's virtual
// timeline.
//
// The bridge is the load-bearing design decision. The scheduler core is
// a discrete-event simulation with a virtual clock — that is what makes
// it deterministic and testable. The daemon does not fork a second
// "real-time" scheduler; it maps wall time onto virtual time
// (virtual = elapsed_wall × Timescale) and, on a background pump
// goroutine, repeatedly asks the driver to catch up to the mapped
// target, firing whatever simulation events came due. HTTP operations
// (submit, cancel) first catch the driver up to the same target and
// then inject their event at the current virtual time, so the event
// order any test replays with a virtual clock is exactly the order the
// daemon executes live.
//
// Concurrency model: the driver is single-threaded by design, so the
// server serialises every driver touch through a one-slot lock channel.
// Requests acquire it with their context, which carries the per-request
// deadline — a stuck queue turns into clean 503s instead of goroutine
// pile-ups. Admission control is a second bounded channel in front of
// the lock: when QueueDepth submissions are already waiting, further
// submissions are rejected immediately with 429 and a Retry-After hint.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/jobsched"
	"repro/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Timescale is the number of virtual (simulated) seconds that pass
	// per wall-clock second. Default 1. Large values fast-forward the
	// cluster (a day of simulated operation in minutes of wall time);
	// the driver's own step budget bounds each catch-up.
	Timescale float64
	// QueueDepth bounds submissions waiting for the scheduler lock;
	// excess submissions are rejected with 429. Default 64.
	QueueDepth int
	// RequestTimeout is the per-request deadline for acquiring the
	// scheduler lock and running the operation. Default 5s.
	RequestTimeout time.Duration
	// MaxTick caps how long the bridge pump sleeps when no simulation
	// event is due. Default 250ms.
	MaxTick time.Duration
	// Registry receives the server's metrics. Default telemetry.Default.
	Registry *telemetry.Registry
	// Pprof exposes net/http/pprof under /debug/pprof/ on the daemon's
	// listener (cmd/clipd -pprof).
	Pprof bool
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Timescale <= 0 {
		o.Timescale = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.MaxTick <= 0 {
		o.MaxTick = 250 * time.Millisecond
	}
	if o.Registry == nil {
		o.Registry = telemetry.Default
	}
	return o
}

// Server drives a jobsched.Online session in wall-clock time and
// serves it over HTTP.
type Server struct {
	opts Options
	drv  *jobsched.Online

	// lock is a one-slot channel used as the driver mutex so acquisition
	// can race a context deadline.
	lock chan struct{}
	// slots bounds submissions waiting on the lock (admission control):
	// a submission takes a slot with a non-blocking send or is refused.
	slots chan struct{}

	// clock and epoch anchor the wall→virtual mapping; clock is
	// swappable so bridge tests run on a fake wall clock.
	clock func() time.Time
	epoch time.Time

	draining atomic.Bool
	failed   atomic.Pointer[error] // first driver failure, sticky

	stop     chan struct{} // closes to stop the pump
	kick     chan struct{} // wakes the pump after a submit
	pumpOn   atomic.Bool   // Start launched the pump goroutine
	pumpDone chan struct{}

	httpSrv *http.Server
	ln      net.Listener

	jobSeq atomic.Uint64 // auto-generated job ids

	// Telemetry handles (created once against opts.Registry).
	mReqs       *telemetry.Counter
	mRejected   *telemetry.Counter
	mSubmits    *telemetry.Counter
	mSubmitsPri map[string]*telemetry.Counter // by priority band
	mCancels    *telemetry.Counter
	gWaiting    *telemetry.Gauge
	gVirtualNow *telemetry.Gauge
	hRoutes     map[string]*telemetry.Histogram
}

// New builds a server over a fresh online session of sched.
func New(sched *jobsched.Scheduler, opts Options) (*Server, error) {
	drv, err := sched.Online()
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		drv:      drv,
		lock:     make(chan struct{}, 1),
		slots:    make(chan struct{}, opts.QueueDepth),
		clock:    time.Now,
		stop:     make(chan struct{}),
		kick:     make(chan struct{}, 1),
		pumpDone: make(chan struct{}),
	}
	reg := opts.Registry
	s.mReqs = reg.Counter("clip_http_requests_total", "HTTP requests served by clipd")
	s.mRejected = reg.Counter("clip_http_rejected_total",
		"submissions rejected by admission control (429) or during drain (503)")
	s.mSubmits = reg.Counter("clip_http_submits_total", "jobs admitted over HTTP")
	s.mSubmitsPri = make(map[string]*telemetry.Counter, 3)
	for _, band := range []string{"low", "normal", "high"} {
		s.mSubmitsPri[band] = reg.Counter(
			telemetry.Label("clip_http_submits_priority_total", "priority", band),
			"jobs admitted over HTTP by priority band")
	}
	s.mCancels = reg.Counter("clip_http_cancels_total", "jobs cancelled over HTTP")
	s.gWaiting = reg.Gauge("clip_http_submit_queue_depth",
		"submissions currently waiting for the scheduler lock")
	s.gVirtualNow = reg.Gauge("clip_virtual_now_seconds",
		"current virtual time of the online scheduler")
	s.hRoutes = make(map[string]*telemetry.Histogram)
	for _, route := range []string{"submit", "batch", "status", "list", "cancel", "cluster"} {
		s.hRoutes[route] = reg.Histogram(
			telemetry.Label("clip_http_request_seconds", "route", route),
			"wall-clock latency of clipd HTTP requests by route", nil)
	}
	return s, nil
}

// acquire takes the driver lock, losing to ctx.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.lock <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.lock <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release drops the driver lock.
func (s *Server) release() { <-s.lock }

// lockSynced takes the driver lock under ctx and catches the driver up
// to the wall clock. On success the caller holds the lock and must
// release it. admit marks a submission, which Drain may have overtaken
// while it waited for the lock.
func (s *Server) lockSynced(ctx context.Context, admit bool) error {
	if err := s.acquire(ctx); err != nil {
		return fmt.Errorf("%w: %v", errBusy, err)
	}
	if admit && s.draining.Load() {
		s.release()
		return errDraining
	}
	if err := s.syncLocked(); err != nil {
		s.release()
		return err
	}
	return nil
}

// virtualTarget maps the current wall clock to the virtual timeline.
func (s *Server) virtualTarget() float64 {
	return s.clock().Sub(s.epoch).Seconds() * s.opts.Timescale
}

// syncLocked catches the driver up to the wall-mapped virtual time.
// Callers hold the driver lock. A driver failure (bound-invariant
// violation, model error) is sticky: it is recorded and every later
// sync returns it.
func (s *Server) syncLocked() error {
	if err := s.failed.Load(); err != nil {
		return *err
	}
	target := s.virtualTarget()
	if target > s.drv.Now() {
		if err := s.drv.Advance(target); err != nil {
			s.failed.Store(&err)
			return err
		}
	}
	s.gVirtualNow.Set(s.drv.Now())
	return nil
}

// Start anchors the bridge epoch, begins the pump, and serves HTTP on
// addr (use "127.0.0.1:0" for an ephemeral port). It returns the bound
// address immediately; the HTTP server runs in the background.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.epoch = s.clock()
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(ln)
	s.pumpOn.Store(true)
	go s.pump()
	return ln.Addr().String(), nil
}

// pump is the bridge's clock thread: it advances the driver to the
// wall-mapped virtual time, then sleeps until the next simulation event
// is due in wall terms (capped at MaxTick so bound-schedule changes and
// freshly armed fault streams are picked up promptly).
func (s *Server) pump() {
	defer close(s.pumpDone)
	timer := time.NewTimer(s.opts.MaxTick)
	defer timer.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		case <-timer.C:
		}
		s.lock <- struct{}{}
		_ = s.syncLocked() // sticky failure; surfaced via /healthz and requests
		d := s.opts.MaxTick
		if next, ok := s.drv.Next(); ok {
			wall := time.Duration((next - s.drv.Now()) / s.opts.Timescale * float64(time.Second))
			if wall < time.Millisecond {
				wall = time.Millisecond
			}
			if wall < d {
				d = wall
			}
		}
		s.release()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
	}
}

// wake nudges the pump to recompute its sleep (a submit may have
// scheduled an event earlier than the pending timer).
func (s *Server) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool { return s.draining.Load() }

// Failed returns the sticky driver failure, if any.
func (s *Server) Failed() error {
	if err := s.failed.Load(); err != nil {
		return *err
	}
	return nil
}

// Drain gracefully ends the scheduling session: admission stops (new
// submissions get 503), the bridge pump halts, and the driver
// fast-forwards in virtual time until every resident, retrying and
// queued job is terminal — running jobs finish, unstartable queued work
// is failed with an explicit drain reason. Status and cluster endpoints
// keep serving the final state afterwards; call Close to stop HTTP.
// Drain is idempotent and returns the final job statuses.
func (s *Server) Drain(ctx context.Context) ([]jobsched.JobStatus, error) {
	if !s.draining.Swap(true) {
		close(s.stop)
	}
	if s.pumpOn.Load() {
		<-s.pumpDone
	}
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	if err := s.syncLocked(); err != nil {
		return s.drv.Jobs(), err
	}
	if err := s.drv.Drain(); err != nil {
		s.failed.Store(&err)
		return s.drv.Jobs(), err
	}
	s.gVirtualNow.Set(s.drv.Now())
	return s.drv.Jobs(), nil
}

// Close stops the HTTP listener (after Drain, for a graceful exit).
func (s *Server) Close(ctx context.Context) error {
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// errDraining rejects submissions once drain has begun.
var errDraining = errors.New("server: draining, not admitting jobs")

// priBucket maps a job priority to its telemetry band.
func priBucket(pri int) string {
	switch {
	case pri < 0:
		return "low"
	case pri > 0:
		return "high"
	}
	return "normal"
}

// submitBatch admits a batch of jobs under one admission slot, one
// driver-lock acquisition and one pump wakeup; POST /v1/jobs is a batch
// of one. Whole-batch failures (drain, a full admission queue, the lock
// deadline, a sticky driver failure) return an error; otherwise each
// entry resolves independently and in order, exactly as N serial
// submissions would.
func (s *Server) submitBatch(ctx context.Context, reqs []SubmitRequest) ([]jobsched.SubmitResult, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	select {
	case s.slots <- struct{}{}:
	default:
		return nil, errQueueFull
	}
	s.gWaiting.Set(float64(len(s.slots)))
	defer func() {
		<-s.slots
		s.gWaiting.Set(float64(len(s.slots)))
	}()
	if err := s.lockSynced(ctx, true); err != nil {
		return nil, err
	}
	defer s.release()
	out := make([]jobsched.SubmitResult, len(reqs))
	subs := make([]jobsched.Submission, 0, len(reqs))
	idx := make([]int, 0, len(reqs)) // out positions of resolvable entries
	for i, r := range reqs {
		spec, err := resolveApp(r.App)
		if err != nil {
			out[i].Err = err
			continue
		}
		id := r.ID
		if id == "" {
			id = fmt.Sprintf("job-%d", s.jobSeq.Add(1))
		}
		subs = append(subs, jobsched.Submission{ID: id, App: spec, Priority: reqs[i].Priority})
		idx = append(idx, i)
	}
	admitted := uint64(0)
	for k, r := range s.drv.SubmitBatch(subs) {
		out[idx[k]] = r
		if r.Err == nil {
			admitted++
			s.mSubmitsPri[priBucket(r.Status.Priority)].Inc()
		}
	}
	if admitted > 0 {
		s.mSubmits.Add(admitted)
		s.wake()
	}
	return out, nil
}

// cancel withdraws a job under the request deadline.
func (s *Server) cancel(ctx context.Context, id string) (jobsched.JobStatus, error) {
	if err := s.lockSynced(ctx, false); err != nil {
		return jobsched.JobStatus{}, err
	}
	defer s.release()
	if _, err := s.drv.Cancel(id); err != nil {
		return jobsched.JobStatus{}, err
	}
	s.mCancels.Inc()
	s.wake()
	return s.drv.Status(id)
}

// status reports one job.
func (s *Server) status(ctx context.Context, id string) (jobsched.JobStatus, error) {
	if err := s.lockSynced(ctx, false); err != nil {
		return jobsched.JobStatus{}, err
	}
	defer s.release()
	return s.drv.Status(id)
}

// jobs lists every submitted job.
func (s *Server) jobs(ctx context.Context) ([]jobsched.JobStatus, error) {
	if err := s.lockSynced(ctx, false); err != nil {
		return nil, err
	}
	defer s.release()
	return s.drv.Jobs(), nil
}

// cluster snapshots the cluster.
func (s *Server) cluster(ctx context.Context) (jobsched.ClusterState, error) {
	if err := s.lockSynced(ctx, false); err != nil {
		return jobsched.ClusterState{}, err
	}
	defer s.release()
	return s.drv.Cluster(), nil
}

// Admission/backpressure sentinels, mapped to HTTP codes in http.go.
var (
	errQueueFull = errors.New("server: submit queue full")
	errBusy      = errors.New("server: scheduler busy")
)
