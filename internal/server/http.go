package server

// HTTP surface of clipd: JSON wire types, the route table, and the
// mapping from driver errors to status codes. Every handler runs under
// a per-request deadline (Options.RequestTimeout); scheduler-lock
// contention past the deadline surfaces as 503 + Retry-After rather
// than an open socket waiting forever.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/jobsched"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// SubmitRequest is the body of POST /v1/jobs and one entry of the
// batch submit body.
type SubmitRequest struct {
	// ID optionally names the job; empty means the server assigns
	// job-<n>.
	ID string `json:"id,omitempty"`
	// App is the application name (workload.SuiteByName).
	App string `json:"app"`
	// Priority orders the job against the rest of the queue; higher
	// dispatches first and may preempt lower. Zero inherits the
	// application default.
	Priority int `json:"priority,omitempty"`
}

// maxBatch bounds one POST /v1/jobs:batch body; bigger batches are
// rejected with 400 (split them client-side).
const maxBatch = 4096

// maxBody caps a POST body at about 1 KiB per batch entry, so a hostile
// request is refused with 413 before it can grow the heap.
const maxBody = maxBatch << 10

// BatchSubmitRequest is the body of POST /v1/jobs:batch.
type BatchSubmitRequest struct {
	Jobs []SubmitRequest `json:"jobs"`
}

// BatchEntryJSON is one entry of the batch response, in request order:
// either the created job, or the per-entry rejection with the status
// code the same request would have received on POST /v1/jobs.
type BatchEntryJSON struct {
	Job   *JobJSON `json:"job,omitempty"`
	Error string   `json:"error,omitempty"`
	Code  int      `json:"code"`
}

// BatchResponseJSON is the wire form of POST /v1/jobs:batch.
type BatchResponseJSON struct {
	Admitted int              `json:"admitted"`
	Entries  []BatchEntryJSON `json:"entries"`
}

// JobJSON is the wire form of a job status.
type JobJSON struct {
	ID       string  `json:"id"`
	State    string  `json:"state"`
	ArrivalS float64 `json:"arrival_s"`
	StartS   float64 `json:"start_s,omitempty"`
	FinishS  float64 `json:"finish_s,omitempty"`
	QueuePos int     `json:"queue_pos,omitempty"`
	Priority int     `json:"priority,omitempty"`
	Nodes    []int   `json:"nodes,omitempty"`
	Cores    int     `json:"cores,omitempty"`
	PerNodeW float64 `json:"per_node_watts,omitempty"`
	EstEndS  float64 `json:"est_finish_s,omitempty"`
	Retries  int     `json:"retries,omitempty"`
	Preempts int     `json:"preemptions,omitempty"`
	Reclaim  float64 `json:"reclaimed_watts,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

// NodeJSON is the wire form of one node's state.
type NodeJSON struct {
	ID      int    `json:"id"`
	Health  string `json:"health"`
	Derated bool   `json:"derated,omitempty"`
	Job     string `json:"job,omitempty"`
}

// ClusterJSON is the wire form of GET /v1/cluster.
type ClusterJSON struct {
	NowS      float64    `json:"now_s"`
	BoundW    float64    `json:"bound_watts"`
	FreeW     float64    `json:"free_watts"`
	AllocW    float64    `json:"allocated_watts"`
	ReservedW float64    `json:"reserved_watts"`
	Queued    int        `json:"queued"`
	Running   int        `json:"running"`
	Draining  bool       `json:"draining,omitempty"`
	Nodes     []NodeJSON `json:"nodes"`
}

// ErrorJSON is the wire form of every non-2xx response.
type ErrorJSON struct {
	Error string `json:"error"`
}

// jobJSON converts a driver status to its wire form.
func jobJSON(js jobsched.JobStatus) JobJSON {
	return JobJSON{
		ID: js.ID, State: js.State.String(),
		ArrivalS: js.Arrival, StartS: js.Start, FinishS: js.Finish,
		QueuePos: js.QueuePos, Priority: js.Priority,
		Nodes: js.Nodes, Cores: js.Cores,
		PerNodeW: js.PerNodeW, EstEndS: js.EstFinish,
		Retries: js.Retries, Preempts: js.Preemptions,
		Reclaim: js.ReclaimedW, Reason: js.Reason,
	}
}

// clusterJSON converts a cluster snapshot to its wire form.
func clusterJSON(cs jobsched.ClusterState, draining bool) ClusterJSON {
	out := ClusterJSON{
		NowS: cs.Now, BoundW: cs.BoundW, FreeW: cs.FreeW,
		AllocW: cs.AllocW, ReservedW: cs.ReservedW,
		Queued: cs.Queued, Running: cs.Running, Draining: draining,
		Nodes: make([]NodeJSON, len(cs.Nodes)),
	}
	for i, n := range cs.Nodes {
		out.Nodes[i] = NodeJSON{ID: n.ID, Health: n.Health, Derated: n.Derated, Job: n.Job}
	}
	return out
}

// errUnknownApp distinguishes a bad app name (400) from internal
// failures (500).
var errUnknownApp = errors.New("server: unknown application")

// appCache interns resolved specs by name. The scheduler's dispatch
// cache is keyed by *workload.Spec identity, so handing it a fresh
// pointer per request would turn every HTTP submit into a cache miss;
// interning keeps repeat submissions of the same app on the hot path.
var appCache sync.Map // string → *workload.Spec

// resolveApp looks an application up by suite name.
func resolveApp(name string) (*workload.Spec, error) {
	if name == "" {
		return nil, errUnknownApp
	}
	if v, ok := appCache.Load(name); ok {
		return v.(*workload.Spec), nil
	}
	spec, err := workload.SuiteByName(name)
	if err != nil {
		return nil, errUnknownApp
	}
	v, _ := appCache.LoadOrStore(name, spec)
	return v.(*workload.Spec), nil
}

// Handler returns the daemon's full route table, including the
// registry's /metrics and /telemetry.json exposition.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.instrument("submit", s.handleSubmit))
	mux.HandleFunc("POST /v1/jobs:batch", s.instrument("batch", s.handleSubmitBatch))
	mux.HandleFunc("GET /v1/jobs", s.instrument("list", s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("status", s.handleStatus))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("cancel", s.handleCancel))
	mux.HandleFunc("GET /v1/cluster", s.instrument("cluster", s.handleCluster))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	tele := telemetry.Handler(s.opts.Registry)
	mux.Handle("/metrics", tele)
	mux.Handle("/telemetry.json", tele)
	if s.opts.Pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

// instrument counts the request and observes its wall latency into the
// route's histogram.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.hRoutes[route]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.mReqs.Inc()
		h(w, r)
		hist.Observe(time.Since(start).Seconds())
	}
}

// reqCtx applies the per-request deadline.
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
}

// writeJSON renders one response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errCode maps a driver/server error to the HTTP status the same
// submission would receive on the single-job endpoint. Pure mapping —
// headers and rejection counters stay in writeErr, which owns the
// whole-request error path.
func errCode(err error) int {
	switch {
	case errors.Is(err, errQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining), errors.Is(err, errBusy):
		return http.StatusServiceUnavailable
	case errors.Is(err, errUnknownApp):
		return http.StatusBadRequest
	case errors.Is(err, jobsched.ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, jobsched.ErrDuplicateJob),
		errors.Is(err, jobsched.ErrJobTerminal):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// retryAfterHint converts admission backlog into a Retry-After value:
// each waiting submission needs roughly one virtual second of scheduler
// headway to clear, and virtual time advances Timescale× faster than
// the wall clock, so the wall-clock wait scales with depth over
// Timescale. Clamped to [1, 30]: zero would invite an immediate retry
// storm, and anything past 30 reads as an outage rather than
// backpressure.
func retryAfterHint(waiting int, timescale float64) int {
	if timescale <= 0 {
		timescale = 1
	}
	secs := math.Ceil(float64(waiting+1) / timescale)
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return int(secs)
}

// writeErr maps a driver/server error to its HTTP status.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterHint(len(s.slots), s.opts.Timescale)))
		s.mRejected.Inc()
	case errors.Is(err, errDraining):
		s.mRejected.Inc()
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterHint(len(s.slots), s.opts.Timescale)))
	}
	writeJSON(w, errCode(err), ErrorJSON{Error: err.Error()})
}

// decodeBody reads a JSON request body of at most maxBody bytes into v,
// answering 413 or 400 itself when it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge, ErrorJSON{Error: "request body exceeds limit"})
	default:
		writeJSON(w, http.StatusBadRequest, ErrorJSON{Error: "bad request body: " + err.Error()})
	}
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	res, err := s.submitBatch(ctx, []SubmitRequest{req})
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, jobJSON(res[0].Status))
}

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorJSON{Error: "batch has no jobs"})
		return
	}
	if len(req.Jobs) > maxBatch {
		writeJSON(w, http.StatusBadRequest, ErrorJSON{Error: "batch exceeds limit"})
		return
	}
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	results, err := s.submitBatch(ctx, req.Jobs)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	out := BatchResponseJSON{Entries: make([]BatchEntryJSON, len(results))}
	for i, res := range results {
		if res.Err != nil {
			out.Entries[i] = BatchEntryJSON{Error: res.Err.Error(), Code: errCode(res.Err)}
			continue
		}
		jj := jobJSON(res.Status)
		out.Entries[i] = BatchEntryJSON{Job: &jj, Code: http.StatusCreated}
		out.Admitted++
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	list, err := s.jobs(ctx)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	out := make([]JobJSON, len(list))
	for i, js := range list {
		out[i] = jobJSON(js)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	js, err := s.status(ctx, r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, jobJSON(js))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	js, err := s.cancel(ctx, r.PathValue("id"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, jobJSON(js))
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	cs, err := s.cluster(ctx)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, clusterJSON(cs, s.draining.Load()))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if err := s.Failed(); err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorJSON{Error: err.Error()})
		return
	}
	state := "ok"
	if s.draining.Load() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": state})
}
