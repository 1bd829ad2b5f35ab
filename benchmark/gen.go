package main

// Open-loop load generator and latency statistics. The whole operation
// schedule is built from the seed before a step starts, so the server
// only ever receives generated requests; each request is timed from
// the moment it was due, so a stall that delays later requests counts
// against them, and the generator reports how late it sent.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/server"
)

// opKind is one HTTP route of the serving API.
type opKind uint8

const (
	kSubmit opKind = iota
	kBatch
	kCancel
	kStatus
	kCluster
	kList
	numKinds
)

var kindNames = [numKinds]string{"submit", "batch", "cancel", "status", "cluster", "list"}

func (k opKind) String() string { return kindNames[k] }

// write reports whether the route changes scheduler state.
func (k opKind) write() bool { return k == kSubmit || k == kBatch || k == kCancel }

// op is one scheduled request.
type op struct {
	due  time.Duration // offset from the start of its step
	kind opKind
	jobs []server.SubmitRequest // submit (one) and batch entries
	id   string                 // cancel and status target
	dep  int                    // op that must finish before this one is sent, or -1
	body []byte                 // encoded request body, built before the run
}

// method and path of the op's request.
func (o *op) request() (string, string) {
	switch o.kind {
	case kSubmit:
		return http.MethodPost, "/v1/jobs"
	case kBatch:
		return http.MethodPost, "/v1/jobs:batch"
	case kCancel:
		return http.MethodDelete, "/v1/jobs/" + o.id
	case kStatus:
		return http.MethodGet, "/v1/jobs/" + o.id
	case kCluster:
		return http.MethodGet, "/v1/cluster"
	default:
		return http.MethodGet, "/v1/jobs"
	}
}

// encode fills the request body of a submit or batch op.
func (o *op) encode() {
	var err error
	switch o.kind {
	case kSubmit:
		o.body, err = json.Marshal(o.jobs[0])
	case kBatch:
		o.body, err = json.Marshal(server.BatchSubmitRequest{Jobs: o.jobs})
	}
	if err != nil {
		panic(err) // plain structs always encode
	}
}

// dueTimes returns round(rate*seconds) due offsets at the given rate,
// op i due at (i+u)/rate with u drawn uniformly from [0,1): the count is
// exact and the order monotone, and the seed decides the jitter.
func dueTimes(r *rng.Source, rate, seconds float64) []time.Duration {
	n := int(math.Round(rate * seconds))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + r.Float64()) / rate * float64(time.Second))
	}
	return out
}

// sortOps orders a schedule by due time, keeping dependencies valid.
func sortOps(ops []op) {
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ops[idx[a]].due < ops[idx[b]].due })
	pos := make([]int, len(ops))
	for newi, old := range idx {
		pos[old] = newi
	}
	sorted := make([]op, len(ops))
	for newi, old := range idx {
		sorted[newi] = ops[old]
		if d := sorted[newi].dep; d >= 0 {
			sorted[newi].dep = pos[d]
		}
	}
	copy(ops, sorted)
}

// result is the outcome of one op, as offsets from its step's start.
type result struct {
	sent, done time.Duration
	code       int    // HTTP status, 0 on a transport error
	body       []byte // kept for batch and cluster responses
}

// latency is the time from when the op was due to its response.
func (r *result) latency(o *op) time.Duration { return r.done - o.due }

// late is how long after its due time the op was sent.
func (r *result) late(o *op) time.Duration { return r.sent - o.due }

// ok reports a 2xx response.
func (r *result) ok() bool { return r.code >= 200 && r.code < 300 }

// loadGen sends schedules over at most one keep-alive connection per
// CPU.
type loadGen struct {
	client *http.Client
	base   string
	conns  int
	// tr, when set, receives a client span per request under span id
	// spanBase+offset+k, and each request carries its op index
	// offset+k in a header so the server side can join it.
	tr       *tracer
	spanBase int64
	// offset is added to op indices: the schedules an instance sends
	// share one index space.
	offset int
}

// opHeaderName carries the op index on traced requests.
const opHeaderName = "X-Clipperf-Op"

func newLoadGen(base string) *loadGen {
	conns := runtime.NumCPU()
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadGen{
		client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
		base:   base,
		conns:  conns,
	}
}

// traceTo records client spans from now on.
func (g *loadGen) traceTo(tr *tracer, spanBase int64) { g.tr, g.spanBase = tr, spanBase }

func (g *loadGen) close() { g.client.CloseIdleConnections() }

// run sends one step's ops on schedule and returns their results. Each
// worker takes the next op in due order, sleeps until it is due, waits
// for its dependency and sends it, so at most conns requests are in
// flight and later ops queue behind a slow response. With every op due
// at 0 it is a closed loop: each connection sends its next request as
// soon as the last one returns.
func (g *loadGen) run(ops []op) []result {
	res := make([]result, len(ops))
	waits := make([]chan struct{}, len(ops))
	for i := range ops {
		if d := ops[i].dep; d >= 0 && waits[d] == nil {
			waits[d] = make(chan struct{})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	wg.Add(g.conns)
	for w := 0; w < g.conns; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(ops) {
					return
				}
				o := &ops[k]
				if d := o.due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				if o.dep >= 0 {
					<-waits[o.dep]
				}
				g.send(k, o, &res[k], t0)
				if waits[k] != nil {
					close(waits[k])
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// send issues one request and records its outcome.
func (g *loadGen) send(k int, o *op, r *result, t0 time.Time) {
	method, path := o.request()
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(method, g.base+path, body)
	if err != nil {
		panic(err) // generated paths are always valid
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if g.tr != nil {
		req.Header.Set(opHeaderName, strconv.Itoa(g.offset+k))
	}
	sent := time.Now()
	r.sent = sent.Sub(t0)
	resp, err := g.client.Do(req)
	if err == nil {
		if o.kind == kBatch || o.kind == kCluster {
			r.body, err = io.ReadAll(resp.Body)
		} else {
			_, err = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
		if err == nil {
			r.code = resp.StatusCode
		}
	}
	done := time.Now()
	r.done = done.Sub(t0)
	if g.tr != nil {
		n := int64(g.offset + k)
		g.tr.add(g.spanBase+n, 0, n, "client."+o.kind.String(), sent, done)
	}
}

// summary is a latency distribution reduced by the reporting rule: the
// median and the highest listed percentile with at least ten samples
// beyond it, with the sample count.
type summary struct {
	N     int
	P50   float64
	Tail  float64 // value at TailQ
	TailQ float64 // 0 when too few samples support any listed percentile
	Max   float64
}

// tailPerMille are the candidate tail percentiles in thousandths,
// highest first; with too few samples for p90 the summary shows the
// maximum.
var tailPerMille = []int{999, 990, 900}

// rank is the 1-based nearest-rank position of the pm/1000 quantile of
// n samples; integer arithmetic keeps the ten-beyond rule exact.
func rank(n, pm int) int { return max(1, (n*pm+999)/1000) }

// summarize reduces xs (unsorted, any unit); it sorts a copy.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.P50 = v[rank(len(v), 500)-1]
	s.Max = v[len(v)-1]
	for _, pm := range tailPerMille {
		if r := rank(len(v), pm); len(v)-r >= 10 {
			s.Tail, s.TailQ = v[r-1], float64(pm)/1000
			break
		}
	}
	return s
}

// median returns the nearest-rank median of xs, 0 when it is empty.
func median(xs []float64) float64 { return summarize(xs).P50 }

// p99 returns the nearest-rank 99th percentile of xs (not empty).
func p99(xs []float64) float64 {
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	return v[rank(len(v), 990)-1]
}

// String renders the summary for the human report.
func (s summary) String() string {
	if s.TailQ == 0 {
		return fmt.Sprintf("p50 %.3f max %.3f (n=%d)", s.P50, s.Max, s.N)
	}
	return fmt.Sprintf("p50 %.3f p%g %.3f (n=%d)", s.P50, s.TailQ*100, s.Tail, s.N)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
