package main

// Span recording for the traced run. Spans are kept in memory and
// written as JSON lines when the run ends; every span names its layer
// boundary, its start and end, the span that caused it and the op it
// belongs to, so a request can be followed from the generator through
// the server into the replayed scheduler call.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call across a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Op     int64  `json:"op"`     // shared by every span of one request or trial
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer collects spans; a nil tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), next: 1} }

// reserve hands out n consecutive span ids and returns the first.
func (t *tracer) reserve(n int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.next
	t.next += int64(n)
	return base
}

// add records a span under a given id (0 assigns a fresh one) and
// returns its id.
func (t *tracer) add(id, parent, op int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		id = t.next
		t.next++
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(parent, op int64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(0, parent, op, name, start, end)
	return end.Sub(start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}

// handled is the server-side record of one traced request.
type handled struct {
	op         int
	route      opKind
	span       int64
	start, end time.Time
}

// handlerSpans wraps the server's handler and records a span per
// request that carries an op header; order keeps the records in the
// order the handlers finished, the order the server served them in.
type handlerSpans struct {
	t     *tracer
	next  http.Handler
	base  int64 // span id of client span for op 0
	mu    sync.Mutex
	order []handled
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.Header.Get(opHeaderName))
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	route := routeOf(r)
	id := h.t.add(0, h.base+int64(k), int64(k), "server."+route.String(), start, end)
	h.mu.Lock()
	h.order = append(h.order, handled{op: k, route: route, span: id, start: start, end: end})
	h.mu.Unlock()
}

// routeOf classifies a request by method and path.
func routeOf(r *http.Request) opKind {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return kSubmit
	case r.Method == http.MethodPost:
		return kBatch
	case r.Method == http.MethodDelete:
		return kCancel
	case r.URL.Path == "/v1/cluster":
		return kCluster
	case r.URL.Path == "/v1/jobs":
		return kList
	}
	return kStatus
}

// served returns the handler records in serving order.
func (h *handlerSpans) served() []handled {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]handled(nil), h.order...)
}

// counters is a snapshot of the telemetry every layer already keeps in
// telemetry.Default; deltas between two snapshots attribute work to
// the phase between them.
type counters struct {
	c map[string]uint64
	g map[string]float64
	h map[string]telemetry.HistogramSnapshot
}

func snapshot() counters {
	s := telemetry.Default.Snapshot()
	return counters{c: s.Counters, g: s.Gauges, h: s.Histograms}
}

// delta returns the growth of a counter since base.
func (s counters) delta(base counters, name string) float64 {
	return float64(s.c[name] - base.c[name])
}

// histDelta returns the growth of a histogram's count and sum.
func (s counters) histDelta(base counters, name string) (n, sum float64) {
	return float64(s.h[name].Count - base.h[name].Count), s.h[name].Sum - base.h[name].Sum
}

// gauge reads a gauge.
func (s counters) gauge(name string) float64 { return s.g[name] }
