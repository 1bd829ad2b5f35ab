// Package telemetry is the observability layer of the CLIP
// reproduction: a dependency-free metrics registry (counters, gauges,
// histograms — all updated through atomic operations so instrumented
// hot paths never take a lock), a bounded decision-event log that
// records every cluster-level scheduling decision, budget
// redistribution and fault action, and exposition surfaces in Prometheus text format and
// JSON (see expose.go and http.go).
//
// Instrumented packages cache metric handles once instead of looking
// them up per operation. Pure functions keep package-level handles
// against the Default registry:
//
//	var solves = telemetry.Default.Counter("clip_power_solvefreq_total",
//	        "DVFS ladder lookups")
//	...
//	solves.Inc() // one atomic add, no map lookup, no lock
//
// The layers of a scheduler (des, coordinator, core, jobsched) resolve
// a handle set per registry instead (their NewMetrics), fixed when an
// instance is built; every built-in instance publishes to Default.
// Concurrent instances, such as the shards of a parallel federation
// run, write the same handles: counters, gauges and histograms are
// atomic and the event log takes a lock per append.
//
// Metric names follow Prometheus conventions (snake_case, unit
// suffixes, `_total` for counters). Labelled series are addressed by
// their full name, rendered deterministically with Label:
//
//	g := telemetry.Default.Gauge(
//	        telemetry.Label("clip_node_budget_cpu_watts", "node", "3"),
//	        "per-node CPU power budget")
//	g.Set(87.5)
//
// Everything in this package is safe for concurrent use.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; updates are single atomic adds.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (a float64 stored as
// atomic bits). The zero value reads 0 and is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (compare-and-swap loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value,
// tracking a high-water mark.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefSecondsBuckets is the default histogram bucketing for wall-time
// observations, spanning sub-millisecond scheduling decisions to
// multi-second experiment sweeps.
var DefSecondsBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30}

// Histogram counts observations into cumulative "le" buckets, exactly
// like a Prometheus histogram. Observations are lock-free: one atomic
// add per bucket plus a compare-and-swap for the running sum.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value. Non-finite observations (a NaN from a
// degenerate rate, an Inf from a division by a zero interval) are
// dropped — a single NaN would poison the running sum forever and
// render as NaN in the Prometheus text exposition, breaking scrapers.
// Negative values (possible from a zero-duration timing on a coarse
// clock) are clamped to zero so the sum stays monotone.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// addSum adds v to the running sum (compare-and-swap loop).
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Registry holds named metrics and the decision-event log. Metric
// constructors are get-or-create: the first call for a name creates the
// metric and registers its help text, later calls return the same
// handle. Instrumented packages should call the constructor once and
// cache the handle; the constructors take a read-write lock and are not
// meant for per-operation paths.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // keyed by family (name sans labels)
	events   EventLog
}

// Default is the process-wide registry all built-in instrumentation
// reports to and the one the cmd/ tools expose.
var Default = NewRegistry()

// NewRegistry returns an empty registry (useful for tests that must
// not observe instrumentation noise from the rest of the process).
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// Counter returns the counter registered under name, creating it (and
// recording help for its family) on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = new(Counter)
	r.counters[name] = c
	r.setHelp(name, help)
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = new(Gauge)
	r.gauges[name] = g
	r.setHelp(name, help)
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given ascending bucket upper bounds on first use (nil means
// DefSecondsBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	if bounds == nil {
		bounds = DefSecondsBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	r.hists[name] = h
	r.setHelp(name, help)
	return h
}

// Events returns the registry's decision-event log.
func (r *Registry) Events() *EventLog { return &r.events }

// Reset drops every metric and event. It exists for tests; production
// callers should never need it.
func (r *Registry) Reset() {
	r.mu.Lock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]*Gauge)
	r.hists = make(map[string]*Histogram)
	r.help = make(map[string]string)
	r.mu.Unlock()
	r.events.reset()
}

// setHelp records help text for the family of name; first writer wins.
// Callers must hold r.mu.
func (r *Registry) setHelp(name, help string) {
	fam := familyOf(name)
	if _, ok := r.help[fam]; !ok && help != "" {
		r.help[fam] = help
	}
}

// familyOf strips the label set from a full series name.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Label renders a full series name from a family and key/value label
// pairs, deterministically: Label("m", "a", "1", "b", "2") returns
// `m{a="1",b="2"}`. Label values are escaped per the Prometheus text
// format. An odd trailing key is ignored.
func Label(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(kv[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabel escapes backslash, double quote and newline as the
// Prometheus text exposition format requires.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
