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
// Every counter and histogram family is striped over Cells cells, each
// on cache lines of its own: a handle writes one cell, and every read
// (Value, Count, Sum, Snapshot and the expositions) sums the cells, so
// readers see one total per family and no extra series. Registry.Counter
// and Registry.Histogram return cell 0's handles; Registry.Cell(k)
// returns cell k's. Gauges and the event log are single, since they
// hold last-writer values.
//
// The layers of a scheduler (des, coordinator, core, jobsched) resolve
// one handle set per cell of Default (their NewMetrics, through
// PerCell), and each engine, CLIP instance and scheduler run state
// takes the next cell (NextCell) when it is built; a coordinator writes
// its owner's cell. Instances built one after another, such as the
// shards of a federation, thus write different cells, so shards that
// run at once seldom write the same cache line, and picking an
// instance's handle set is an array index. Writers that share a cell,
// a gauge or the event log stay correct: cells and gauges are atomic
// and the event log takes a lock per append.
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
	"strings"
	"sync"
	"sync/atomic"
)

// Cells is the number of cells each counter and histogram family
// stripes its writes over. Each cell sits on cache lines of its own, so
// instances that write different cells from different goroutines never
// contend for a line; readers sum the cells.
const Cells = 8

// cacheLine is the padding unit that keeps two cells off one line.
const cacheLine = 64

// nextCell is the process-wide round-robin cursor of NextCell.
var nextCell atomic.Uint32

// NextCell returns the cell the next instance should write, handing
// cells out round robin across the whole process, so that instances
// built one after another (the shards of a federation) write different
// cells.
func NextCell() int { return int((nextCell.Add(1) - 1) % Cells) }

// counterCell is one cell of a counter family, padded to a full line.
type counterCell struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Counter is a handle on a monotonically increasing metric: it adds to
// one cell of its family and reads the family total. Updates are
// single atomic adds.
type Counter struct {
	cells *[Cells]counterCell
	v     *atomic.Uint64 // this handle's cell
}

// newCounters returns the handles of a fresh counter family, one per
// cell.
func newCounters() *[Cells]Counter {
	cells := new([Cells]counterCell)
	hs := new([Cells]Counter)
	for k := range hs {
		hs[k] = Counter{cells: cells, v: &cells[k].v}
	}
	return hs
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the family's count, summed over its cells.
func (c *Counter) Value() uint64 {
	var n uint64
	for k := range c.cells {
		n += c.cells[k].v.Load()
	}
	return n
}

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

// Histogram is a handle on a histogram family: it counts observations
// into cumulative "le" buckets, exactly like a Prometheus histogram,
// in one cell of the family, and reads the family totals. Observations
// are lock-free: one atomic add for the bucket and one for the count,
// plus a compare-and-swap for the running sum.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	words  []atomic.Uint64 // every cell, cell k at words[k*stride:]
	stride int
	cell   []atomic.Uint64 // this handle's cell
}

// Word offsets within a histogram cell: the observation count, the
// running sum (float64 bits), then len(bounds)+1 bucket counts, the
// last being the +Inf bucket. A line of padding follows each cell.
const (
	histCount   = 0
	histSum     = 1
	histBuckets = 2
)

// newHistograms returns the handles of a fresh histogram family, one
// per cell, all sharing one backing array.
func newHistograms(bounds []float64) *[Cells]Histogram {
	stride := histBuckets + len(bounds) + 1 + cacheLine/8
	words := make([]atomic.Uint64, Cells*stride)
	hs := new([Cells]Histogram)
	for k := range hs {
		lo := k * stride
		hs[k] = Histogram{bounds: bounds, words: words, stride: stride,
			cell: words[lo : lo+stride-cacheLine/8]}
	}
	return hs
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
	i := 0 // first bound >= v
	for i < len(h.bounds) && h.bounds[i] < v {
		i++
	}
	c := h.cell
	c[histBuckets+i].Add(1)
	c[histCount].Add(1)
	for {
		old := c[histSum].Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if c[histSum].CompareAndSwap(old, nv) {
			return
		}
	}
}

// total sums word i of every cell.
func (h *Histogram) total(i int) uint64 {
	var n uint64
	for k := 0; k < Cells; k++ {
		n += h.words[k*h.stride+i].Load()
	}
	return n
}

// Count returns the family's number of observations.
func (h *Histogram) Count() uint64 { return h.total(histCount) }

// Sum returns the sum of the family's observed values.
func (h *Histogram) Sum() float64 {
	var s float64
	for k := 0; k < Cells; k++ {
		s += math.Float64frombits(h.words[k*h.stride+histSum].Load())
	}
	return s
}

// Registry holds named metrics and the decision-event log. Metric
// constructors are get-or-create: the first call for a name creates the
// metric and registers its help text, later calls return the same
// handle. Instrumented packages should call the constructor once and
// cache the handle; the constructors take a read-write lock and are not
// meant for per-operation paths.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*[Cells]Counter
	gauges   map[string]*Gauge
	hists    map[string]*[Cells]Histogram
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
		counters: make(map[string]*[Cells]Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*[Cells]Histogram),
		help:     make(map[string]string),
	}
}

// Counter returns the handle on cell 0 of the counter registered under
// name, creating the family (and recording help for it) on first use.
func (r *Registry) Counter(name, help string) *Counter { return r.Cell(0).Counter(name, help) }

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

// Histogram returns the handle on cell 0 of the histogram registered
// under name, creating the family with the given ascending bucket upper
// bounds on first use (nil means DefSecondsBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.Cell(0).Histogram(name, help, bounds)
}

// Events returns the registry's decision-event log.
func (r *Registry) Events() *EventLog { return &r.events }

// Cell returns the view of r whose counter and histogram handles write
// cell k, 0 <= k < Cells. Every view sees the same families, gauges
// and event log.
func (r *Registry) Cell(k int) Cell {
	if k < 0 || k >= Cells {
		panic("telemetry: cell out of range")
	}
	return Cell{r: r, k: k}
}

// Cell is a view of a registry bound to one cell (Registry.Cell). Its
// constructors are those of the registry, except that counter and
// histogram handles write the view's cell; gauges and the event log
// are single, since they hold last-writer values.
type Cell struct {
	r *Registry
	k int
}

// PerCell resolves one handle set per cell of r, set k from
// r.Cell(k). An instance then picks its set with NextCell when it is
// built.
func PerCell[T any](r *Registry, resolve func(Cell) T) (sets [Cells]T) {
	for k := range sets {
		sets[k] = resolve(r.Cell(k))
	}
	return sets
}

// Counter returns the view's handle on the counter registered under
// name, creating the family on first use.
func (c Cell) Counter(name, help string) *Counter {
	r := c.r
	r.mu.RLock()
	hs, ok := r.counters[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if hs, ok = r.counters[name]; !ok {
			hs = newCounters()
			r.counters[name] = hs
			r.setHelp(name, help)
		}
		r.mu.Unlock()
	}
	return &hs[c.k]
}

// Gauge returns the registry's gauge registered under name
// (Registry.Gauge).
func (c Cell) Gauge(name, help string) *Gauge { return c.r.Gauge(name, help) }

// Histogram returns the view's handle on the histogram registered under
// name, creating the family on first use (Registry.Histogram).
func (c Cell) Histogram(name, help string, bounds []float64) *Histogram {
	r := c.r
	r.mu.RLock()
	hs, ok := r.hists[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if hs, ok = r.hists[name]; !ok {
			if bounds == nil {
				bounds = DefSecondsBuckets
			}
			hs = newHistograms(append([]float64(nil), bounds...))
			r.hists[name] = hs
			r.setHelp(name, help)
		}
		r.mu.Unlock()
	}
	return &hs[c.k]
}

// Events returns the registry's decision-event log.
func (c Cell) Events() *EventLog { return c.r.Events() }

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
