// Package core is the CLIP framework façade (paper §IV): it wires the
// smart profiling module, the knowledge database, the trained
// inflection-point regression, the node-level configuration
// recommendation and the cluster-level power coordinator into a single
// power-bounded scheduler.
//
// Typical use:
//
//	cl := hw.Haswell()
//	clip, _ := core.New(cl)
//	res, _ := clip.Run(workload.SPMZ(), 800) // 800 W cluster bound
//
// A CLIP instance is safe for concurrent use. It memoizes each answer
// in one table: profiles and fitted predictors per application, and
// decisions per (application, bound). An entry is filled once under its
// own lock, so concurrent first requests for one key wait for a single
// profiling or scheduling pass, and Schedule hands out a deep clone so
// callers may mutate the returned plan without corrupting the table.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coordinator"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Metrics is CLIP's telemetry handle set, resolved once per registry
// (see internal/telemetry): hits and misses of the profile and decision
// tables, callers that waited on another caller's fill, cold scheduling
// latency, decisions per scalability class, and the decision
// event every Schedule call appends (app, bound, class, NP,
// configuration, budget split, cache hit/miss). It also carries the
// handle set of the instance's coordinator.
type Metrics struct {
	profileHits, profileMisses   *telemetry.Counter
	decisionHits, decisionMisses *telemetry.Counter
	waited, schedules            *telemetry.Counter
	scheduleSeconds              *telemetry.Histogram
	byClass                      [len(classNames)]*telemetry.Counter
	reg                          *telemetry.Registry
	events                       *telemetry.EventLog
	coord                        *coordinator.Metrics
}

// classNames are the scalability classes a decision can carry, in the
// order of Metrics.byClass.
var classNames = [...]string{workload.Linear.String(), workload.Logarithmic.String(), workload.Parabolic.String()}

// classHelp is the help text of clip_decisions_by_class_total.
const classHelp = "scheduling decisions per scalability class (paper Table I axis)"

// NewMetrics resolves CLIP's handle set from r.
func NewMetrics(r *telemetry.Registry) *Metrics {
	m := &Metrics{
		profileHits: r.Counter("clip_profile_cache_hits_total",
			"knowledge-database hits in CLIP.Profile"),
		profileMisses: r.Counter("clip_profile_cache_misses_total",
			"knowledge-database misses (full smart-profiling passes)"),
		decisionHits: r.Counter("clip_decision_cache_hits_total",
			"memoized scheduling decisions served from cache"),
		decisionMisses: r.Counter("clip_decision_cache_misses_total",
			"scheduling decisions computed from scratch"),
		waited: r.Counter("clip_singleflight_shared_total",
			"calls that waited on another caller's fill of the same memo entry"),
		schedules: r.Counter("clip_schedules_total",
			"CLIP.Schedule calls (cache hits included)"),
		scheduleSeconds: r.Histogram("clip_schedule_seconds",
			"wall time of cold (uncached) scheduling decisions", nil),
		reg:    r,
		events: r.Events(),
		coord:  coordinator.NewMetrics(r),
	}
	for i, c := range classNames {
		m.byClass[i] = r.Counter(telemetry.Label("clip_decisions_by_class_total", "class", c), classHelp)
	}
	return m
}

// classCounter returns the decision counter of a scalability class,
// resolved once per handle set for the known classes.
func (m *Metrics) classCounter(class string) *telemetry.Counter {
	for i, c := range classNames {
		if c == class {
			return m.byClass[i]
		}
	}
	return m.reg.Counter(telemetry.Label("clip_decisions_by_class_total", "class", class), classHelp)
}

// defaultMetrics is the handle set of every CLIP instance not bound
// elsewhere.
var defaultMetrics = NewMetrics(telemetry.Default)

// Options configures CLIP construction.
type Options struct {
	// NPModel injects a pre-trained regression (see TrainNPModel),
	// skipping training. It must have been trained on the cluster's
	// node spec.
	NPModel *perfmodel.NPModel
	// EnergyTolerance switches the node-level objective to energy-aware
	// selection: minimum predicted energy within this relative slowdown
	// of the fastest configuration (0 = pure performance, the paper's
	// objective).
	EnergyTolerance float64
}

// CLIP is the scheduler. It is safe for concurrent use. It keeps one
// memo table per question: an appEntry per application (the profile and
// the fitted predictor) and a decisionEntry per (application, bound).
// Each answer is filled once, under its entry's lock, so concurrent
// callers of one key wait for that single fill; a caller that finds the
// answer filled reads it without a lock. Errors are not cached.
type CLIP struct {
	Cluster *hw.Cluster
	NPModel *perfmodel.NPModel

	db    *profile.DB
	coord *coordinator.Coordinator
	prof  *profile.Profiler

	apps      table[string, appEntry]
	decisions table[decisionKey, decisionEntry]

	// m is the bound handle set (nil publishes to telemetry.Default).
	m atomic.Pointer[Metrics]
}

// table is a memo table: one entry per key, made on first use and never
// removed. Looking up an existing entry takes no exclusive lock once
// the map has settled.
type table[K comparable, E any] struct{ m sync.Map }

// entry returns the entry of k, making it on first use.
func (t *table[K, E]) entry(k K) *E {
	if e, ok := t.m.Load(k); ok {
		return e.(*E)
	}
	e, _ := t.m.LoadOrStore(k, new(E))
	return e.(*E)
}

// appEntry memoizes one application: its knowledge-database profile and
// its fitted predictor, each filled once under mu. The profile is
// stored before the predictor, so a loaded predictor implies a profile.
type appEntry struct {
	mu sync.Mutex
	p  atomic.Pointer[profile.Profile]
	pd atomic.Pointer[perfmodel.Predictor]
}

// decisionKey keys the decision table: one entry per application and
// bound (the coordinator options are fixed when the CLIP instance is
// built).
type decisionKey struct {
	app   string
	bound float64
}

// decisionEntry memoizes one cluster-level decision, filled once under
// mu.
type decisionEntry struct {
	mu sync.Mutex
	d  atomic.Pointer[coordinator.Decision]
}

// SetMetrics binds the instance's telemetry, its coordinator's
// included, to a handle set (nil means telemetry.Default). It is safe
// to call while other goroutines schedule: each call publishes to the
// handle set bound when it started.
func (c *CLIP) SetMetrics(m *Metrics) { c.m.Store(m) }

// metrics returns the bound handle set.
func (c *CLIP) metrics() *Metrics {
	if m := c.m.Load(); m != nil {
		return m
	}
	return defaultMetrics
}

var _ plan.Method = (*CLIP)(nil)

// TrainNPModel trains the inflection-point regression for a node spec
// on the default synthetic training set. The model depends on the spec
// alone, so a caller that builds several CLIP instances over one spec
// trains it once and passes it to each through Options.NPModel.
func TrainNPModel(spec *hw.NodeSpec) (*perfmodel.NPModel, error) {
	m, err := perfmodel.TrainNP(spec, workload.TrainingSet(42, 7))
	if err != nil {
		return nil, fmt.Errorf("core: train NP model: %w", err)
	}
	return m, nil
}

// New builds a CLIP instance for a cluster. Without Options.NPModel it
// trains the inflection-point regression on the cluster's node spec.
// Training is the paper's one-time offline cost only when a caller that
// builds several instances over one spec trains once (TrainNPModel) and
// passes the model to each.
func New(cl *hw.Cluster, opts ...Options) (*CLIP, error) {
	if err := cl.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	c := &CLIP{
		Cluster: cl,
		NPModel: o.NPModel,
		db:      profile.NewDB(),
		coord:   &coordinator.Coordinator{Cluster: cl, EnergyTolerance: o.EnergyTolerance},
		prof:    &profile.Profiler{Cluster: cl},
	}
	if c.NPModel == nil {
		m, err := TrainNPModel(cl.Spec())
		if err != nil {
			return nil, err
		}
		c.NPModel = m
	}
	return c, nil
}

// Name implements plan.Method.
func (c *CLIP) Name() string { return "CLIP" }

// DB exposes the knowledge database, which holds every profile this
// instance has filled (for persistence and inspection).
func (c *CLIP) DB() *profile.DB { return c.db }

// Profile returns the knowledge-database record for app, running smart
// profiling on its first request (the paper's application execution
// module checks the database first). Concurrent first requests share
// one profiling pass.
func (c *CLIP) Profile(app *workload.Spec) (*profile.Profile, error) {
	m := c.metrics()
	e := c.apps.entry(app.Name)
	if p := e.p.Load(); p != nil {
		m.profileHits.Inc()
		return p, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return c.fillProfile(e, app, m, true)
}

// fillProfile returns e's profile, profiling app unless it is filled.
// The caller holds e.mu; missed reports that it found no profile before
// taking the lock, so a profile found now was filled while it waited.
// It counts one profile hit or miss.
func (c *CLIP) fillProfile(e *appEntry, app *workload.Spec, m *Metrics, missed bool) (*profile.Profile, error) {
	if p := e.p.Load(); p != nil {
		m.profileHits.Inc()
		if missed {
			m.waited.Inc()
		}
		return p, nil
	}
	m.profileMisses.Inc()
	p, err := c.prof.Full(app, c.NPModel)
	if err != nil {
		return nil, fmt.Errorf("core: profile %s: %w", app.Name, err)
	}
	c.db.Put(p)
	e.p.Store(p)
	return p, nil
}

// Predictor returns the knowledge-database profile and the fitted
// piecewise performance predictor for app, profiling and fitting on its
// first request. A failed fit leaves the profile cached.
func (c *CLIP) Predictor(app *workload.Spec) (*profile.Profile, *perfmodel.Predictor, error) {
	m := c.metrics()
	e := c.apps.entry(app.Name)
	if pd := e.pd.Load(); pd != nil {
		m.profileHits.Inc()
		return e.p.Load(), pd, nil
	}
	missed := e.p.Load() == nil
	e.mu.Lock()
	defer e.mu.Unlock()
	if pd := e.pd.Load(); pd != nil {
		m.profileHits.Inc()
		m.waited.Inc()
		return e.p.Load(), pd, nil
	}
	p, err := c.fillProfile(e, app, m, missed)
	if err != nil {
		return nil, nil, err
	}
	pd, err := perfmodel.NewPredictor(c.Cluster.Spec(), p)
	if err != nil {
		return nil, nil, fmt.Errorf("core: predictor %s: %w", app.Name, err)
	}
	e.pd.Store(pd)
	return p, pd, nil
}

// Schedule produces the full cluster-level decision for app under a
// total power bound (watts over the CPU+DRAM domains of all
// participating nodes). Decisions are memoized per (application,
// bound): repeated and concurrent requests share one
// profile/predictor/coordination pass and then serve clones of the
// cached decision, so callers may freely annotate the returned plan.
func (c *CLIP) Schedule(app *workload.Spec, bound float64) (*coordinator.Decision, error) {
	m := c.metrics()
	e := c.decisions.entry(decisionKey{app: app.Name, bound: bound})
	if d := e.d.Load(); d != nil {
		m.decisionHits.Inc()
		m.recordDecision(app.Name, bound, d, true)
		return d.Clone(), nil
	}
	d, err := c.fillDecision(e, app, bound, m)
	if err != nil {
		return nil, err
	}
	m.recordDecision(app.Name, bound, d, false)
	return d.Clone(), nil
}

// fillDecision returns e's decision, coordinating it unless another
// caller filled it while this one waited for e.mu. Infeasible bounds
// are not cached.
func (c *CLIP) fillDecision(e *decisionEntry, app *workload.Spec, bound float64, m *Metrics) (*coordinator.Decision, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d := e.d.Load(); d != nil {
		m.waited.Inc()
		return d, nil
	}
	m.decisionMisses.Inc()
	start := time.Now()
	p, pd, err := c.Predictor(app)
	if err != nil {
		return nil, err
	}
	coord := *c.coord
	coord.Metrics = m.coord
	d, err := coord.Schedule(app, p, pd, bound)
	if err != nil {
		return nil, err
	}
	m.scheduleSeconds.Observe(time.Since(start).Seconds())
	e.d.Store(d)
	return d, nil
}

// recordDecision appends one schedule event to the telemetry decision
// log — the provenance trail that lets a configuration choice be traced
// back to the power bound and scalability class that produced it.
func (m *Metrics) recordDecision(app string, bound float64, d *coordinator.Decision, cacheHit bool) {
	m.schedules.Inc()
	m.classCounter(d.Class).Inc()
	m.events.Append(telemetry.Event{
		Kind:        telemetry.KindSchedule,
		App:         app,
		BoundWatts:  bound,
		Class:       d.Class,
		NP:          d.NP,
		Nodes:       d.Plan.Nodes(),
		Cores:       d.Plan.Cores,
		Sockets:     d.Sockets,
		Affinity:    d.Plan.Affinity.String(),
		CPUWatts:    d.NodeCfg.Budget.CPU,
		MemWatts:    d.NodeCfg.Budget.Mem,
		PredTimeS:   d.PredTime,
		Coordinated: d.Coordinated,
		CacheHit:    cacheHit,
	})
}

// Plan implements plan.Method. The cluster argument must be the one
// CLIP was built for (profiles and the regression are machine
// specific).
func (c *CLIP) Plan(cl *hw.Cluster, app *workload.Spec, bound float64) (*plan.Plan, error) {
	if cl != c.Cluster {
		return nil, fmt.Errorf("core: CLIP was trained for a different cluster")
	}
	d, err := c.Schedule(app, bound)
	if err != nil {
		return nil, err
	}
	return d.Plan, nil
}

// Run schedules and executes app under the bound, returning the
// simulated result.
func (c *CLIP) Run(app *workload.Spec, bound float64) (*sim.Result, error) {
	p, err := c.Plan(c.Cluster, app, bound)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(c.Cluster, bound); err != nil {
		return nil, err
	}
	return plan.Execute(c.Cluster, app, p)
}
