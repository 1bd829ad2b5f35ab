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
// A CLIP instance is safe for concurrent use. Profiles and scheduling
// decisions are memoized: repeated Schedule calls for the same
// (application, bound, options) return a cached decision, concurrent
// misses are deduplicated singleflight-style so the underlying work
// runs once, and Schedule hands out a deep clone so callers may mutate
// the returned plan without corrupting the cache.
package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coordinator"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/singleflight"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Metrics is CLIP's telemetry handle set, resolved once per registry
// (see internal/telemetry): cache effectiveness of the memoized
// knowledge-database and decision caches, singleflight dedups, cold
// scheduling latency, decisions per scalability class, and the decision
// event every Schedule call appends (app, bound, class, NP,
// configuration, budget split, cache hit/miss). It also carries the
// handle set of the instance's coordinator.
type Metrics struct {
	profileHits, profileMisses   *telemetry.Counter
	decisionHits, decisionMisses *telemetry.Counter
	flightShared, schedules      *telemetry.Counter
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
		flightShared: r.Counter("clip_singleflight_shared_total",
			"concurrent duplicate calls deduplicated singleflight-style"),
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
	// DB seeds the knowledge database (e.g. loaded from disk).
	DB *profile.DB
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

// CLIP is the scheduler. It is safe for concurrent use: profiles,
// fitted predictors and full cluster-level decisions are cached behind
// a read-write lock, and cache misses are computed under singleflight
// so concurrent callers of the same application share one profiling or
// scheduling pass instead of duplicating it or serialising on a single
// big lock.
type CLIP struct {
	Cluster *hw.Cluster
	NPModel *perfmodel.NPModel

	db    *profile.DB
	coord *coordinator.Coordinator
	prof  *profile.Profiler

	mu        sync.RWMutex // guards preds and decisions
	preds     map[string]*perfmodel.Predictor
	decisions map[decisionKey]*coordinator.Decision

	flight singleflight.Group
	// m is the bound handle set (nil publishes to telemetry.Default).
	m atomic.Pointer[Metrics]
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

// decisionKey memoizes Schedule: one entry per application and bound
// (the coordinator options are fixed when the CLIP instance is built).
type decisionKey struct {
	app   string
	bound float64
}

// flightKey renders the key for singleflight (string-keyed). %x-style
// float formatting is exact, so distinct keys never collide.
func (k decisionKey) flightKey() string {
	return "sched:" + k.app + "|" + strconv.FormatFloat(k.bound, 'x', -1, 64)
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
		Cluster:   cl,
		db:        o.DB,
		preds:     make(map[string]*perfmodel.Predictor),
		decisions: make(map[decisionKey]*coordinator.Decision),
		coord:     &coordinator.Coordinator{Cluster: cl, EnergyTolerance: o.EnergyTolerance},
		prof:      &profile.Profiler{Cluster: cl},
	}
	if c.db == nil {
		c.db = profile.NewDB()
	}
	c.NPModel = o.NPModel
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

// DB exposes the knowledge database (for persistence and inspection).
func (c *CLIP) DB() *profile.DB { return c.db }

// Profile returns the knowledge-database record for app, running smart
// profiling on a cache miss (the paper's application execution module
// checks the database first). Concurrent misses for the same
// application share one profiling pass.
func (c *CLIP) Profile(app *workload.Spec) (*profile.Profile, error) {
	m := c.metrics()
	if p, ok := c.db.Get(app.Name); ok {
		m.profileHits.Inc()
		return p, nil
	}
	v, err, shared := c.flight.Do("profile:"+app.Name, func() (interface{}, error) {
		if p, ok := c.db.Get(app.Name); ok {
			m.profileHits.Inc()
			return p, nil
		}
		m.profileMisses.Inc()
		p, err := c.prof.Full(app, c.NPModel)
		if err != nil {
			return nil, fmt.Errorf("core: profile %s: %w", app.Name, err)
		}
		c.db.Put(p)
		return p, nil
	})
	if shared {
		m.flightShared.Inc()
	}
	if err != nil {
		return nil, err
	}
	return v.(*profile.Profile), nil
}

// predictor returns (and caches) the piecewise performance predictor
// for app, profiling on demand.
func (c *CLIP) predictor(app *workload.Spec) (*profile.Profile, *perfmodel.Predictor, error) {
	c.mu.RLock()
	pd, ok := c.preds[app.Name]
	c.mu.RUnlock()
	if ok {
		p, err := c.Profile(app) // knowledge-database hit by construction
		if err != nil {
			return nil, nil, err
		}
		return p, pd, nil
	}
	type pair struct {
		p  *profile.Profile
		pd *perfmodel.Predictor
	}
	v, err, _ := c.flight.Do("pred:"+app.Name, func() (interface{}, error) {
		p, err := c.Profile(app)
		if err != nil {
			return nil, err
		}
		c.mu.RLock()
		pd, ok := c.preds[app.Name]
		c.mu.RUnlock()
		if ok {
			return pair{p, pd}, nil
		}
		pd, err = perfmodel.NewPredictor(c.Cluster.Spec(), p)
		if err != nil {
			return nil, fmt.Errorf("core: predictor %s: %w", app.Name, err)
		}
		c.mu.Lock()
		c.preds[app.Name] = pd
		c.mu.Unlock()
		return pair{p, pd}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	pr := v.(pair)
	return pr.p, pr.pd, nil
}

// Predictor returns the knowledge-database profile and the fitted
// piecewise performance predictor for app, profiling on demand. It is
// exported for experiment harnesses (ablations drive the coordinator
// directly).
func (c *CLIP) Predictor(app *workload.Spec) (*profile.Profile, *perfmodel.Predictor, error) {
	return c.predictor(app)
}

// Schedule produces the full cluster-level decision for app under a
// total power bound (watts over the CPU+DRAM domains of all
// participating nodes). Decisions are memoized per (application,
// bound): repeated and concurrent requests share one
// profile/predictor/coordination pass and then serve clones of the
// cached decision, so callers may freely annotate the returned plan.
func (c *CLIP) Schedule(app *workload.Spec, bound float64) (*coordinator.Decision, error) {
	m := c.metrics()
	key := decisionKey{app: app.Name, bound: bound}
	c.mu.RLock()
	d, ok := c.decisions[key]
	c.mu.RUnlock()
	if ok {
		m.decisionHits.Inc()
		m.recordDecision(app.Name, bound, d, true)
		return d.Clone(), nil
	}
	v, err, shared := c.flight.Do(key.flightKey(), func() (interface{}, error) {
		c.mu.RLock()
		d, ok := c.decisions[key]
		c.mu.RUnlock()
		if ok {
			m.decisionHits.Inc()
			return d, nil
		}
		m.decisionMisses.Inc()
		start := time.Now()
		p, pd, err := c.predictor(app)
		if err != nil {
			return nil, err
		}
		coord := *c.coord
		coord.Metrics = m.coord
		d, err = coord.Schedule(app, p, pd, bound)
		if err != nil {
			return nil, err // infeasible bounds are not cached
		}
		m.scheduleSeconds.Observe(time.Since(start).Seconds())
		c.mu.Lock()
		c.decisions[key] = d
		c.mu.Unlock()
		return d, nil
	})
	if shared {
		m.flightShared.Inc()
	}
	if err != nil {
		return nil, err
	}
	d = v.(*coordinator.Decision)
	m.recordDecision(app.Name, bound, d, false)
	return d.Clone(), nil
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
