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
// A CLIP instance is safe for concurrent use. Its answers come from two
// memo tables. The knowledge table (Knowledge) is the paper's knowledge
// database and the only place a profile lives. It belongs to a node
// spec and may be shared by every instance over clusters of that spec:
// per application it holds the profile, the fitted predictor and the
// candidate grid, whose budget intervals hold the node-configuration
// answers. The decision table is the instance's own, one entry per
// (application, bound). An entry is filled once under its own lock, so
// concurrent first requests for one key wait for a single profiling,
// search or scheduling pass, and Schedule hands out a deep clone so
// callers may mutate the returned plan without corrupting the table.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coordinator"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/recommend"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Metrics is CLIP's telemetry handle set, resolved once per registry cell
// (see internal/telemetry): hits and misses of the knowledge and
// decision tables, callers that waited on another caller's decision
// fill, cold scheduling latency, decisions per scalability class, and
// the decision event every Schedule call appends (app, bound, class,
// NP, configuration, budget split, cache hit/miss). It also carries the
// handle set of the instance's coordinator.
type Metrics struct {
	profileHits, profileMisses   *telemetry.Counter
	decisionHits, decisionMisses *telemetry.Counter
	waited, schedules            *telemetry.Counter
	scheduleSeconds              *telemetry.Histogram
	byClass                      [len(classNames)]*telemetry.Counter
	cell                         telemetry.Cell
	events                       *telemetry.EventLog
	coord                        *coordinator.Metrics
}

// classNames are the scalability classes a decision can carry, in the
// order of Metrics.byClass.
var classNames = [...]string{workload.Linear.String(), workload.Logarithmic.String(), workload.Parabolic.String()}

// classHelp is the help text of clip_decisions_by_class_total.
const classHelp = "scheduling decisions per scalability class (paper Table I axis)"

// NewMetrics resolves CLIP's handle set from a registry cell.
func NewMetrics(r telemetry.Cell) *Metrics {
	m := &Metrics{
		profileHits: r.Counter("clip_profile_cache_hits_total",
			"CLIP.Profile and CLIP.Advisor calls that found the profile in the knowledge table"),
		profileMisses: r.Counter("clip_profile_cache_misses_total",
			"CLIP.Profile and CLIP.Advisor calls that ran the smart-profiling pass (one per application per knowledge table)"),
		decisionHits: r.Counter("clip_decision_cache_hits_total",
			"memoized scheduling decisions served from cache"),
		decisionMisses: r.Counter("clip_decision_cache_misses_total",
			"scheduling decisions computed from scratch"),
		waited: r.Counter("clip_singleflight_shared_total",
			"CLIP.Schedule calls that waited on another caller's fill of the same decision-table entry"),
		schedules: r.Counter("clip_schedules_total",
			"CLIP.Schedule calls (cache hits included)"),
		scheduleSeconds: r.Histogram("clip_schedule_seconds",
			"wall time of cold (uncached) scheduling decisions", nil),
		cell:   r,
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
	return m.cell.Counter(telemetry.Label("clip_decisions_by_class_total", "class", class), classHelp)
}

// cellMetrics holds one handle set per cell of telemetry.Default; each
// CLIP instance, and its coordinator, publishes to the set of the cell
// it takes when it is built.
var cellMetrics = telemetry.PerCell(telemetry.Default, NewMetrics)

// Options configures CLIP construction.
type Options struct {
	// Knowledge is the knowledge table the instance reads and fills
	// (see NewKnowledge); it must have been built for the cluster's node
	// spec. Instances that share one profile each application once and
	// fill each budget interval of its grid once. Nil builds a private
	// table, training the NP regression on the cluster's spec.
	Knowledge *Knowledge
	// EnergyTolerance switches the node-level objective to energy-aware
	// selection: minimum predicted energy within this relative slowdown
	// of the fastest configuration (0 = pure performance, the paper's
	// objective). New rejects a negative or NaN tolerance.
	EnergyTolerance float64
}

// CLIP is the scheduler. It is safe for concurrent use. It reads and
// fills its profiles, predictors and node-level answers in a knowledge
// table and keeps its own decision table, one decisionEntry per
// (application, bound). Each answer is filled once, under its entry's
// lock, so concurrent callers of one key wait for that single fill; a
// caller that finds the answer filled reads it without a lock. Errors
// are not cached.
type CLIP struct {
	Cluster *hw.Cluster
	NPModel *perfmodel.NPModel

	know  *Knowledge
	coord *coordinator.Coordinator

	decisions table[decisionKey, decisionEntry]

	// m is the instance's handle set, fixed by New.
	m *Metrics
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

// Knowledge is the knowledge database (paper §IV-B3) of one node spec,
// and the only place a profile lives: the NP regression and, per
// application, an Advisor holding the profile, the fitted predictor and
// the candidate grid, whose budget intervals hold the node-configuration
// answers. CLIP reads it before it profiles. Profiling runs uncapped on
// one nominal node of the spec, so every answer is a function of the
// spec and the application alone, and CLIP instances over clusters of
// one spec (a federation's shards) can share one table: each
// application is profiled once and each interval of its grid is filled
// once. A table is filled on demand and never emptied, but it holds at
// most one grid per application and one contender list per breakpoint
// of that grid; its owner scopes it (one per federation), so independent
// runs do not see each other's answers.
type Knowledge struct {
	spec  *hw.NodeSpec
	model *perfmodel.NPModel
	prof  profile.Profiler
	apps  table[string, Advisor]
}

// NewKnowledge returns an empty knowledge table for a node spec and an
// NP regression trained on it (TrainNPModel). It profiles nothing until
// asked.
func NewKnowledge(spec *hw.NodeSpec, model *perfmodel.NPModel) *Knowledge {
	return &Knowledge{
		spec:  spec,
		model: model,
		prof:  profile.Profiler{Cluster: hw.NewCluster(1, spec, 0, 0)},
	}
}

// Advisor is one application's entry in a knowledge table: its profile
// and its fitted predictor and candidate grid, whose budget intervals
// hold the node-configuration answers. The profile, then the grid, is
// filled once under mu and read with an atomic load; CLIP hands an
// advisor out only once both are.
type Advisor struct {
	mu   sync.Mutex
	p    atomic.Pointer[profile.Profile]
	grid atomic.Pointer[recommend.Grid]
}

// Profile returns the application's profile.
func (a *Advisor) Profile() *profile.Profile { return a.p.Load() }

// Predictor returns the application's fitted performance predictor.
func (a *Advisor) Predictor() *perfmodel.Predictor { return a.grid.Load().Predictor() }

// Best returns the node configuration recommend's grid search picks for
// a per-node budget and energy tolerance. Every CLIP instance sharing
// the table asks the same grid, which fills each budget interval's
// contenders once.
func (a *Advisor) Best(perNode, tolerance float64) (recommend.NodeConfig, bool) {
	return a.grid.Load().Best(perNode, tolerance)
}

// Intervals returns how many budget intervals the table's grids have
// filled: one per (application, interval) asked about so far.
func (k *Knowledge) Intervals() int {
	n := 0
	k.apps.m.Range(func(_, a any) bool {
		if g := a.(*Advisor).grid.Load(); g != nil {
			n += g.Filled()
		}
		return true
	})
	return n
}

// Profiles returns the profiles the table holds, keyed by application
// name (for persistence and inspection).
func (k *Knowledge) Profiles() map[string]*profile.Profile {
	out := make(map[string]*profile.Profile)
	k.apps.m.Range(func(app, a any) bool {
		if p := a.(*Advisor).p.Load(); p != nil {
			out[app.(string)] = p
		}
		return true
	})
	return out
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

var _ plan.Method = (*CLIP)(nil)

// TrainNPModel trains the inflection-point regression for a node spec
// on the default synthetic training set. The model depends on the spec
// alone, so a caller that builds several knowledge tables over one spec
// trains it once and passes it to each NewKnowledge.
func TrainNPModel(spec *hw.NodeSpec) (*perfmodel.NPModel, error) {
	m, err := perfmodel.TrainNP(spec, workload.TrainingSet(42, 7))
	if err != nil {
		return nil, fmt.Errorf("core: train NP model: %w", err)
	}
	return m, nil
}

// New builds a CLIP instance for a cluster. Without Options.Knowledge
// it builds a private knowledge table, training the inflection-point
// regression on the cluster's node spec. Training is the paper's
// one-time offline cost only when a caller that builds several
// instances over one spec trains once (TrainNPModel) or shares one
// table.
func New(cl *hw.Cluster, opts ...Options) (*CLIP, error) {
	if err := cl.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.EnergyTolerance < 0 || math.IsNaN(o.EnergyTolerance) {
		return nil, fmt.Errorf("core: energy tolerance %v is not a non-negative slowdown", o.EnergyTolerance)
	}
	know := o.Knowledge
	if know == nil {
		m, err := TrainNPModel(cl.Spec())
		if err != nil {
			return nil, err
		}
		know = NewKnowledge(cl.Spec(), m)
	} else if know.spec != cl.Spec() {
		return nil, fmt.Errorf("core: knowledge table built for a different node spec")
	}
	m := cellMetrics[telemetry.NextCell()]
	return &CLIP{
		Cluster: cl,
		NPModel: know.model,
		know:    know,
		coord:   &coordinator.Coordinator{Cluster: cl, EnergyTolerance: o.EnergyTolerance, Metrics: m.coord},
		m:       m,
	}, nil
}

// Knowledge returns the knowledge table the instance reads and fills.
func (c *CLIP) Knowledge() *Knowledge { return c.know }

// Name implements plan.Method.
func (c *CLIP) Name() string { return "CLIP" }

// Profile returns app's record in the knowledge table, running smart
// profiling on the table's first request (the paper's application
// execution module checks the database first). Concurrent first
// requests share one profiling pass.
func (c *CLIP) Profile(app *workload.Spec) (*profile.Profile, error) {
	a, err := c.fill(app, false)
	if err != nil {
		return nil, err
	}
	return a.Profile(), nil
}

// Advisor returns app's entry in the knowledge table, profiling and
// fitting on the table's first request; a failed fit leaves the profile
// cached. The advisor answers node-level configuration questions
// (Advisor.Best) once for every instance sharing the table.
func (c *CLIP) Advisor(app *workload.Spec) (*Advisor, error) { return c.fill(app, true) }

// fill returns app's advisor with its profile filled and, when fit is
// set, its predictor and grid too. It counts one profile hit, or one
// miss on the call that runs the profiling pass.
func (c *CLIP) fill(app *workload.Spec, fit bool) (*Advisor, error) {
	a := c.know.apps.entry(app.Name)
	if a.grid.Load() != nil || !fit && a.p.Load() != nil {
		c.m.profileHits.Inc()
		return a, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	p := a.p.Load()
	if p != nil {
		c.m.profileHits.Inc()
	} else {
		c.m.profileMisses.Inc()
		var err error
		if p, err = c.know.prof.Full(app, c.know.model); err != nil {
			return nil, fmt.Errorf("core: profile %s: %w", app.Name, err)
		}
		a.p.Store(p)
	}
	if fit && a.grid.Load() == nil {
		pd, err := perfmodel.NewPredictor(c.know.spec, p)
		if err != nil {
			return nil, fmt.Errorf("core: predictor %s: %w", app.Name, err)
		}
		a.grid.Store(recommend.NewGrid(c.know.spec, p, pd))
	}
	return a, nil
}

// Schedule produces the full cluster-level decision for app under a
// total power bound (watts over the CPU+DRAM domains of all
// participating nodes). Decisions are memoized per (application,
// bound): repeated and concurrent requests share one
// profile/predictor/coordination pass and then all receive the cached
// decision itself, which callers must treat as read-only.
func (c *CLIP) Schedule(app *workload.Spec, bound float64) (*coordinator.Decision, error) {
	if !(bound > 0) {
		// Rejected before the lookup: a NaN key never matches, so it
		// would add an entry per call.
		return nil, fmt.Errorf("coordinator: non-positive bound %.1f W", bound)
	}
	e := c.decisions.entry(decisionKey{app: app.Name, bound: bound})
	if d := e.d.Load(); d != nil {
		c.m.decisionHits.Inc()
		c.m.recordDecision(app.Name, bound, d, true)
		return d, nil
	}
	d, err := c.fillDecision(e, app, bound)
	if err != nil {
		return nil, err
	}
	c.m.recordDecision(app.Name, bound, d, false)
	return d, nil
}

// fillDecision returns e's decision, coordinating it unless another
// caller filled it while this one waited for e.mu. Infeasible bounds
// are not cached.
func (c *CLIP) fillDecision(e *decisionEntry, app *workload.Spec, bound float64) (*coordinator.Decision, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d := e.d.Load(); d != nil {
		c.m.waited.Inc()
		return d, nil
	}
	c.m.decisionMisses.Inc()
	start := time.Now()
	a, err := c.Advisor(app)
	if err != nil {
		return nil, err
	}
	d, err := c.coord.Schedule(app, a, bound)
	if err != nil {
		return nil, err
	}
	c.m.scheduleSeconds.Observe(time.Since(start).Seconds())
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
