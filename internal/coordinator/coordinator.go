// Package coordinator implements CLIP's cluster level (§III-B,
// Algorithm 1): choose how many nodes participate, give each node a
// power budget within the application's acceptable power range, and
// re-balance budgets across nodes for manufacturing variability
// (Inadomi-style, §III-B2).
//
// Node-count selection follows §III-B1 — "determine the number of
// nodes by predicting the performance with different configurations for
// the given cluster power budget": every admissible process count is
// ranked with the node-level performance model (Algorithm 1's
// floor(Pub/Hi) rule is the special case the prediction reduces to when
// per-node performance is power-linear).
package coordinator

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/recommend"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Metrics is the coordinator's telemetry handle set, resolved once per
// registry cell: schedule and rebalance totals, infeasible node-count
// rejections, duty-cycle fallbacks, the per-node budget gauges and the
// rebalance events. A handle set may serve several coordinators at
// once.
type Metrics struct {
	cell                                            telemetry.Cell
	schedules, rebalances, infeasible, dutyFallback *telemetry.Counter
	events                                          *telemetry.EventLog
	// The per-node budget gauges, indexed by node id, are created on
	// first use (node ids are dynamic) and cached: registering a gauge
	// means building its label string and taking the registry lock.
	nodeMu           sync.Mutex
	nodeCPU, nodeMem []*telemetry.Gauge
}

// NewMetrics resolves the coordinator's handle set from a registry
// cell.
func NewMetrics(r telemetry.Cell) *Metrics {
	return &Metrics{
		cell: r,
		schedules: r.Counter("clip_coordinator_schedules_total",
			"cluster-level scheduling passes (Algorithm 1)"),
		rebalances: r.Counter("clip_coordinator_rebalances_total",
			"variability-aware budget redistributions (paper §III-B2)"),
		infeasible: r.Counter("clip_coordinator_infeasible_counts_total",
			"candidate node counts rejected as infeasible under the bound"),
		dutyFallback: r.Counter("clip_coordinator_dutycycle_fallbacks_total",
			"decisions forced outside the acceptable power range (duty-cycled fallback)"),
		events: r.Events(),
	}
}

// defaultMetrics is the handle set of every coordinator not bound
// elsewhere: cell 0 of telemetry.Default.
var defaultMetrics = NewMetrics(telemetry.Default.Cell(0))

// nodeGauges returns the cached budget gauges for a node id.
func (m *Metrics) nodeGauges(id int) (cpu, mem *telemetry.Gauge) {
	m.nodeMu.Lock()
	defer m.nodeMu.Unlock()
	for len(m.nodeCPU) <= id {
		n := strconv.Itoa(len(m.nodeCPU))
		m.nodeCPU = append(m.nodeCPU, m.cell.Gauge(
			telemetry.Label("clip_node_budget_cpu_watts", "node", n),
			"CPU-domain power budget most recently assigned to the node"))
		m.nodeMem = append(m.nodeMem, m.cell.Gauge(
			telemetry.Label("clip_node_budget_mem_watts", "node", n),
			"DRAM-domain power budget most recently assigned to the node"))
	}
	return m.nodeCPU[id], m.nodeMem[id]
}

// VariabilityThreshold is the spread in per-node power efficiency above
// which inter-node power coordination activates; the paper only
// coordinates "when the manufacture power variability exceeds a
// threshold" because its testbed is quite homogeneous.
const VariabilityThreshold = 0.03

// CommOverheadPerLog2 is the relative per-iteration overhead the
// cluster-level predictor charges per doubling of the node count,
// standing in for communication costs the single-node profile cannot
// see.
const CommOverheadPerLog2 = 0.015

// Decision is the cluster-level scheduling outcome. core.CLIP caches
// one per (application, bound) and hands it to every caller, so a
// returned Decision and its Plan are read-only.
type Decision struct {
	Plan *plan.Plan
	// NodeCfg is the node-level configuration underlying the plan.
	NodeCfg recommend.NodeConfig
	// PredTime is the predicted cluster per-iteration time.
	PredTime float64
	// Coordinated is true when variability-aware re-balancing ran.
	Coordinated bool
	// Class is the scalability class of the profile the decision was
	// computed from (decision provenance for the telemetry event log).
	Class string
	// NP is the predicted concurrency inflection point of that profile.
	NP int
	// Sockets is the number of sockets the chosen configuration
	// occupies per node.
	Sockets int
}

// Coordinator computes cluster-level power allocation decisions.
type Coordinator struct {
	Cluster *hw.Cluster
	// Threshold overrides VariabilityThreshold (ablation support). Zero
	// keeps the paper's default; a negative value disables inter-node
	// coordination entirely.
	Threshold float64
	// EnergyTolerance, when positive, switches node-level selection to
	// the energy-aware objective: minimum predicted energy within this
	// relative slowdown of the fastest configuration.
	EnergyTolerance float64
	// Metrics receives the coordinator's telemetry (nil means cell 0 of
	// telemetry.Default). A coordinator that a CLIP instance or a
	// scheduler run state builds writes its owner's cell.
	Metrics *Metrics
}

// metrics returns the bound handle set.
func (c *Coordinator) metrics() *Metrics {
	if c.Metrics == nil {
		return defaultMetrics
	}
	return c.Metrics
}

// threshold returns the effective variability threshold.
func (c *Coordinator) threshold() float64 {
	if c.Threshold != 0 {
		return c.Threshold
	}
	return VariabilityThreshold
}

// clusterPredict estimates the per-iteration time of an N-node run
// whose nodes deliver per-node whole-job iteration time t1.
func clusterPredict(t1 float64, nodes int) float64 {
	n := float64(nodes)
	return t1 / n * (1 + CommOverheadPerLog2*math.Log2(n))
}

// Placement is the allocation-free result of a Place call: the same
// decision a Schedule pass produces, but written into caller-owned
// storage instead of a freshly built plan.Plan. NodeIDs are node ids of
// the coordinator's cluster, drawn from the pool, and PerNode[i] is the
// budget of node NodeIDs[i]. Place refills both in their own backing
// arrays: they stay valid until the next Place into this Placement.
// PhaseCores aliases the scratch's memo and must be treated as
// read-only.
type Placement struct {
	NodeIDs     []int
	PerNode     []power.Budget
	Cores       int
	Affinity    workload.Affinity
	NodeCfg     recommend.NodeConfig
	PredTime    float64
	Coordinated bool
	PhaseCores  map[string]int
}

// phaseKey memoizes recommend.PhasePlan per (application, core count);
// the profile behind an application is stable once trained, so the
// phase override map is a pure function of this pair.
type phaseKey struct {
	app   *workload.Spec
	cores int
}

// Scratch holds the reusable buffers a Place call works in (no
// Placement points into them) and the phase memo. A Scratch is
// owned by one caller (one scheduler state); the Coordinator itself
// stays stateless so a shared Coordinator may serve concurrent
// Schedule calls, each with its own scratch.
type Scratch struct {
	counts  []int
	ids     []int
	budgets []power.Budget
	phase   map[phaseKey]map[string]int
	// perNode stages a rebalance event's budgets; the event ring copies
	// it into ring-owned storage, so the scratch is reused every pass.
	perNode []telemetry.NodeBudget
}

// phasePlan returns the memoized phase-concurrency override map.
func (sc *Scratch) phasePlan(app *workload.Spec, prof *profile.Profile, cores int) map[string]int {
	k := phaseKey{app: app, cores: cores}
	if m, ok := sc.phase[k]; ok {
		return m
	}
	if sc.phase == nil {
		sc.phase = make(map[phaseKey]map[string]int)
	}
	m := recommend.PhasePlan(app, prof, cores)
	sc.phase[k] = m
	return m
}

// Recommender answers the node-level questions of one application's
// placement: its profile, and the best node configuration under a
// per-node budget and energy tolerance (§IV-B2). A recommend.Grid
// answers directly; the CLIP façade answers from a table shared by every
// CLIP instance of one node spec, so each question is searched once.
type Recommender interface {
	Profile() *profile.Profile
	Best(perNode, tolerance float64) (recommend.NodeConfig, bool)
}

// Sentinel errors of the allocation-free Place path. Schedule maps them
// back to its formatted human-facing messages.
var (
	ErrNonPositiveBound = errors.New("coordinator: non-positive bound")
	ErrNoProcCount      = errors.New("coordinator: no admissible process count")
	ErrInfeasible       = errors.New("coordinator: no feasible node count under bound")
)

// Schedule produces the CLIP decision for app under a total budget of
// bound watts on the whole cluster, asking rec for the profile and the
// node-level answers, and publishes it. Like Place it picks app's
// preferred nodes first; its hard constraints are not applied.
// The plan keeps its own Placement's slices; only PhaseCores is copied.
func (c *Coordinator) Schedule(app *workload.Spec, rec Recommender, bound float64) (*Decision, error) {
	var sc Scratch
	var pl Placement
	if err := c.Place(app, rec, plan.FirstN(c.Cluster.NumNodes()), bound, &sc, &pl); err != nil {
		switch {
		case errors.Is(err, ErrNonPositiveBound):
			return nil, fmt.Errorf("coordinator: non-positive bound %.1f W", bound)
		case errors.Is(err, ErrNoProcCount):
			return nil, fmt.Errorf("coordinator: %s admits no process count on %d nodes",
				app.Name, c.Cluster.NumNodes())
		case errors.Is(err, ErrInfeasible):
			return nil, fmt.Errorf("coordinator: no feasible node count for %s under %.1f W", app.Name, bound)
		}
		return nil, err
	}
	c.Publish(app, bound, &pl, &sc)
	prof := rec.Profile()
	// The Decision may be cached and annotated: copy the memo's map.
	var phases map[string]int
	if len(pl.PhaseCores) > 0 {
		phases = make(map[string]int, len(pl.PhaseCores))
		for k, v := range pl.PhaseCores {
			phases[k] = v
		}
	}
	p := &plan.Plan{
		NodeIDs:    pl.NodeIDs,
		Cores:      pl.Cores,
		Affinity:   pl.Affinity,
		PerNode:    pl.PerNode,
		PhaseCores: phases,
		Notes: fmt.Sprintf("class=%s np=%d nodes=%d cores=%d %s",
			prof.Class, prof.PredictedNP, len(pl.NodeIDs), pl.Cores, pl.NodeCfg.Budget),
	}
	d := &Decision{
		Plan: p, NodeCfg: pl.NodeCfg, PredTime: pl.PredTime, Coordinated: pl.Coordinated,
		Class:   prof.Class.String(),
		NP:      prof.PredictedNP,
		Sockets: sim.SocketsUsedFor(c.Cluster.Spec(), pl.Cores, pl.Affinity),
	}
	return d, nil
}

// Place runs one cluster-level scheduling pass (Algorithm 1) over pool,
// a set of candidate node ids of c.Cluster in any order, into the
// caller's scratch buffers without heap allocation: node-count search,
// node picking and budget assignment — the decision Schedule produces
// for the whole cluster, minus the materialized Plan, with the node ids
// and budgets copied into out's own arrays. It is the hot-path entry
// for the job scheduler's dispatch loop. Node counts are drawn from
// len(pool), and each asks rec for the best configuration under its
// per-node share of the bound. Place publishes no gauge and no event
// (only the infeasible and duty-cycle counters), so a what-if caller
// calls it alone; a decision that is acted on is reported by Publish.
func (c *Coordinator) Place(app *workload.Spec, rec Recommender, pool []int, bound float64, sc *Scratch, out *Placement) error {
	if bound <= 0 {
		return ErrNonPositiveBound
	}
	sc.counts = app.AppendProcCounts(sc.counts[:0], len(pool))
	if len(sc.counts) == 0 {
		return ErrNoProcCount
	}

	type cand struct {
		nodes int
		cfg   recommend.NodeConfig
		pred  float64
	}
	best := cand{pred: math.Inf(1)}
	var fallback cand
	haveFallback := false
	for _, n := range sc.counts {
		perNode := bound / float64(n)
		cfg, ok := rec.Best(perNode, c.EnergyTolerance)
		if !ok {
			c.metrics().infeasible.Inc()
			continue
		}
		// Respect the acceptable power range: skip node counts that
		// force duty-cycling, but remember the least-bad one in case
		// the bound is below the range for every count.
		pred := clusterPredict(cfg.PredIterTime, n)
		cc := cand{nodes: n, cfg: cfg, pred: pred}
		if !cfg.CapOK {
			if !haveFallback || pred < fallback.pred {
				fallback = cc
				haveFallback = true
			}
			continue
		}
		if pred < best.pred {
			best = cc
		}
	}
	if math.IsInf(best.pred, 1) {
		if !haveFallback {
			return ErrInfeasible
		}
		best = fallback
		c.metrics().dutyFallback.Inc()
	}

	ids := c.pickNodes(sc, app, pool, best.nodes)
	budgets, coordinated := c.nodeBudgets(sc, ids, best.cfg, bound)
	out.NodeIDs = append(out.NodeIDs[:0], ids...)
	out.PerNode = append(out.PerNode[:0], budgets...)
	out.Cores = best.cfg.Cores
	out.Affinity = best.cfg.Affinity
	out.NodeCfg = best.cfg
	out.PredTime = best.pred
	out.Coordinated = coordinated
	out.PhaseCores = sc.phasePlan(app, rec.Profile(), best.cfg.Cores)
	return nil
}

// Publish reports a placement of app under bound that the caller acts
// on to the telemetry layer: a schedule count and the per-node budget
// gauges, plus a rebalance event carrying the redistributed budgets
// when coordination ran. The event is staged in sc.
func (c *Coordinator) Publish(app *workload.Spec, bound float64, pl *Placement, sc *Scratch) {
	m := c.metrics()
	m.schedules.Inc()
	for i, id := range pl.NodeIDs {
		cpu, mem := m.nodeGauges(id)
		cpu.Set(pl.PerNode[i].CPU)
		mem.Set(pl.PerNode[i].Mem)
	}
	if !pl.Coordinated {
		return
	}
	m.rebalances.Inc()
	ev := telemetry.Event{Kind: telemetry.KindRebalance, App: app.Name, BoundWatts: bound, Coordinated: true}
	// The ring copies PerNode into ring-owned (recycled) storage on
	// Append, so the event is staged in the caller's reusable scratch.
	sc.perNode = sc.perNode[:0]
	for i, id := range pl.NodeIDs {
		sc.perNode = append(sc.perNode, telemetry.NodeBudget{
			Node: id, CPUWatts: pl.PerNode[i].CPU, MemWatts: pl.PerNode[i].Mem,
		})
	}
	ev.PerNode = sc.perNode
	m.events.Append(ev)
}

// pickNodes selects n node ids of pool into sc.ids: app's preferred
// nodes first, then the most power-efficient (lowest PowerEff, ties to
// the lower id), since under a shared bound the efficient parts sustain
// the highest frequencies. Without a preference the picks come back in
// ascending id order, with one in that preference order. The pool's own
// order never matters.
func (c *Coordinator) pickNodes(sc *Scratch, app *workload.Spec, pool []int, n int) []int {
	ids := append(sc.ids[:0], pool...)
	nodes := c.Cluster.Nodes
	pref := &app.Constraint
	slices.SortFunc(ids, func(a, b int) int {
		if pa, pb := pref.Prefers(a), pref.Prefers(b); pa != pb {
			if pa {
				return -1
			}
			return 1
		}
		return cmp.Or(cmp.Compare(nodes[a].PowerEff, nodes[b].PowerEff), cmp.Compare(a, b))
	})
	ids = ids[:n]
	if len(pref.PreferNodes) == 0 {
		slices.Sort(ids)
	}
	sc.ids = ids
	return ids
}

// nodeBudgets assigns per-node budgets. Homogeneous clusters get the
// uniform recommended budget; when variability exceeds the threshold,
// CPU budgets are re-balanced so every node sustains the same frequency
// (equalising barrier arrival, §III-B2), spending no more than the
// uniform total.
func (c *Coordinator) nodeBudgets(sc *Scratch, ids []int, cfg recommend.NodeConfig, bound float64) ([]power.Budget, bool) {
	n := len(ids)
	out := sc.budgets[:0]
	spread := c.variabilityAcross(ids)
	if c.Threshold < 0 || spread <= c.threshold() {
		for i := 0; i < n; i++ {
			out = append(out, cfg.Budget)
		}
		sc.budgets = out
		return out, false
	}

	spec := c.Cluster.Spec()
	sockets := sim.SocketsUsedFor(spec, cfg.Cores, cfg.Affinity)
	totalCPU := cfg.Budget.CPU * float64(n)
	// Highest common ladder frequency whose total power fits the pool,
	// read off the precomputed nominal ladder with each node's
	// variability applied analytically.
	ladder := spec.LadderPowers(cfg.Cores, sockets)
	fIdx := 0
	for i := len(ladder) - 1; i >= 0; i-- {
		var sum float64
		for _, id := range ids {
			sum += ladder[i] * c.Cluster.Nodes[id].PowerEff
		}
		if sum <= totalCPU+1e-9 {
			fIdx = i
			break
		}
	}
	for i := 0; i < n; i++ {
		out = append(out, power.Budget{})
	}
	sc.budgets = out
	var spent float64
	for i, id := range ids {
		cpu := ladder[fIdx] * c.Cluster.Nodes[id].PowerEff
		out[i] = power.Budget{CPU: cpu, Mem: cfg.Budget.Mem}
		spent += cpu
	}
	// Return any slack to the nodes evenly (headroom for the next
	// ladder step on efficient parts). When even the lowest ladder level
	// overshoots the pool (duty-cycle region), scale the budgets down
	// proportionally instead: the redistribution must never spend more
	// than the uniform total, or a caller granting exactly its free
	// power would overdraw its bound.
	if slack := totalCPU - spent; slack > 0 {
		per := slack / float64(n)
		for i := range out {
			out[i].CPU += per
		}
	} else if slack < 0 {
		scale := totalCPU / spent
		for i := range out {
			out[i].CPU *= scale
		}
	}
	return out, true
}

// variabilityAcross returns the PowerEff spread over the chosen nodes.
func (c *Coordinator) variabilityAcross(ids []int) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, id := range ids {
		e := c.Cluster.Nodes[id].PowerEff
		lo = math.Min(lo, e)
		hi = math.Max(hi, e)
	}
	return hi - lo
}
