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

// Decision is the cluster-level scheduling outcome.
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

// Clone returns a deep copy of the decision, so cached decisions can
// be handed to callers that may annotate the plan.
func (d *Decision) Clone() *Decision {
	cp := *d
	cp.Plan = d.Plan.Clone()
	return &cp
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
	// Ranked makes pickNodes honour the caller's node order instead of
	// re-ranking by PowerEff: the scheduler's feasibility/scoring stage
	// sets it when a workload's affinity preferences already fixed the
	// order of the (restricted) cluster view.
	Ranked bool
	// Quiet suppresses telemetry publication (gauges and rebalance
	// events) for what-if placements, such as the scheduler's preemption
	// planner probing hypothetical resource pools.
	Quiet bool
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
// storage instead of a freshly built plan.Plan. NodeIDs and PerNode
// alias the Scratch the caller passed in — they are valid until the
// next Place with that scratch. PhaseCores aliases the scratch's memo
// and must be treated as read-only.
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

// Scratch holds the reusable buffers a Place call fills. A Scratch is
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
// bound watts, asking rec for the profile and the node-level answers.
func (c *Coordinator) Schedule(app *workload.Spec, rec Recommender, bound float64) (*Decision, error) {
	var sc Scratch
	var pl Placement
	if err := c.Place(app, rec, bound, &sc, &pl); err != nil {
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
	prof := rec.Profile()
	// Materialize caller-owned storage: the scratch dies with this
	// frame, while the Decision may be cached and annotated.
	var phases map[string]int
	if len(pl.PhaseCores) > 0 {
		phases = make(map[string]int, len(pl.PhaseCores))
		for k, v := range pl.PhaseCores {
			phases[k] = v
		}
	}
	p := &plan.Plan{
		NodeIDs:    append([]int(nil), pl.NodeIDs...),
		Cores:      pl.Cores,
		Affinity:   pl.Affinity,
		PerNode:    append([]power.Budget(nil), pl.PerNode...),
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

// Place runs one cluster-level scheduling pass (Algorithm 1) into the
// caller's scratch buffers without heap allocation: node-count search,
// node picking, budget assignment, and telemetry publication — the
// exact decision Schedule produces, minus the materialized Plan. It is
// the hot-path entry for the job scheduler's dispatch loop. Each
// candidate node count asks rec for the best configuration under its
// per-node share of the bound.
func (c *Coordinator) Place(app *workload.Spec, rec Recommender, bound float64, sc *Scratch, out *Placement) error {
	if bound <= 0 {
		return ErrNonPositiveBound
	}
	sc.counts = app.AppendProcCounts(sc.counts[:0], c.Cluster.NumNodes())
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

	ids := c.pickNodes(sc, best.nodes)
	budgets, coordinated := c.nodeBudgets(sc, ids, best.cfg, bound)
	out.NodeIDs = ids
	out.PerNode = budgets
	out.Cores = best.cfg.Cores
	out.Affinity = best.cfg.Affinity
	out.NodeCfg = best.cfg
	out.PredTime = best.pred
	out.Coordinated = coordinated
	out.PhaseCores = sc.phasePlan(app, rec.Profile(), best.cfg.Cores)
	if !c.Quiet {
		c.publish(sc, app.Name, bound, ids, budgets, coordinated)
	}
	return nil
}

// publish reports the scheduling pass to the telemetry layer: the
// per-node budget gauges every pass, plus a rebalance event carrying
// the redistributed budgets when coordination ran.
func (c *Coordinator) publish(sc *Scratch, app string, bound float64, ids []int, budgets []power.Budget, coordinated bool) {
	m := c.metrics()
	m.schedules.Inc()
	for i, id := range ids {
		cpu, mem := m.nodeGauges(id)
		cpu.Set(budgets[i].CPU)
		mem.Set(budgets[i].Mem)
	}
	if !coordinated {
		return
	}
	m.rebalances.Inc()
	ev := telemetry.Event{Kind: telemetry.KindRebalance, App: app, BoundWatts: bound, Coordinated: true}
	// The ring copies PerNode into ring-owned (recycled) storage on
	// Append, so the event is staged in the caller's reusable scratch.
	sc.perNode = sc.perNode[:0]
	for i, id := range ids {
		sc.perNode = append(sc.perNode, telemetry.NodeBudget{
			Node: id, CPUWatts: budgets[i].CPU, MemWatts: budgets[i].Mem,
		})
	}
	ev.PerNode = sc.perNode
	m.events.Append(ev)
}

// pickNodes selects the n most power-efficient nodes (lowest PowerEff,
// ties to the lower id): under a shared bound the efficient parts
// sustain the highest frequencies. The result lives in sc.ids, in
// ascending id order.
func (c *Coordinator) pickNodes(sc *Scratch, n int) []int {
	ids := sc.ids[:0]
	for i := 0; i < c.Cluster.NumNodes(); i++ {
		ids = append(ids, i)
	}
	if c.Ranked {
		// The caller pre-ranked the cluster view (workload affinity):
		// take the first n view positions in the given order.
		ids = ids[:n]
		sc.ids = ids
		return ids
	}
	nodes := c.Cluster.Nodes
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(cmp.Compare(nodes[a].PowerEff, nodes[b].PowerEff), cmp.Compare(a, b))
	})
	ids = ids[:n]
	slices.Sort(ids)
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
