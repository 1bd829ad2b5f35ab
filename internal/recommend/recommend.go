// Package recommend implements the paper's configuration
// recommendation module at the node level (§IV-B2): given a profiled
// application and a node power budget, it selects the number of active
// cores, the thread affinity, and the CPU/DRAM power split — using the
// piecewise performance model to rank candidates instead of exhaustive
// execution.
package recommend

import (
	"math"

	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// MemHeadroomWatts is added above the predicted DRAM demand so small
// model errors do not throttle bandwidth.
const MemHeadroomWatts = 2.0

// mRecommends counts node-level configuration searches (telemetry).
var mRecommends = telemetry.Default.Counter("clip_recommend_calls_total",
	"node-level configuration recommendation searches")

// NodeConfig is the recommended node-level execution configuration.
type NodeConfig struct {
	Cores    int
	Affinity workload.Affinity
	// Budget is the CPU/DRAM split of the node budget.
	Budget power.Budget
	// Freq is the predicted sustainable frequency under Budget.CPU on a
	// nominal node (GHz; may sit below the ladder when duty-cycled).
	Freq float64
	// PredIterTime is the model-predicted per-iteration runtime of the
	// whole job on one such node.
	PredIterTime float64
	// CapOK is false when the configuration requires duty cycling on a
	// nominal node (outside the acceptable power range).
	CapOK bool
}

// nextCore steps through the concurrency candidates in search order:
// 1, then the even counts (the paper floors to even). The caller bounds
// the walk with the class-dependent core limit.
func nextCore(n int) int {
	if n == 1 {
		return 2
	}
	return n + 2
}

// coreLimit bounds the concurrency search per class: parabolic
// applications never run beyond the inflection point (the paper
// disregards the n > NP segment); other classes may use every core.
func coreLimit(p *profile.Profile) int {
	if p.Class == workload.Parabolic && p.PredictedNP > 0 {
		return p.PredictedNP
	}
	return p.NodeCores
}

// cpuFracsFull is the performance objective's single operating point:
// spend the whole CPU remainder. Package-level so the hot path borrows
// it without allocating.
var cpuFracsFull = [...]float64{1.0}

// cpuFracsEnergy adds reduced-frequency operating points for the
// energy objective (power is superlinear in f, so a bounded slowdown
// can buy a larger power reduction).
var cpuFracsEnergy = [...]float64{1.0, 0.85, 0.7, 0.55}

// Grid is the candidate grid of one profiled application on one node
// spec: every (core count, DRAM budget) pair Best considers, in its
// search order, with the pair's sockets, its DRAM budget clamped to
// those sockets' range, the nominal CPU power at each DVFS level and the
// predicted iteration time at each level. None of it depends on the
// node budget, so it is built once per fitted predictor (NewGrid) and
// only read afterwards; one grid serves concurrent Best calls.
type Grid struct {
	spec  *hw.NodeSpec
	prof  *profile.Profile
	pd    *perfmodel.Predictor
	cands []candidate
}

// candidate is one (core count, DRAM budget) pair of a grid.
type candidate struct {
	cores, sockets int
	mem            float64
	// ladder is the nominal CPU power per DVFS level (spec-owned);
	// times is the predicted iteration time per level under mem.
	ladder, times []float64
	// maxUseful is the CPU draw at FMax plus the variability headroom,
	// the trim Best applies to a surplus budget (§III-B1).
	maxUseful float64
}

// NewGrid enumerates the candidate grid of a profiled application: core
// counts 1 and the even counts up to the class-dependent limit, each
// with four DRAM budgets around the predicted demand.
func NewGrid(spec *hw.NodeSpec, p *profile.Profile, pd *perfmodel.Predictor) *Grid {
	g := &Grid{spec: spec, prof: p, pd: pd}
	limit := coreLimit(p)
	if limit > p.NodeCores {
		limit = p.NodeCores
	}
	levels := spec.FreqLevels
	for n := 1; n <= limit; n = nextCore(n) {
		sockets := sim.SocketsUsedFor(spec, n, p.Affinity)
		memBase := float64(sockets) * spec.MemBasePower
		memMax := float64(sockets) * spec.MemMaxPower
		ladder := spec.LadderPowers(n, sockets)
		maxUseful := power.CPUPower(spec, n, sockets, spec.FMax(), 1.0) * 1.08

		// Candidate DRAM budgets around the application's demand.
		demand := pd.MemDemandWatts(n) + MemHeadroomWatts
		for _, mem := range [...]float64{demand, demand * 0.8, demand * 1.25, memBase + 1} {
			mem = math.Max(memBase, math.Min(mem, memMax))
			times := make([]float64, len(levels))
			for i, f := range levels {
				times[i] = pd.Time(n, f, mem)
			}
			g.cands = append(g.cands, candidate{
				cores: n, sockets: sockets, mem: mem,
				ladder: ladder, times: times, maxUseful: maxUseful,
			})
		}
	}
	return g
}

// Profile returns the profile the grid was built from.
func (g *Grid) Profile() *profile.Profile { return g.prof }

// Predictor returns the predictor the grid was built from.
func (g *Grid) Predictor() *perfmodel.Predictor { return g.pd }

// operate returns the operating point of candidate c under a CPU cap of
// cpu watts on a nominal node. Within the DVFS range it is the highest
// ladder level whose power fits (the binary search of power.SolveFreq)
// and the precomputed time there; below the range it is the duty-cycled
// frequency of power.EffectiveFreq and a fresh prediction.
func (g *Grid) operate(c *candidate, cpu float64) (f, pDraw, t float64, ok bool) {
	lo, hi := 0, len(c.ladder)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.ladder[mid] <= cpu+1e-9 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 {
		return g.spec.FreqLevels[lo-1], c.ladder[lo-1], c.times[lo-1], true
	}
	f, pDraw, ok = power.EffectiveFreq(g.spec, c.cores, c.sockets, cpu, 1.0)
	return f, pDraw, g.pd.Time(c.cores, f, c.mem), ok
}

// Best selects the configuration of a nominal node for a budget of
// nodeBudget watts (CPU+DRAM domains), and reports false when no
// candidate fits (non-positive or starvation-level budget, negative
// tolerance). Each grid candidate spends the CPU remainder of the
// budget (or, for the energy objective, fractions of it) at the
// operating point the remainder sustains. tolerance 0 is the
// pure-performance objective and performs no heap allocations; a
// positive tolerance is the energy-aware variant, which picks the
// lowest predicted energy among candidates predicted within
// (1+tolerance) of the fastest. Programs call it through the CLIP
// façade's knowledge table (core.Advisor.Best), which answers each
// (application, budget, tolerance) once for every CLIP instance of a
// node spec: the coordinator's node-count search and the scheduler's
// surplus reallocation ask it there.
func (g *Grid) Best(nodeBudget, tolerance float64) (NodeConfig, bool) {
	if nodeBudget <= 0 || tolerance < 0 {
		return NodeConfig{}, false
	}
	mRecommends.Inc()
	type scored struct {
		cfg       NodeConfig
		watts     float64 // predicted node power at the operating point
		maxUseful float64
	}
	// The energy objective revisits every candidate within the slowdown
	// window, so only it retains them; the performance objective keeps
	// a running best and never allocates.
	var candidates []scored
	cpuFracs := cpuFracsFull[:]
	if tolerance > 0 {
		cpuFracs = cpuFracsEnergy[:]
	}
	best := NodeConfig{PredIterTime: math.Inf(1)}
	var maxUseful float64
	for i := range g.cands {
		c := &g.cands[i]
		for _, frac := range cpuFracs {
			cpu := (nodeBudget - c.mem) * frac
			if cpu <= 0 {
				continue
			}
			f, pDraw, t, ok := g.operate(c, cpu)
			cfg := NodeConfig{
				Cores: c.cores, Affinity: g.prof.Affinity,
				Budget:       power.Budget{CPU: cpu, Mem: c.mem},
				Freq:         f,
				PredIterTime: t,
				CapOK:        ok,
			}
			if tolerance > 0 {
				candidates = append(candidates, scored{cfg, pDraw + c.mem, c.maxUseful})
			}
			if t < best.PredIterTime-1e-12 ||
				(math.Abs(t-best.PredIterTime) <= 1e-12 && c.cores < best.Cores) {
				best, maxUseful = cfg, c.maxUseful
			}
		}
	}
	if math.IsInf(best.PredIterTime, 1) {
		return NodeConfig{}, false
	}
	if tolerance > 0 {
		// Energy objective: minimum predicted energy (power x time)
		// within the slowdown window.
		limit := best.PredIterTime * (1 + tolerance)
		bestEnergy := math.Inf(1)
		for _, c := range candidates {
			if c.cfg.PredIterTime > limit {
				continue
			}
			e := c.watts * c.cfg.PredIterTime
			if e < bestEnergy-1e-12 {
				bestEnergy = e
				best, maxUseful = c.cfg, c.maxUseful
			}
		}
	}
	// A node budget above the acceptable range's upper bound is wasted
	// (§III-B1); trim the CPU allocation to the power the configuration
	// can draw at the highest frequency plus headroom for inter-node
	// variability re-balancing, so surplus power stays in the cluster
	// pool for other nodes or jobs.
	if best.Budget.CPU > maxUseful {
		best.Budget.CPU = maxUseful
	}
	return best, true
}

// PhasePlan builds per-phase concurrency overrides for multi-phase
// applications (the paper's BT-MZ phase-wise concurrency, §V-B1):
// phases whose synchronisation overhead dominates run at the profile's
// inflection point while the remaining phases keep the configured
// concurrency. It returns nil when no override helps.
func PhasePlan(app *workload.Spec, p *profile.Profile, cores int) map[string]int {
	if len(app.Phases) < 2 || p.PredictedNP <= 0 || p.PredictedNP >= cores {
		return nil
	}
	overrides := make(map[string]int)
	for _, ph := range app.Phases {
		// A minority phase that contends or synchronises heavily
		// scales poorly; throttle it to the inflection point while the
		// bulk of the work keeps its concurrency.
		poorlyScaling := ph.ContentionCoeff > 0 || ph.SyncCoeff >= 0.1
		if poorlyScaling && ph.ParallelCycles < app.TotalParallelCycles()/2 {
			overrides[ph.Name] = p.PredictedNP
		}
	}
	if len(overrides) == 0 {
		return nil
	}
	return overrides
}
