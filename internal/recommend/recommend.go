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

// Best selects the node configuration for a budget of nodeBudget watts
// (CPU+DRAM domains) on a node with variability coefficient eff, and
// reports false when no candidate fits (non-positive or
// starvation-level budget, negative tolerance). tolerance 0 is the
// pure-performance objective and performs no heap allocations; a
// positive tolerance is the energy-aware variant, which picks the
// lowest predicted energy among candidates predicted within
// (1+tolerance) of the fastest. The coordinator and the scheduler's
// dispatch loop call it.
func Best(spec *hw.NodeSpec, p *profile.Profile, pd *perfmodel.Predictor, nodeBudget, eff, tolerance float64) (NodeConfig, bool) {
	if nodeBudget <= 0 || tolerance < 0 {
		return NodeConfig{}, false
	}
	mRecommends.Inc()
	type scored struct {
		cfg   NodeConfig
		watts float64 // predicted node power at the operating point
	}
	// The energy objective revisits every candidate within the slowdown
	// window, so only it retains them; the performance objective keeps
	// a running best and never allocates.
	var candidates []scored
	limit := coreLimit(p)
	if limit > p.NodeCores {
		limit = p.NodeCores
	}
	best := NodeConfig{PredIterTime: math.Inf(1)}
	for n := 1; n <= limit; n = nextCore(n) {
		sockets := sim.SocketsUsedFor(spec, n, p.Affinity)
		memBase := float64(sockets) * spec.MemBasePower
		memMax := float64(sockets) * spec.MemMaxPower

		// Candidate DRAM budgets around the application's demand.
		demand := pd.MemDemandWatts(n) + MemHeadroomWatts
		cands := [...]float64{demand, demand * 0.8, demand * 1.25, memBase + 1}
		cpuFracs := cpuFracsFull[:]
		if tolerance > 0 {
			cpuFracs = cpuFracsEnergy[:]
		}
		for _, mem := range cands {
			mem = math.Max(memBase, math.Min(mem, memMax))
			for _, frac := range cpuFracs {
				cpu := (nodeBudget - mem) * frac
				if cpu <= 0 {
					continue
				}
				f, pDraw, ok := power.EffectiveFreq(spec, n, sockets, cpu, eff)
				t := pd.Time(n, f, mem)
				cfg := NodeConfig{
					Cores: n, Affinity: p.Affinity,
					Budget:       power.Budget{CPU: cpu, Mem: mem},
					Freq:         f,
					PredIterTime: t,
					CapOK:        ok,
				}
				if tolerance > 0 {
					candidates = append(candidates, scored{cfg, pDraw + mem})
				}
				if t < best.PredIterTime-1e-12 ||
					(math.Abs(t-best.PredIterTime) <= 1e-12 && n < best.Cores) {
					best = cfg
				}
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
				best = c.cfg
			}
		}
	}
	// A node budget above the acceptable range's upper bound is wasted
	// (§III-B1); trim the CPU allocation to the power the configuration
	// can draw at the highest frequency plus headroom for inter-node
	// variability re-balancing, so surplus power stays in the cluster
	// pool for other nodes or jobs.
	sockets := sim.SocketsUsedFor(spec, best.Cores, best.Affinity)
	maxUseful := power.CPUPower(spec, best.Cores, sockets, spec.FMax(), eff) * 1.08
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
