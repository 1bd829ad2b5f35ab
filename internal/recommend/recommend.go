// Package recommend implements the paper's configuration
// recommendation module at the node level (§IV-B2): given a profiled
// application and a node power budget, it selects the number of active
// cores, the thread affinity, and the CPU/DRAM power split — using the
// piecewise performance model to rank candidates instead of exhaustive
// execution.
package recommend

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

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

// mRecommends counts node-level configuration searches (telemetry):
// budget-interval fills and energy-objective scans.
var mRecommends = telemetry.Default.Counter("clip_recommend_calls_total",
	"node-level configuration searches: budget-interval contender fills and energy-objective scans")

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

// cpuFracsEnergy is the energy objective's operating points: the whole
// CPU remainder, which the performance objective always spends, and
// reduced-frequency shares of it (power is superlinear in f, so a
// bounded slowdown can buy a larger power reduction).
var cpuFracsEnergy = [...]float64{1.0, 0.85, 0.7, 0.55}

// Grid is the candidate grid of one profiled application on one node
// spec: every (core count, DRAM budget) pair Best considers, in its
// search order, with its DRAM budget clamped to the range of the
// sockets the pair uses, the nominal CPU power at each DVFS level and
// the frequency-independent terms of its predicted iteration time.
// None of it depends on the node budget, so it is built once per fitted
// predictor (NewGrid).
//
// The performance objective's answer changes only where a candidate
// starts to be considered or one of its DVFS levels starts to fit.
// NewGrid computes these breakpoints; between two adjacent ones, which
// candidates count and each one's level are fixed. Each interval holds
// its contenders, the candidates that can win somewhere in it, filled
// on the interval's first question under its own lock and read with an
// atomic load afterwards. One grid serves concurrent Best calls.
type Grid struct {
	spec  *hw.NodeSpec
	prof  *profile.Profile
	pd    *perfmodel.Predictor
	cands []candidate
	// bounds are the breakpoints, ascending and distinct; interval i
	// covers budgets from bounds[i] up to (not including) bounds[i+1].
	// Below bounds[0] no candidate is considered. The intervals live in
	// blocks, each made on the first question about one of its
	// intervals, so a grid asked about few budgets stays small.
	bounds []float64
	blocks []atomic.Pointer[intervalBlock]
}

// intervalBlockLen is the number of intervals per block.
const intervalBlockLen = 32

// intervalBlock holds intervalBlockLen consecutive intervals.
type intervalBlock [intervalBlockLen]interval

// candidate is one (core count, DRAM budget) pair of a grid.
type candidate struct {
	cores int
	mem   float64
	// ladder is the nominal CPU power per DVFS level (spec-owned).
	ladder []float64
	// terms predict the iteration time under mem at any frequency.
	terms perfmodel.Terms
	// maxUseful is the CPU draw at FMax plus the variability headroom,
	// the trim Best applies to a surplus budget (§III-B1).
	maxUseful float64
}

// interval holds the contenders of one budget interval, nil until its
// first question.
type interval struct {
	mu   sync.Mutex
	list atomic.Pointer[[]contender]
}

// contender is a candidate (an index into Grid.cands) that can win
// somewhere in its interval, with the number of its DVFS levels that
// fit there (0: duty-cycled).
type contender struct{ cand, level int32 }

// NewGrid enumerates the candidate grid of a profiled application: core
// counts 1 and the even counts up to the class-dependent limit, each
// with four DRAM budgets around the predicted demand. It computes the
// grid's breakpoints and fills no interval.
func NewGrid(spec *hw.NodeSpec, p *profile.Profile, pd *perfmodel.Predictor) *Grid {
	g := &Grid{spec: spec, prof: p, pd: pd}
	limit := coreLimit(p)
	if limit > p.NodeCores {
		limit = p.NodeCores
	}
	levels := spec.FreqLevels
	g.cands = make([]candidate, 0, 4*(limit/2+1))
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
			g.cands = append(g.cands, candidate{
				cores: n, mem: mem,
				ladder: ladder, terms: pd.Terms(n, mem), maxUseful: maxUseful,
			})
		}
	}
	g.bounds = make([]float64, 0, len(g.cands)*(1+len(levels)))
	for i := range g.cands {
		c := &g.cands[i]
		if math.IsNaN(c.mem) {
			continue // never considered
		}
		// b-mem > 0 exactly when b > mem: the subtraction of two
		// distinct floats never rounds to zero.
		g.bounds = append(g.bounds, math.Nextafter(c.mem, math.Inf(1)))
		for _, w := range c.ladder {
			g.bounds = append(g.bounds, fitsFrom(w, c.mem))
		}
	}
	// Each candidate's thresholds ascend with its ladder.
	g.bounds = slices.Compact(mergeRuns(g.bounds, 1+len(levels)))
	g.blocks = make([]atomic.Pointer[intervalBlock], (len(g.bounds)+intervalBlockLen-1)/intervalBlockLen)
	return g
}

// fitsFrom returns the smallest budget at which a DVFS level drawing w
// watts fits the CPU remainder of a candidate with mem watts of DRAM,
// by the comparison of fits: w <= (b-mem)+1e-9. It steps from the
// analytic guess one float at a time, so Best's comparisons of a budget
// against it are exactly the search's own.
func fitsFrom(w, mem float64) float64 {
	b := w - 1e-9 + mem
	for !(w <= (b-mem)+1e-9) {
		b = math.Nextafter(b, math.Inf(1))
	}
	for prev := math.Nextafter(b, math.Inf(-1)); w <= (prev-mem)+1e-9; prev = math.Nextafter(b, math.Inf(-1)) {
		b = prev
	}
	return b
}

// mergeRuns sorts a, a sequence of ascending runs of length run (the
// last may be shorter), by merging adjacent runs pairwise; it returns
// the sorted values in a or in a buffer of the same length.
func mergeRuns(a []float64, run int) []float64 {
	buf := make([]float64, len(a))
	for ; run < len(a); run *= 2 {
		for lo := 0; lo < len(a); lo += 2 * run {
			mid, hi := min(lo+run, len(a)), min(lo+2*run, len(a))
			i, j, k := lo, mid, lo
			for ; i < mid && j < hi; k++ {
				if a[j] < a[i] {
					buf[k], j = a[j], j+1
				} else {
					buf[k], i = a[i], i+1
				}
			}
			k += copy(buf[k:], a[i:mid])
			copy(buf[k:], a[j:hi])
		}
		a, buf = buf, a
	}
	return a
}

// Profile returns the profile the grid was built from.
func (g *Grid) Profile() *profile.Profile { return g.prof }

// Predictor returns the predictor the grid was built from.
func (g *Grid) Predictor() *perfmodel.Predictor { return g.pd }

// Filled returns how many of the grid's budget intervals hold their
// contenders: one per interval asked about so far, at most one per
// breakpoint.
func (g *Grid) Filled() int {
	n := 0
	for i := range g.blocks {
		if blk := g.blocks[i].Load(); blk != nil {
			for j := range blk {
				if blk[j].list.Load() != nil {
					n++
				}
			}
		}
	}
	return n
}

// fits returns how many of c's DVFS levels fit a CPU cap of cpu watts
// (the binary search of power.SolveFreq).
func (c *candidate) fits(cpu float64) int {
	lo, hi := 0, len(c.ladder)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.ladder[mid] <= cpu+1e-9 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// operate returns the operating point of candidate c under a CPU cap of
// cpu watts on a nominal node, of which level DVFS levels fit: within
// the DVFS range the highest fitting level, below it power.DutyCycle's
// frequency, and the time c's terms predict there.
func (g *Grid) operate(c *candidate, cpu float64, level int) (f, pDraw, t float64, ok bool) {
	if level > 0 {
		f = g.spec.FreqLevels[level-1]
		return f, c.ladder[level-1], c.terms.At(f), true
	}
	f, pDraw = power.DutyCycle(g.spec.FreqLevels[0], c.ladder[0], cpu)
	return f, pDraw, c.terms.At(f), false
}

// Best selects the configuration of a nominal node for a budget of
// nodeBudget watts (CPU+DRAM domains), and reports false when no
// candidate fits (non-positive, NaN or starvation-level budget, negative
// tolerance). Each grid candidate spends the CPU remainder of the
// budget (or, for the energy objective, fractions of it) at the
// operating point the remainder sustains. tolerance 0 is the
// pure-performance objective: Best binary-searches the budget's
// interval, fills its contenders on the interval's first question, and
// scans only them with the search's comparison, which answers as a scan
// of every candidate would, bit for bit; a call on a filled interval
// performs no heap allocations. A positive tolerance is the
// energy-aware variant, which scans every candidate and picks the
// lowest predicted energy among those predicted within (1+tolerance) of
// the fastest. Programs call it through the CLIP façade's knowledge
// table (core.Advisor.Best), which shares one grid per application for
// every CLIP instance of a node spec: the coordinator's node-count
// search and the scheduler's surplus reallocation ask it there.
func (g *Grid) Best(nodeBudget, tolerance float64) (NodeConfig, bool) {
	if !(nodeBudget > 0) || tolerance < 0 {
		return NodeConfig{}, false
	}
	var best NodeConfig
	var maxUseful float64
	if tolerance > 0 {
		best, maxUseful = g.bestEnergy(nodeBudget, tolerance)
	} else {
		best, maxUseful = g.bestTime(nodeBudget)
	}
	if math.IsInf(best.PredIterTime, 1) {
		return NodeConfig{}, false
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

// better reports whether a predicted time t at cores beats the best so
// far: faster by more than 1e-12 s, or as fast on fewer cores.
func better(t float64, cores int, best *NodeConfig) bool {
	return t < best.PredIterTime-1e-12 ||
		(math.Abs(t-best.PredIterTime) <= 1e-12 && cores < best.Cores)
}

// bestTime is the performance objective: the fastest of the budget's
// interval contenders, with its maxUseful (an infinite PredIterTime
// when none fits).
func (g *Grid) bestTime(nodeBudget float64) (NodeConfig, float64) {
	best := NodeConfig{PredIterTime: math.Inf(1)}
	var maxUseful float64
	lo, hi := 0, len(g.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.bounds[mid] <= nodeBudget {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return best, 0
	}
	for _, k := range g.contenders(lo - 1) {
		c := &g.cands[k.cand]
		cpu := nodeBudget - c.mem
		f, _, t, ok := g.operate(c, cpu, int(k.level))
		if better(t, c.cores, &best) {
			best = NodeConfig{
				Cores: c.cores, Affinity: g.prof.Affinity,
				Budget:       power.Budget{CPU: cpu, Mem: c.mem},
				Freq:         f,
				PredIterTime: t,
				CapOK:        ok,
			}
			maxUseful = c.maxUseful
		}
	}
	return best, maxUseful
}

// contenders returns interval i's contenders, filling them on its first
// question.
func (g *Grid) contenders(i int) []contender {
	iv := g.interval(i)
	if l := iv.list.Load(); l != nil {
		return *l
	}
	return g.fill(iv, i)
}

// interval returns interval i, making its block on first use.
func (g *Grid) interval(i int) *interval {
	b := &g.blocks[i/intervalBlockLen]
	blk := b.Load()
	if blk == nil {
		b.CompareAndSwap(nil, new(intervalBlock))
		blk = b.Load()
	}
	return &blk[i%intervalBlockLen]
}

// fill computes the contenders of iv, interval i, once, under its
// lock; a caller that waited for another's fill reads its list. In the
// interval each considered candidate runs at a fixed level: its time is
// a constant in the DVFS range and falls as the budget rises when
// duty-cycled, so its best time is at the interval's upper end and its
// worst at the lower. A candidate whose best time trails the smallest
// worst time by more than 1e-9 s is that much slower than the fastest
// candidate at every budget of the interval, while the scan's running
// best ends within one 1e-12 s tie window per candidate of the fastest;
// with fewer than 500 candidates, dropping it changes no answer.
func (g *Grid) fill(iv *interval, i int) []contender {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	if l := iv.list.Load(); l != nil {
		return *l
	}
	mRecommends.Inc()
	lo, hi := g.bounds[i], math.Inf(1)
	if i+1 < len(g.bounds) {
		hi = g.bounds[i+1]
	}
	// One pass rates each considered candidate at both ends and keeps
	// those within 1e-9 s of the smallest worst time so far; the kept
	// ones the final smallest worst time excludes are dropped after it.
	type rated struct {
		k    contender
		fast float64
	}
	kept := make([]rated, 0, 64)
	minSlow := math.Inf(1)
	for j := range g.cands {
		c := &g.cands[j]
		cpu := lo - c.mem
		if cpu <= 0 {
			continue
		}
		level := c.fits(cpu)
		_, _, slow, _ := g.operate(c, cpu, level)
		fast := slow
		if level == 0 {
			_, _, fast, _ = g.operate(c, hi-c.mem, level)
		}
		if slow < minSlow {
			minSlow = slow
		}
		if fast <= minSlow+1e-9 {
			kept = append(kept, rated{contender{int32(j), int32(level)}, fast})
		}
	}
	list := []contender{}
	for _, r := range kept {
		if r.fast <= minSlow+1e-9 {
			list = append(list, r.k)
		}
	}
	iv.list.Store(&list)
	return list
}

// bestEnergy is the energy objective: every candidate at each of
// cpuFracsEnergy's shares of its CPU remainder, the fastest first, then
// the lowest predicted energy within (1+tolerance) of it, with its
// maxUseful.
func (g *Grid) bestEnergy(nodeBudget, tolerance float64) (NodeConfig, float64) {
	type scored struct {
		cfg       NodeConfig
		watts     float64 // predicted node power at the operating point
		maxUseful float64
	}
	mRecommends.Inc()
	var candidates []scored
	best := NodeConfig{PredIterTime: math.Inf(1)}
	var maxUseful float64
	for i := range g.cands {
		c := &g.cands[i]
		for _, frac := range cpuFracsEnergy {
			cpu := (nodeBudget - c.mem) * frac
			if cpu <= 0 {
				continue
			}
			f, pDraw, t, ok := g.operate(c, cpu, c.fits(cpu))
			cfg := NodeConfig{
				Cores: c.cores, Affinity: g.prof.Affinity,
				Budget:       power.Budget{CPU: cpu, Mem: c.mem},
				Freq:         f,
				PredIterTime: t,
				CapOK:        ok,
			}
			candidates = append(candidates, scored{cfg, pDraw + c.mem, c.maxUseful})
			if better(t, c.cores, &best) {
				best, maxUseful = cfg, c.maxUseful
			}
		}
	}
	// Minimum predicted energy (power x time) within the slowdown
	// window.
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
	return best, maxUseful
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
