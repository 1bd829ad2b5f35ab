package baseline

import (
	"context"
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Telemetry: how much work the oracle's search performs versus how much
// branch-and-bound pruning avoids. Pruned counts are in units of grid
// candidates that were never evaluated.
var (
	mOptCandidates = telemetry.Default.Counter("clip_optimal_candidates_total",
		"candidate configurations scored by the Optimal oracle")
	mOptPruned = telemetry.Default.Counter("clip_optimal_pruned_total",
		"candidate configurations skipped by branch-and-bound pruning")
)

// Optimal exhaustively searches node counts, core counts, affinities
// and CPU/DRAM splits with the real simulator. It is the oracle CLIP is
// measured against; no online scheduler could afford this search on
// real hardware. The search covers uniform per-node budgets on the
// first N nodes, so on clusters with manufacturing variability CLIP's
// node selection and inter-node coordination can legitimately exceed
// 100 % of this oracle.
//
// Candidates are scored on the allocation-free fast path
// (plan.EvalTime) and whole (nodes, cores, affinity) subtrees are
// skipped when an analytic lower bound on their runtime already exceeds
// the incumbent. The lower bound only ever drops cost terms
// (synchronisation, contention, NUMA inflation, DRAM throttling), so
// pruning never discards a candidate that ties or beats the incumbent:
// the returned plan is identical to the unpruned grid search's,
// including tie-breaks.
type Optimal struct {
	// MemSteps is the number of DRAM split candidates (default 6;
	// 1 means the midpoint of the feasible DRAM range).
	MemSteps int
	// Ctx, when non-nil, lets a caller abandon the search: Plan checks
	// it between node-count subtrees and returns the context's error.
	// A nil Ctx searches to completion.
	Ctx context.Context
}

var _ plan.Method = (*Optimal)(nil)

// Name implements plan.Method.
func (*Optimal) Name() string { return "Optimal" }

// pruneMargin keeps branch-and-bound robust against floating-point
// rounding: a subtree is pruned only when its lower bound exceeds the
// incumbent by more than this relative slack, so bound-versus-simulator
// disagreements at the last ulp can never change the winner.
const pruneMargin = 1e-9

// affinities is the search order of the thread mappings (fixed: it is
// part of the tie-break).
var affinities = [2]workload.Affinity{workload.Compact, workload.Scatter}

// optSearch carries one Plan invocation's immutable search inputs.
type optSearch struct {
	cl    *hw.Cluster
	app   *workload.Spec
	spec  *hw.NodeSpec
	bound float64
	steps int
	iters float64
}

// subtreeBest is the outcome of searching one node-count subtree
// against an incumbent: the best candidate found there, if any.
type subtreeBest struct {
	ok   bool
	time float64
	cand plan.Candidate
}

// Plan implements plan.Method.
func (o *Optimal) Plan(cl *hw.Cluster, app *workload.Spec, bound float64) (*plan.Plan, error) {
	steps := o.MemSteps
	if steps <= 0 {
		steps = 6
	}
	s := &optSearch{cl: cl, app: app, spec: cl.Spec(), bound: bound, steps: steps, iters: float64(app.Iterations)}
	counts := app.AllowedProcCounts(cl.NumNodes())

	// Candidates always run on the first N nodes, and the frequency a
	// cap admits grows as efficiency coefficients shrink — so the
	// prefix minimum of PowerEff bounds any participant's frequency
	// from above for the lower-bound computation.
	effMin := make([]float64, cl.NumNodes())
	m := math.Inf(1)
	for i, nd := range cl.Nodes {
		m = math.Min(m, nd.PowerEff)
		effMin[i] = m
	}

	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	best := subtreeBest{time: math.Inf(1)}
	incumbent := math.Inf(1)
	for _, nNodes := range counts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := s.searchSubtree(nNodes, effMin[nNodes-1], &incumbent)
		if err != nil {
			return nil, err
		}
		if r.ok && r.time < best.time {
			best = r
		}
	}
	if !best.ok {
		return nil, fmt.Errorf("optimal: no feasible configuration under %.1f W", bound)
	}
	p := best.cand.Materialize()
	p.Notes = fmt.Sprintf("exhaustive best t=%.2fs", best.time)
	return p, nil
}

// searchSubtree scans every (cores, affinity, split) candidate at one
// node count, pruning cells whose lower bound cannot beat the
// incumbent. The incumbent absorbs every evaluation; the returned best
// is local to the subtree.
func (s *optSearch) searchSubtree(nNodes int, effMin float64, incumbent *float64) (subtreeBest, error) {
	spec := s.spec
	r := subtreeBest{time: math.Inf(1)}
	perNode := s.bound / float64(nNodes)
	shard := 1.0 / float64(nNodes)
	if s.app.Scaling == workload.WeakScaling {
		shard = 1
	}
	comm := sim.CommTimeFor(s.cl, s.app, nNodes)

	// Subtree bound: every core active at the ladder maximum with
	// uncapped bandwidth — no candidate here can be faster.
	bwTop := math.Min(float64(spec.Cores())*sim.CoreBW(spec, spec.FMax(), s.app.BWFactor()),
		float64(spec.Sockets)*spec.SocketMemBW)
	if lb := s.lowerBound(spec.Cores(), shard, comm, spec.FMax(), bwTop); lb > *incumbent*(1+pruneMargin) {
		mOptPruned.Add(s.gridSize(perNode))
		return r, nil
	}

	for cores := 1; cores <= spec.Cores(); cores++ {
		for _, aff := range affinities {
			sockets := sim.SocketsUsedFor(spec, cores, aff)
			memLo := float64(sockets) * spec.MemBasePower
			memHi := math.Min(float64(sockets)*spec.MemMaxPower, perNode-1)
			if memHi <= memLo {
				continue
			}
			// Cell bound: the most efficient participating node under
			// the fattest possible CPU share and DRAM allowance.
			fBest, _, _ := power.EffectiveFreq(spec, cores, sockets, perNode-memLo, effMin)
			bwBest := math.Min(math.Min(float64(cores)*sim.CoreBW(spec, fBest, s.app.BWFactor()),
				float64(sockets)*spec.SocketMemBW), power.MemBandwidthCap(spec, sockets, memHi))
			bound := math.Min(*incumbent, r.time)
			if lb := s.lowerBound(cores, shard, comm, fBest, bwBest); lb > bound*(1+pruneMargin) {
				mOptPruned.Add(uint64(s.steps))
				continue
			}
			for st := 0; st < s.steps; st++ {
				mem := gridMem(memLo, memHi, st, s.steps)
				cpu := perNode - mem
				if cpu <= 0 {
					continue
				}
				cand := plan.Candidate{Nodes: nNodes, Cores: cores, Affinity: aff,
					PerNode: power.Budget{CPU: cpu, Mem: mem}}
				mOptCandidates.Inc()
				ev, err := plan.EvalTime(s.cl, s.app, cand)
				if err != nil {
					return r, err
				}
				if ev.Time < *incumbent {
					*incumbent = ev.Time
				}
				if ev.Time < r.time {
					r = subtreeBest{ok: true, time: ev.Time, cand: cand}
				}
			}
		}
	}
	return r, nil
}

// lowerBound returns an optimistic runtime for any candidate in a
// search region executing cores threads at frequency f with admitted
// bandwidth bwCeil: per-phase compute plus non-overlappable memory
// transfer plus communication, dropping every term that can only slow
// a real candidate down (synchronisation, contention, odd-concurrency
// penalty, NUMA traffic inflation, cap derating below f, bandwidth
// throttling below bwCeil).
func (s *optSearch) lowerBound(cores int, shard, comm, f, bwCeil float64) float64 {
	t := comm
	for _, ph := range s.app.Phases {
		tComp := ph.SerialCycles/f + (ph.ParallelCycles*shard)/(float64(cores)*f)
		lb := tComp
		// The overlap credit grows with compute time, so crediting the
		// *under*-estimated tComp keeps the bound sound — unless a
		// phase overlaps more than 1:1, where the credit must be
		// dropped entirely.
		if ph.MemoryBytes > 0 && bwCeil > 0 && ph.Overlap < 1 {
			if m := ph.MemoryBytes*shard/bwCeil - ph.Overlap*tComp; m > 0 {
				lb = tComp + m
			}
		}
		t += lb
	}
	return t * s.iters
}

// gridSize counts the grid candidates of one node-count subtree (for
// pruning accounting): feasible (cores, affinity) cells × DRAM steps.
func (s *optSearch) gridSize(perNode float64) uint64 {
	var n uint64
	for cores := 1; cores <= s.spec.Cores(); cores++ {
		for _, aff := range affinities {
			sockets := sim.SocketsUsedFor(s.spec, cores, aff)
			memLo := float64(sockets) * s.spec.MemBasePower
			memHi := math.Min(float64(sockets)*s.spec.MemMaxPower, perNode-1)
			if memHi <= memLo {
				continue
			}
			n += uint64(s.steps)
		}
	}
	return n
}

// gridMem returns DRAM grid point s of steps over [lo, hi]. A
// single-step grid samples the midpoint (the historical formula divided
// zero by zero and produced NaN budgets).
func gridMem(lo, hi float64, s, steps int) float64 {
	if steps <= 1 {
		return lo + (hi-lo)/2
	}
	return lo + (hi-lo)*float64(s)/float64(steps-1)
}
