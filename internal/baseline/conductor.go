package baseline

import (
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Conductor models the run-time configuration search of Marathe et al.
// (paper reference [31]): instead of CLIP's model-driven recommendation
// it *executes* trial configurations during the run, pays their cost,
// and settles on the best it saw. The paper's critique — "Conductor
// exhaustively searches available configurations to find the optimal
// thread concurrency, without discerning the optimal number of nodes" —
// is reflected here: the node count is fixed to everything available
// under the application's power floor (like Coordinated), and only the
// per-node concurrency and CPU/DRAM split are searched online.
type Conductor struct{}

// trialIters is how many application iterations each trial
// configuration executes.
const trialIters = 3

// SearchReport describes an online search run: where the time went.
type SearchReport struct {
	// SearchSeconds is the time burned executing trial configurations.
	SearchSeconds float64
	// RunSeconds is the remaining iterations at the chosen
	// configuration.
	RunSeconds float64
	// Trials is the number of configurations executed.
	Trials int
	// Chosen is the winning plan.
	Chosen *plan.Plan
}

// Total returns time-to-solution including the search.
func (r *SearchReport) Total() float64 { return r.SearchSeconds + r.RunSeconds }

// TimeToSolution runs the online search: node count from the power
// floor, then trial executions over concurrency × DRAM splits. The
// returned report charges every trial's wall time against the job.
func (c *Conductor) TimeToSolution(cl *hw.Cluster, app *workload.Spec, bound float64) (*SearchReport, error) {
	spec := cl.Spec()

	// Node count like Coordinated: everything that fits the floor.
	probe, err := sim.EvalTime(cl, app, sim.Config{
		Nodes: 1, CoresPerNode: spec.Cores(), Affinity: workload.Scatter,
		MaxIterations: 1,
	})
	if err != nil {
		return nil, err
	}
	mem := math.Min(probe.MemPower0+2, float64(spec.Sockets)*spec.MemMaxPower)
	floor := power.CPUPower(spec, spec.Cores(), spec.Sockets, spec.FMin(), 1.0) + mem
	nodes := cl.NumNodes()
	if bound < floor*float64(nodes) {
		nodes = int(bound / floor)
	}
	if nodes < 1 {
		nodes = 1
	}
	perNode := bound / float64(nodes)

	// Online search: concurrency ladder × DRAM splits, every trial
	// executed for trialIters iterations at cluster scale.
	rep := &SearchReport{}
	bestIter := math.Inf(1)
	var remainingBudget power.Budget
	bestCores := spec.Cores()
	for _, cores := range trialCores(spec.Cores()) {
		for _, frac := range []float64{0.5, 0.75, 1.0, 1.25, 1.5} {
			memW := mem * frac
			memW = math.Min(memW, float64(spec.Sockets)*spec.MemMaxPower)
			cpu := perNode - memW
			if cpu <= 0 {
				continue
			}
			cfg := sim.Config{
				Nodes: nodes, CoresPerNode: cores, Affinity: workload.Scatter,
				Capped: true, Budget: power.Budget{CPU: cpu, Mem: memW},
				MaxIterations: trialIters,
			}
			// Trials only need the runtime figures; score them on the
			// allocation-free fast path.
			res, err := sim.EvalTime(cl, app, cfg)
			if err != nil {
				return nil, err
			}
			rep.Trials++
			rep.SearchSeconds += res.Time
			if res.IterTime < bestIter {
				bestIter = res.IterTime
				bestCores = cores
				remainingBudget = cfg.Budget
			}
		}
	}
	if math.IsInf(bestIter, 1) {
		return nil, fmt.Errorf("conductor: no feasible trial under %.1f W", bound)
	}

	// Remaining iterations at the winner (trials consumed real work:
	// each trial advanced trialIters iterations).
	done := rep.Trials * trialIters
	remaining := app.Iterations - done
	if remaining < 0 {
		remaining = 0
	}
	rep.RunSeconds = bestIter * float64(remaining)
	rep.Chosen = &plan.Plan{
		NodeIDs:  plan.FirstN(nodes),
		Cores:    bestCores,
		Affinity: workload.Scatter,
		PerNode:  plan.UniformBudgets(nodes, remainingBudget),
		Notes:    fmt.Sprintf("online search: %d trials", rep.Trials),
	}
	return rep, nil
}

// trialCores is the concurrency ladder Conductor walks exhaustively
// (every even count, per the paper's "exhaustively searches available
// configurations").
func trialCores(maxCores int) []int {
	var out []int
	for n := 2; n <= maxCores; n += 2 {
		out = append(out, n)
	}
	return out
}
