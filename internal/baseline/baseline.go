// Package baseline implements the comparison methods of the paper's
// evaluation (§V-C): All-In, Lower-Limit and Coordinated, plus an
// exhaustive-search Optimal used to substantiate the "close to the
// optimal solution" claim.
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

// DefaultMemWatts is the static DRAM allocation of the naive baselines:
// "allocating 30 watts to memory meets most applications' memory power
// requirement".
const DefaultMemWatts = 30.0

// DefaultFloorWatts is Lower-Limit's per-node minimum. The paper uses
// 180 W on its testbed; the equivalent point of this repository's node
// model (all cores near 1.8 GHz plus the static memory allocation) is
// 200 W.
const DefaultFloorWatts = 200.0

// baselineAffinity is the thread mapping of methods that do not manage
// affinity: unpinned OpenMP threads spread across sockets.
const baselineAffinity = workload.Scatter

// AllIn always uses every node and every core, giving memory the static
// allocation and CPU the rest, regardless of application behaviour.
type AllIn struct {
	// MemWatts overrides DefaultMemWatts when > 0.
	MemWatts float64
}

var _ plan.Method = (*AllIn)(nil)

// Name implements plan.Method.
func (*AllIn) Name() string { return "All-In" }

// Plan implements plan.Method.
func (a *AllIn) Plan(cl *hw.Cluster, app *workload.Spec, bound float64) (*plan.Plan, error) {
	mem := a.MemWatts
	if mem <= 0 {
		mem = DefaultMemWatts
	}
	n := cl.NumNodes()
	perNode := bound / float64(n)
	cpu := perNode - mem
	if cpu <= 0 {
		return nil, fmt.Errorf("all-in: bound %.1f W leaves no CPU power on %d nodes", bound, n)
	}
	return &plan.Plan{
		NodeIDs:  plan.FirstN(n),
		Cores:    cl.Spec().Cores(),
		Affinity: baselineAffinity,
		PerNode:  plan.UniformBudgets(n, power.Budget{CPU: cpu, Mem: mem}),
		Notes:    "all nodes, all cores, static memory power",
	}, nil
}

// LowerLimit shrinks the node count until every participating node
// receives at least DefaultFloorWatts, then behaves like All-In.
type LowerLimit struct {
	// MemWatts is the static DRAM allocation (DefaultMemWatts when 0).
	MemWatts float64
}

var _ plan.Method = (*LowerLimit)(nil)

// Name implements plan.Method.
func (*LowerLimit) Name() string { return "Lower-Limit" }

// Plan implements plan.Method.
func (l *LowerLimit) Plan(cl *hw.Cluster, app *workload.Spec, bound float64) (*plan.Plan, error) {
	mem := l.MemWatts
	if mem <= 0 {
		mem = DefaultMemWatts
	}
	n := cl.NumNodes()
	if bound < DefaultFloorWatts*float64(n) {
		n = int(bound / DefaultFloorWatts)
	}
	if n < 1 {
		n = 1
	}
	perNode := bound / float64(n)
	cpu := perNode - mem
	if cpu <= 0 {
		return nil, fmt.Errorf("lower-limit: bound %.1f W leaves no CPU power", bound)
	}
	return &plan.Plan{
		NodeIDs:  plan.FirstN(n),
		Cores:    cl.Spec().Cores(),
		Affinity: baselineAffinity,
		PerNode:  plan.UniformBudgets(n, power.Budget{CPU: cpu, Mem: mem}),
		Notes:    fmt.Sprintf("floor=%.0fW nodes=%d", DefaultFloorWatts, n),
	}, nil
}

// Coordinated reproduces the cross-component method of Ge et al.
// (ICPP'16, paper reference [15]): per-application power floors and a
// CPU/DRAM split that follows the application's memory demand, but
// always at the highest concurrency and with no inflection-point
// awareness.
type Coordinated struct{}

var _ plan.Method = (*Coordinated)(nil)

// Name implements plan.Method.
func (*Coordinated) Name() string { return "Coordinated" }

// Plan implements plan.Method.
func (co *Coordinated) Plan(cl *hw.Cluster, app *workload.Spec, bound float64) (*plan.Plan, error) {
	spec := cl.Spec()
	cores := spec.Cores()
	sockets := spec.Sockets

	// Application-specific memory demand, measured with a short
	// all-core probe (Coordinated profiles power, not scalability).
	probe, err := sim.EvalTime(cl, app, sim.Config{
		Nodes: 1, CoresPerNode: cores, Affinity: baselineAffinity,
		MaxIterations: maxInt(1, app.ProfileIterations),
	})
	if err != nil {
		return nil, fmt.Errorf("coordinated: probe: %w", err)
	}
	mem := math.Min(probe.MemPower0+2, float64(sockets)*spec.MemMaxPower)

	// Application-specific floor: the acceptable lower bound at full
	// concurrency.
	floor := power.CPUPower(spec, cores, sockets, spec.FMin(), 1.0) + mem
	n := cl.NumNodes()
	if bound < floor*float64(n) {
		n = int(bound / floor)
	}
	if n < 1 {
		n = 1
	}
	perNode := bound / float64(n)
	cpu := perNode - mem
	if cpu <= 0 {
		return nil, fmt.Errorf("coordinated: bound %.1f W leaves no CPU power", bound)
	}
	return &plan.Plan{
		NodeIDs:  plan.FirstN(n),
		Cores:    cores,
		Affinity: baselineAffinity,
		PerNode:  plan.UniformBudgets(n, power.Budget{CPU: cpu, Mem: mem}),
		Notes:    fmt.Sprintf("app floor=%.0fW mem=%.0fW nodes=%d", floor, mem, n),
	}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
