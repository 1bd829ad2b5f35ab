// Package plan defines the common currency of all schedulers in this
// repository: an execution plan for one job under a cluster power
// bound, and the Method interface implemented by CLIP and every
// comparison baseline.
package plan

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Plan is a fully specified execution configuration: which nodes
// participate, how many cores each runs, the thread mapping, and the
// per-node CPU/DRAM power budgets.
type Plan struct {
	// NodeIDs are the participating nodes.
	NodeIDs []int
	// Cores is the active core count per node.
	Cores int
	// Affinity is the thread-to-socket mapping.
	Affinity workload.Affinity
	// PerNode holds one power budget per participating node.
	PerNode []power.Budget
	// PhaseCores optionally overrides concurrency per phase.
	PhaseCores map[string]int
	// Notes carries human-readable scheduler rationale for reports.
	Notes string
}

// Nodes returns the participating node count.
func (p *Plan) Nodes() int { return len(p.NodeIDs) }

// TotalBudget sums the per-node budgets.
func (p *Plan) TotalBudget() float64 {
	var t float64
	for _, b := range p.PerNode {
		t += b.Total()
	}
	return t
}

// Validate checks internal consistency and that the plan respects the
// given cluster power bound.
func (p *Plan) Validate(cl *hw.Cluster, bound float64) error {
	if len(p.NodeIDs) == 0 {
		return fmt.Errorf("plan: no nodes")
	}
	if len(p.PerNode) != len(p.NodeIDs) {
		return fmt.Errorf("plan: %d budgets for %d nodes", len(p.PerNode), len(p.NodeIDs))
	}
	if p.Cores <= 0 || p.Cores > cl.Spec().Cores() {
		return fmt.Errorf("plan: cores %d outside 1..%d", p.Cores, cl.Spec().Cores())
	}
	for _, id := range p.NodeIDs {
		if id < 0 || id >= cl.NumNodes() {
			return fmt.Errorf("plan: node id %d outside cluster", id)
		}
	}
	if t := p.TotalBudget(); t > bound+1e-6 {
		return fmt.Errorf("plan: total budget %.1f W exceeds bound %.1f W", t, bound)
	}
	return nil
}

// SimConfig converts the plan into a simulator configuration.
func (p *Plan) SimConfig() sim.Config {
	return sim.Config{
		Nodes:        len(p.NodeIDs),
		NodeIDs:      p.NodeIDs,
		CoresPerNode: p.Cores,
		Affinity:     p.Affinity,
		Capped:       true,
		PerNode:      p.PerNode,
		PhaseCores:   p.PhaseCores,
	}
}

// Candidate is a value-type uniform execution configuration: the first
// Nodes cluster nodes, Cores active cores on each, one power budget
// shared by every node. It is the currency of search loops — thousands
// of candidates are scored with EvalTime (no slices, no Plan, no
// Result) and only the winner is materialized into a full Plan.
type Candidate struct {
	// Nodes is the participating node count (node ids 0..Nodes-1).
	Nodes int
	// Cores is the active core count per node.
	Cores int
	// Affinity is the thread-to-socket mapping.
	Affinity workload.Affinity
	// PerNode is the power budget applied uniformly to every node.
	PerNode power.Budget
}

// Config converts the candidate into a capped simulator configuration
// without allocating.
func (c Candidate) Config() sim.Config {
	return sim.Config{
		Nodes:        c.Nodes,
		CoresPerNode: c.Cores,
		Affinity:     c.Affinity,
		Capped:       true,
		Budget:       c.PerNode,
	}
}

// Materialize expands the candidate into a full Plan (allocating the
// node-id and budget slices); call it once on a search's winner.
func (c Candidate) Materialize() *Plan {
	return &Plan{
		NodeIDs:  FirstN(c.Nodes),
		Cores:    c.Cores,
		Affinity: c.Affinity,
		PerNode:  UniformBudgets(c.Nodes, c.PerNode),
	}
}

// EvalTime scores a candidate on the allocation-free simulator fast
// path. The returned Eval carries exactly the fields a search loop
// ranks on, bit-identical to Execute on the materialized plan.
func EvalTime(cl *hw.Cluster, app *workload.Spec, c Candidate) (sim.Eval, error) {
	return sim.EvalTime(cl, app, c.Config())
}

// Method is a power-bounded scheduler: given a cluster, an application
// and a total power budget for the job, produce an execution plan.
type Method interface {
	// Name identifies the method in reports ("CLIP", "All-In", ...).
	Name() string
	// Plan schedules app on cl under a total budget of bound watts
	// across the CPU and DRAM domains of all participating nodes. A
	// method may hand the same cached plan to every caller, so callers
	// must not modify it.
	Plan(cl *hw.Cluster, app *workload.Spec, bound float64) (*Plan, error)
}

// Execute runs a plan in the simulator and returns the result.
func Execute(cl *hw.Cluster, app *workload.Spec, p *Plan) (*sim.Result, error) {
	cfg := p.SimConfig()
	return sim.Run(cl, app, cfg)
}

// UniformBudgets builds n copies of b.
func UniformBudgets(n int, b power.Budget) []power.Budget {
	out := make([]power.Budget, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// FirstN returns node ids 0..n-1.
func FirstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
