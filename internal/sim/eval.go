package sim

import (
	"repro/internal/hw"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// This file is the allocation-free scoring fast path used by search
// loops (baseline.Optimal, Conductor trials, jobsched previews). It
// runs the same per-node model as Run — runNode, with the CPU-energy
// and event bookkeeping switched off — so Eval.Time is bit-identical to
// Result.Time, but nothing is allocated: no Result, no NodeResult
// slice, no Events.

// mEvals counts fast-path evaluations (telemetry).
var mEvals = telemetry.Default.Counter("clip_sim_evals_total",
	"allocation-free candidate evaluations (EvalTime fast path)")

// Eval is the value-type outcome of an EvalTime scoring pass: exactly
// the fields search loops consume, bit-identical to the corresponding
// Result fields of Run under the same Config.
type Eval struct {
	Time       float64 // total runtime, seconds (== Result.Time)
	IterTime   float64 // cluster-wide seconds per iteration (incl. comm)
	CommTime   float64 // communication seconds per iteration
	Iterations int
	// CapOK is false when any participating node fell below the DVFS
	// range and had to duty-cycle (== every NodeResult.CapOK ANDed).
	CapOK bool
	// MemPower0 is the DRAM power draw of the first participating node
	// (== Result.Nodes[0].MemPower); single-node probes read it.
	MemPower0 float64
}

// Perf converts the evaluated runtime to a throughput figure
// (1/seconds), exactly as Result.Perf does.
func (e Eval) Perf() float64 {
	if e.Time <= 0 {
		return 0
	}
	return 1 / e.Time
}

// EvalTime scores app on cluster under cfg without constructing a
// Result. On clusters without per-node budgets it additionally skips
// nodes whose power-efficiency coefficient matches the first node's —
// identical inputs produce identical per-node timing, so only distinct
// operating points are computed.
func EvalTime(cl *hw.Cluster, app *workload.Spec, cfg Config) (Eval, error) {
	if err := cfg.Validate(cl, app); err != nil {
		return Eval{}, err
	}
	mEvals.Inc()
	spec := cl.Spec()
	iters := app.Iterations
	if cfg.MaxIterations > 0 && cfg.MaxIterations < iters {
		iters = cfg.MaxIterations
	}

	ev := Eval{Iterations: iters, CapOK: true}
	uniform := cfg.PerNode == nil
	var slowest, eff0 float64
	for slot := 0; slot < cfg.Nodes; slot++ {
		id := slot
		if cfg.NodeIDs != nil {
			id = cfg.NodeIDs[slot]
		}
		node := cl.Nodes[id]
		if slot == 0 {
			eff0 = node.PowerEff
		} else if uniform && node.PowerEff == eff0 {
			continue // same spec, budget and efficiency: same timing
		}
		budget := cfg.Budget
		if cfg.PerNode != nil {
			budget = cfg.PerNode[slot]
		}
		nr := runNode(spec, node, app, &cfg, budget, nil)
		if nr.IterTime > slowest {
			slowest = nr.IterTime
		}
		if !nr.CapOK {
			ev.CapOK = false
		}
		if slot == 0 {
			ev.MemPower0 = nr.MemPower
		}
	}
	ev.CommTime = CommTimeFor(cl, app, cfg.Nodes)
	ev.IterTime = slowest + ev.CommTime
	ev.Time = ev.IterTime * float64(iters)
	return ev, nil
}
