package bench

import (
	"fmt"
	"io"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "abl-var",
		Title: "Inter-node coordination under manufacturing variability",
		Paper: "§III-B2 — Inadomi-style power re-balancing when variability exceeds the threshold",
		Run:   runAblVar,
	})
	register(Experiment{
		ID:    "abl-phase",
		Title: "Phase-wise concurrency for BT-MZ (exch_qbc throttling)",
		Paper: "§V-B1 — changing concurrency phase-by-phase for the BT benchmark",
		Run:   runAblPhase,
	})
	register(Experiment{
		ID:    "abl-even",
		Title: "Odd vs even concurrency",
		Paper: "§V-B2 — applications perform worse with odd-value concurrency; predictions are floored to even",
		Run:   runAblEven,
	})
}

// runAblVar sweeps variability sigma and compares CLIP's plan executed
// with and without inter-node power coordination.
func runAblVar(ctx *Context, w io.Writer) error {
	e, _ := ByID("abl-var")
	header(w, e)
	app := workload.LUMZ()
	const bound = 1000.0

	// The sweep varies only node variability, so every cluster reuses
	// the context's regression for the testbed spec.
	model, err := ctx.npModel()
	if err != nil {
		return err
	}
	t := trace.NewTable("sigma", "spread", "coordinated", "runtime_s", "gain_%")
	for _, sigma := range []float64{0.0, 0.02, 0.05, 0.08} {
		cl := hw.NewCluster(8, ctx.Cluster.Spec(), sigma, 4242)
		clip, err := core.New(cl, core.Options{NPModel: model})
		if err != nil {
			return err
		}
		prof, pd, err := clip.Predictor(app)
		if err != nil {
			return err
		}

		var times [2]float64
		var coordFlag [2]bool
		for i, thr := range []float64{-1, 0} { // off, default
			co := &coordinator.Coordinator{Cluster: cl, Threshold: thr}
			d, err := co.Schedule(app, prof, pd, bound)
			if err != nil {
				return err
			}
			res, err := plan.Execute(cl, app, d.Plan)
			if err != nil {
				return err
			}
			times[i] = res.Time
			coordFlag[i] = d.Coordinated
		}
		t.Add(sigma, cl.MaxVariability(), "off", times[0], 0.0)
		t.Add(sigma, cl.MaxVariability(), fmt.Sprintf("%v", coordFlag[1]), times[1],
			100*(times[0]/times[1]-1))
	}
	t.Render(w)
	fmt.Fprintln(w, "\n(gain relative to the uncoordinated plan at the same sigma)")
	return nil
}

// runAblPhase compares BT-MZ with uniform concurrency against the
// phase-wise plan that throttles exch_qbc to the inflection point.
func runAblPhase(ctx *Context, w io.Writer) error {
	e, _ := ByID("abl-phase")
	header(w, e)
	clip, err := ctx.CLIP()
	if err != nil {
		return err
	}
	app := workload.BTMZ()
	prof, err := clip.Profile(app)
	if err != nil {
		return err
	}

	t := trace.NewTable("configuration", "runtime_s", "speedup_vs_uniform")
	base := sim.Config{Nodes: 1, CoresPerNode: prof.NodeCores, Affinity: prof.Affinity}
	uniform, err := sim.EvalTime(ctx.Cluster, app, base)
	if err != nil {
		return err
	}
	t.Add(fmt.Sprintf("uniform %d cores", prof.NodeCores), uniform.Time, 1.0)

	for _, np := range []int{prof.PredictedNP, 8, 12} {
		if np <= 0 || np >= prof.NodeCores {
			continue
		}
		cfg := base
		cfg.PhaseCores = map[string]int{"exch_qbc": np}
		res, err := sim.EvalTime(ctx.Cluster, app, cfg)
		if err != nil {
			return err
		}
		t.Add(fmt.Sprintf("exch_qbc@%d cores", np), res.Time, uniform.Time/res.Time)
	}
	t.Render(w)
	return nil
}

// runAblEven quantifies the odd/even concurrency effect that motivates
// flooring predictions to even values.
func runAblEven(ctx *Context, w io.Writer) error {
	e, _ := ByID("abl-even")
	header(w, e)
	app := workload.SPMZ()
	t := trace.NewTable("cores", "runtime_s", "vs_next_even_%")
	for n := 7; n <= 15; n += 2 {
		odd, err := sim.EvalTime(ctx.Cluster, app, sim.Config{Nodes: 1, CoresPerNode: n, Affinity: workload.Compact})
		if err != nil {
			return err
		}
		even, err := sim.EvalTime(ctx.Cluster, app, sim.Config{Nodes: 1, CoresPerNode: n + 1, Affinity: workload.Compact})
		if err != nil {
			return err
		}
		t.Add(n, odd.Time, 100*(odd.Time/even.Time-1))
	}
	t.Render(w)
	fmt.Fprintln(w, "\n(positive means the odd count is slower than its even neighbour)")
	return nil
}
