package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/trace"
	"repro/internal/workload"
)

// renamed wraps a method with a display name (for objective variants).
type renamed struct {
	plan.Method
	name string
}

// Name implements plan.Method.
func (r renamed) Name() string { return r.name }

// Plan implements plan.Method (the wrapped CLIP rejects foreign
// clusters, so pass through directly).
func (r renamed) Plan(cl *hw.Cluster, app *workload.Spec, bound float64) (*plan.Plan, error) {
	return r.Method.Plan(cl, app, bound)
}

func init() {
	register(Experiment{
		ID:    "energy",
		Title: "Energy-to-solution and energy-delay product per method",
		Paper: "extension — the intro's power-efficiency motivation quantified (performance per joule)",
		Run:   runEnergy,
	})
	register(Experiment{
		ID:    "overprovision",
		Title: "Hardware overprovisioning: node count vs per-node power at a fixed bound",
		Paper: "related work [33] (Patki et al.) — the trade-off CLIP's node-count selection automates",
		Run:   runOverprovision,
	})
}

// runEnergy compares total energy and EDP of the four methods at one
// mid-range budget across the suite.
func runEnergy(ctx *Context, w io.Writer) error {
	e, _ := ByID("energy")
	header(w, e)
	methods, err := comparisonMethods(ctx)
	if err != nil {
		return err
	}
	// CLIP-E: the energy-aware objective (minimum predicted energy
	// within a 10% slowdown of the fastest configuration).
	model, err := ctx.npModel()
	if err != nil {
		return err
	}
	clipE, err := core.New(ctx.Cluster, core.Options{
		Knowledge:       core.NewKnowledge(ctx.Cluster.Spec(), model),
		EnergyTolerance: 0.10,
	})
	if err != nil {
		return err
	}
	methods = append(methods, renamed{clipE, "CLIP-E(10%)"})
	const bound = 1200.0
	t := trace.NewTable("application", "method", "runtime_s", "energy_kJ", "EDP_kJs/1e3", "avg_power_W")
	type agg struct {
		energy, edp float64
		n           int
	}
	byMethod := make(map[string]*agg)
	for _, app := range suiteApps() {
		for _, m := range methods {
			p, err := m.Plan(ctx.Cluster, app, bound)
			if err != nil {
				continue
			}
			res, err := plan.Execute(ctx.Cluster, app, p)
			if err != nil {
				return err
			}
			edp := res.Energy * res.Time
			t.Add(app.Name, m.Name(), res.Time, res.Energy/1e3, edp/1e6, res.AvgPower)
			a := byMethod[m.Name()]
			if a == nil {
				a = &agg{}
				byMethod[m.Name()] = a
			}
			a.energy += res.Energy
			a.edp += edp
			a.n++
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "\ntotals across the suite:")
	st := trace.NewTable("method", "total_energy_MJ", "total_EDP_GJs", "apps")
	for _, m := range methods {
		a := byMethod[m.Name()]
		if a == nil {
			continue
		}
		st.Add(m.Name(), a.energy/1e6, a.edp/1e9, a.n)
	}
	st.Render(w)
	fmt.Fprintln(w, "\n(CLIP's concurrency throttling saves energy on parabolic apps twice: less waste, shorter runs)")
	return nil
}

// runOverprovision sweeps the node count for a fixed total budget with
// all cores active, exposing the overprovisioning trade-off that CLIP's
// cluster level automates: more nodes, less power each, until the
// per-node budget falls out of the acceptable range.
func runOverprovision(ctx *Context, w io.Writer) error {
	e, _ := ByID("overprovision")
	header(w, e)
	const bound = 1100.0
	apps := []string{"comd", "lu-mz.C", "sp-mz.C"}
	clip, err := ctx.CLIP()
	if err != nil {
		return err
	}

	for _, name := range apps {
		app, err := appByName(name)
		if err != nil {
			return err
		}
		var x []float64
		var perf []float64
		best, bestN := 0.0, 0
		for n := 1; n <= ctx.Cluster.NumNodes(); n++ {
			pl := planAllCores(ctx, n, bound)
			res, err := plan.Execute(ctx.Cluster, app, pl)
			if err != nil {
				return err
			}
			x = append(x, float64(n))
			perf = append(perf, res.Perf()*1e3)
			if res.Perf() > best {
				best, bestN = res.Perf(), n
			}
		}
		trace.Series(w, fmt.Sprintf("%s — all-core performance (1/s ×1000) vs node count at %.0f W total", name, bound),
			"nodes", x, []string{"perf"}, [][]float64{perf})

		d, err := clip.Schedule(app, bound)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "naive all-core sweet spot: %d nodes; CLIP chose %d nodes x %d cores\n\n",
			bestN, d.Plan.Nodes(), d.Plan.Cores)
	}
	return nil
}
