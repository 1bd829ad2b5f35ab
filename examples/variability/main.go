// Variability: show the effect of manufacturing variability on a
// power-bounded run and how CLIP's inter-node power coordination
// (Inadomi-style, paper §III-B2) recovers the loss by equalising
// sustainable frequencies across nodes.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	app := workload.AMG()
	const bound = 1100.0

	t := trace.NewTable("sigma", "eff_spread", "mode", "nodes", "slowest_freq_GHz",
		"runtime_s", "gain_%")
	for _, sigma := range []float64{0.0, 0.03, 0.06, 0.09} {
		cluster := hw.NewCluster(8, hw.HaswellSpec(), sigma, 99)
		clip, err := core.New(cluster)
		if err != nil {
			log.Fatal(err)
		}
		adv, err := clip.Advisor(app)
		if err != nil {
			log.Fatal(err)
		}

		var base float64
		for _, mode := range []struct {
			name string
			thr  float64
		}{{"uniform", -1}, {"coordinated", 0}} {
			co := &coordinator.Coordinator{Cluster: cluster, Threshold: mode.thr}
			d, err := co.Schedule(app, adv, bound)
			if err != nil {
				log.Fatal(err)
			}
			res, err := plan.Execute(cluster, app, d.Plan)
			if err != nil {
				log.Fatal(err)
			}
			slowest := res.Nodes[0].Freq
			for _, nr := range res.Nodes {
				if nr.Freq < slowest {
					slowest = nr.Freq
				}
			}
			gain := 0.0
			if mode.name == "uniform" {
				base = res.Time
			} else {
				gain = 100 * (base/res.Time - 1)
			}
			t.Add(sigma, cluster.MaxVariability(), mode.name, d.Plan.Nodes(), slowest, res.Time, gain)
		}
	}
	fmt.Printf("%s under a %.0f W bound with increasing manufacturing variability\n\n", app.Name, bound)
	t.Render(os.Stdout)
	fmt.Println("\nuniform gives every node the same budget; coordinated re-balances budgets so all nodes sustain the same frequency")
}
