package bench

import (
	"fmt"
	"io"
	"math"

	"repro/internal/baseline"
	"repro/internal/trace"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "optimal",
		Title: "CLIP against the exhaustive-search optimum",
		Paper: "§V-C / abstract — 'the framework performs close to the optimal solution'",
		Run:   runOptimal,
	})
}

// runOptimal compares CLIP's performance to the oracle found by
// exhaustively simulating node counts × core counts × affinities ×
// power splits, across one application per class and two budgets.
func runOptimal(ctx *Context, w io.Writer) error {
	e, _ := ByID("optimal")
	header(w, e)
	clip, err := ctx.CLIP()
	if err != nil {
		return err
	}
	opt := &baseline.Optimal{Ctx: ctx.runCtx()}

	apps := []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.SPMZ()}
	bounds := []float64{1800, 1000}
	// The (application × budget) oracle searches are independent and
	// dominated by Optimal's exhaustive simulation; fan them out.
	type optCell struct {
		clipPerf, optPerf float64
		clipErr, optErr   error
	}
	cells := make([]optCell, len(apps)*len(bounds))
	ctx.forEach(len(cells), func(i int) {
		app, bound := apps[i/len(bounds)], bounds[i%len(bounds)]
		c := &cells[i]
		c.clipPerf, c.clipErr = runMethod(ctx, clip, app, bound)
		if c.clipErr != nil {
			return
		}
		c.optPerf, c.optErr = runMethod(ctx, opt, app, bound)
	})
	t := trace.NewTable("application", "budget_W", "CLIP_perf", "Optimal_perf", "CLIP/Optimal_%")
	var worst float64 = 100
	for ai, app := range apps {
		for bi, bound := range bounds {
			cell := cells[ai*len(bounds)+bi]
			if cell.clipErr != nil {
				return cell.clipErr
			}
			if cell.optErr != nil {
				return cell.optErr
			}
			pct := 100 * cell.clipPerf / cell.optPerf
			if pct < worst {
				worst = pct
			}
			t.Add(app.Name, bound, cell.clipPerf, cell.optPerf, pct)
		}
	}
	t.Render(w)
	// Round down: the claim must hold at the printed precision.
	fmt.Fprintf(w, "\nCLIP reaches at least %.0f%% of the exhaustive optimum on every case above\n", math.Floor(worst))
	return nil
}
