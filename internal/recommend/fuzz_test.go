package recommend

import (
	"math"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scanBest is the reference Best checks against: the candidate search
// written out with no grid and no memo. Every candidate solves its
// frequency with power.EffectiveFreq and predicts its time with the
// predictor, on a nominal node.
func scanBest(spec *hw.NodeSpec, p *profile.Profile, pd *perfmodel.Predictor, nodeBudget, tolerance float64) (NodeConfig, bool) {
	if nodeBudget <= 0 || tolerance < 0 {
		return NodeConfig{}, false
	}
	type scored struct {
		cfg   NodeConfig
		watts float64
	}
	var candidates []scored
	limit := min(coreLimit(p), p.NodeCores)
	fracs := []float64{1.0}
	if tolerance > 0 {
		fracs = []float64{1.0, 0.85, 0.7, 0.55}
	}
	best := NodeConfig{PredIterTime: math.Inf(1)}
	for n := 1; n <= limit; n = nextCore(n) {
		sockets := sim.SocketsUsedFor(spec, n, p.Affinity)
		memBase := float64(sockets) * spec.MemBasePower
		memMax := float64(sockets) * spec.MemMaxPower
		demand := pd.MemDemandWatts(n) + MemHeadroomWatts
		for _, mem := range []float64{demand, demand * 0.8, demand * 1.25, memBase + 1} {
			mem = math.Max(memBase, math.Min(mem, memMax))
			for _, frac := range fracs {
				cpu := (nodeBudget - mem) * frac
				if cpu <= 0 {
					continue
				}
				f, pDraw, ok := power.EffectiveFreq(spec, n, sockets, cpu, 1.0)
				t := pd.Time(n, f, mem)
				cfg := NodeConfig{
					Cores: n, Affinity: p.Affinity,
					Budget: power.Budget{CPU: cpu, Mem: mem},
					Freq:   f, PredIterTime: t, CapOK: ok,
				}
				candidates = append(candidates, scored{cfg, pDraw + mem})
				if t < best.PredIterTime-1e-12 ||
					(math.Abs(t-best.PredIterTime) <= 1e-12 && n < best.Cores) {
					best = cfg
				}
			}
		}
	}
	if math.IsInf(best.PredIterTime, 1) {
		return NodeConfig{}, false
	}
	if tolerance > 0 {
		limit := best.PredIterTime * (1 + tolerance)
		bestEnergy := math.Inf(1)
		for _, c := range candidates {
			if c.cfg.PredIterTime > limit {
				continue
			}
			if e := c.watts * c.cfg.PredIterTime; e < bestEnergy-1e-12 {
				bestEnergy = e
				best = c.cfg
			}
		}
	}
	sockets := sim.SocketsUsedFor(spec, best.Cores, best.Affinity)
	if maxUseful := power.CPUPower(spec, best.Cores, sockets, spec.FMax(), 1.0) * 1.08; best.Budget.CPU > maxUseful {
		best.Budget.CPU = maxUseful
	}
	return best, true
}

// sameBits reports whether two configurations are bit-identical.
func sameBits(a, b NodeConfig) bool {
	bits := math.Float64bits
	return a.Cores == b.Cores && a.Affinity == b.Affinity && a.CapOK == b.CapOK &&
		bits(a.Budget.CPU) == bits(b.Budget.CPU) && bits(a.Budget.Mem) == bits(b.Budget.Mem) &&
		bits(a.Freq) == bits(b.Freq) && bits(a.PredIterTime) == bits(b.PredIterTime)
}

// suiteGrids profiles every suite application once per test binary.
var suiteGrids = sync.OnceValues(func() ([]*Grid, error) {
	cl := hw.NewCluster(1, hw.HaswellSpec(), 0, 1)
	m, err := perfmodel.TrainNP(cl.Spec(), workload.TrainingSet(42, 7))
	if err != nil {
		return nil, err
	}
	var grids []*Grid
	for _, app := range workload.Suite() {
		p, err := (&profile.Profiler{Cluster: cl}).Full(app, m)
		if err != nil {
			return nil, err
		}
		pd, err := perfmodel.NewPredictor(cl.Spec(), p)
		if err != nil {
			return nil, err
		}
		grids = append(grids, NewGrid(cl.Spec(), p, pd))
	}
	return grids, nil
})

// FuzzBestMatchesScan checks the grid search against the plain scan:
// for every suite application, a budget from -10 to 600 W (the
// duty-cycle region below the DVFS range up to budgets above the FMax
// draw; NaN and ±Inf are asked as they are) and both objectives, Best
// returns the scan's configuration bit for bit and the same ok. The
// seeds hold every suite grid's breakpoints and the floats next to
// them, where an interval lookup that disagreed with the scan's own
// comparisons would show. A cold input asks a fresh grid, so its
// interval is filled by that question; a warm one asks the shared suite
// grid, whose intervals fill in the order the inputs arrive.
func FuzzBestMatchesScan(f *testing.F) {
	grids, err := suiteGrids()
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range []float64{-10, 0, 5, 30, 40, 61.7, 90, 120, 180, 250, 320, 450, 600} {
		f.Add(uint8(0), b, false, false)
		f.Add(uint8(2), b, true, false)
		f.Add(uint8(7), b, false, true)
	}
	for a, g := range grids {
		for _, b := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
			f.Add(uint8(a), b, false, false)
			f.Add(uint8(a), b, true, true)
		}
		for _, b := range g.bounds {
			f.Add(uint8(a), math.Nextafter(b, math.Inf(-1)), false, false)
			f.Add(uint8(a), b, false, false)
			f.Add(uint8(a), math.Nextafter(b, math.Inf(1)), false, false)
		}
	}
	f.Fuzz(func(t *testing.T, app uint8, budget float64, energy, cold bool) {
		if !math.IsNaN(budget) && !math.IsInf(budget, 0) && (budget < -10 || budget > 600) {
			budget = -10 + math.Mod(math.Abs(budget), 610)
		}
		g := grids[int(app)%len(grids)]
		if cold {
			g = NewGrid(g.spec, g.prof, g.pd)
		}
		tolerance := 0.0
		if energy {
			tolerance = 0.1
		}
		got, gotOK := g.Best(budget, tolerance)
		want, wantOK := scanBest(g.spec, g.prof, g.pd, budget, tolerance)
		if gotOK != wantOK || !sameBits(got, want) {
			t.Errorf("%s at %v W, tolerance %g, cold %v: Best %+v (ok %v), scan %+v (ok %v)",
				g.prof.App, budget, tolerance, cold, got, gotOK, want, wantOK)
		}
	})
}

// TestWarmBestAllocatesNothing asks every suite grid about budgets
// across its range once, then again: a question about a filled interval
// allocates nothing, and a grid stores at most one contender list per
// breakpoint.
func TestWarmBestAllocatesNothing(t *testing.T) {
	grids, err := suiteGrids()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range grids {
		g = NewGrid(g.spec, g.prof, g.pd)
		ask := func() {
			for b := 1.0; b < 400; b += 3.7 {
				g.Best(b, 0)
			}
		}
		ask()
		if n := testing.AllocsPerRun(10, ask); n != 0 {
			t.Errorf("%s: %v allocations per warm sweep", g.prof.App, n)
		}
		if f := g.Filled(); f == 0 || f > len(g.bounds) {
			t.Errorf("%s: %d intervals filled, %d breakpoints", g.prof.App, f, len(g.bounds))
		}
	}
}
