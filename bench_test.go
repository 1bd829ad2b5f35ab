// Repository-level benchmarks: one testing.B benchmark per paper table
// and figure (driving the same harness as cmd/clipbench), plus
// micro-benchmarks for the hot paths of the framework itself.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/hw"
	"repro/internal/jobsched"
	"repro/internal/mlr"
	"repro/internal/perfmodel"
	"repro/internal/plan"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/recommend"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

var (
	ctxOnce  sync.Once
	benchCtx *bench.Context
)

func sharedContext(b *testing.B) *bench.Context {
	b.Helper()
	ctxOnce.Do(func() {
		benchCtx = bench.NewContext()
		// Force CLIP construction (NP-model training) outside timing.
		if _, err := benchCtx.CLIP(); err != nil {
			panic(err)
		}
	})
	return benchCtx
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	ctx := sharedContext(b)
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(ctx, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig1(b *testing.B)         { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)         { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkFig6(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkTab1(b *testing.B)         { benchExperiment(b, "tab1") }
func BenchmarkTab2(b *testing.B)         { benchExperiment(b, "tab2") }
func BenchmarkAblVar(b *testing.B)       { benchExperiment(b, "abl-var") }
func BenchmarkAblPhase(b *testing.B)     { benchExperiment(b, "abl-phase") }
func BenchmarkAblEven(b *testing.B)      { benchExperiment(b, "abl-even") }
func BenchmarkOptimal(b *testing.B)      { benchExperiment(b, "optimal") }
func BenchmarkDesValidate(b *testing.B)  { benchExperiment(b, "des-validate") }
func BenchmarkMultiJob(b *testing.B)     { benchExperiment(b, "multijob") }
func BenchmarkExtSuite(b *testing.B)     { benchExperiment(b, "ext-suite") }
func BenchmarkEnergy(b *testing.B)       { benchExperiment(b, "energy") }
func BenchmarkOverprov(b *testing.B)     { benchExperiment(b, "overprovision") }
func BenchmarkRobustness(b *testing.B)   { benchExperiment(b, "robustness") }
func BenchmarkCtrlTrace(b *testing.B)    { benchExperiment(b, "ctrl-trace") }
func BenchmarkWeakScaling(b *testing.B)  { benchExperiment(b, "weak-scaling") }
func BenchmarkOverhead(b *testing.B)     { benchExperiment(b, "overhead") }
func BenchmarkDemandResp(b *testing.B)   { benchExperiment(b, "demand-response") }
func BenchmarkAblThreshold(b *testing.B) { benchExperiment(b, "abl-threshold") }

// Micro-benchmarks of the framework hot paths.

// BenchmarkSimRun measures one capped 8-node simulation — the unit of
// work every experiment multiplies.
func BenchmarkSimRun(b *testing.B) {
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0.02, 1)
	app := workload.LUMZ()
	cfg := sim.Config{Nodes: 8, CoresPerNode: 24, Affinity: workload.Scatter,
		Capped: true, Budget: power.Budget{CPU: 150, Mem: 40}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cl, app, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmartProfile measures the three-sample profiling flow.
func BenchmarkSmartProfile(b *testing.B) {
	ctx := sharedContext(b)
	clip, err := ctx.CLIP()
	if err != nil {
		b.Fatal(err)
	}
	pr := &profile.Profiler{Cluster: ctx.Cluster}
	app := workload.TeaLeaf()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Full(app, clip.NPModel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainNP measures the offline regression training for one
// node spec.
func BenchmarkTrainNP(b *testing.B) {
	spec := hw.HaswellSpec()
	apps := workload.TrainingSet(42, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perfmodel.TrainNP(spec, apps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLRFit measures the normal-equations solver on a Table I
// sized problem.
func BenchmarkMLRFit(b *testing.B) {
	r := rng.New(1)
	var x [][]float64
	var y []float64
	for i := 0; i < 42; i++ {
		row := make([]float64, 8)
		for j := range row {
			row[j] = r.Range(0, 25)
		}
		x = append(x, row)
		y = append(y, r.Range(2, 24))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mlr.Fit(x, y, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCLIPSchedule measures a warm scheduling decision (profiles
// cached) — the paper's "low overhead" claim.
func BenchmarkCLIPSchedule(b *testing.B) {
	ctx := sharedContext(b)
	clip, err := ctx.CLIP()
	if err != nil {
		b.Fatal(err)
	}
	app := workload.SPMZ()
	if _, err := clip.Schedule(app, 1200); err != nil { // warm cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clip.Schedule(app, 1200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendBest measures the node-level configuration search
// (§IV-B2) on a warm grid: one op sweeps 64 per-node budgets from 30 W,
// below the DVFS range, to 330 W, above the FMax draw, on the candidate
// grid of LU-MZ's cached profile and predictor. An untimed sweep fills
// the budget intervals the sweep falls in first, so every timed
// question finds its interval and scans that interval's contenders.
func BenchmarkRecommendBest(b *testing.B) {
	grid := luMZGrid(b)
	sweep := func() {
		for k := 0; k < 64; k++ {
			if _, ok := grid.Best(30+float64(k)*300/63, 0); !ok {
				b.Fatal("no configuration fits")
			}
		}
	}
	sweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// BenchmarkRecommendBestCold measures the same search from a cold grid,
// what a knowledge table pays for an application's first questions: one
// op builds LU-MZ's grid (candidates and breakpoints) and asks it a
// seeded stream of 1,024 per-node budgets uniform on 0-400 W, filling
// each budget interval on its first question.
func BenchmarkRecommendBestCold(b *testing.B) {
	grid := luMZGrid(b)
	r := rng.New(1)
	budgets := make([]float64, 1024)
	for i := range budgets {
		budgets[i] = r.Range(0, 400)
	}
	spec, prof, pd := grid.Predictor().Spec, grid.Profile(), grid.Predictor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := recommend.NewGrid(spec, prof, pd)
		for _, budget := range budgets {
			g.Best(budget, 0)
		}
	}
}

// luMZGrid returns a fresh candidate grid of LU-MZ's cached profile and
// predictor.
func luMZGrid(b *testing.B) *recommend.Grid {
	b.Helper()
	ctx := sharedContext(b)
	clip, err := ctx.CLIP()
	if err != nil {
		b.Fatal(err)
	}
	adv, err := clip.Advisor(workload.LUMZ())
	if err != nil {
		b.Fatal(err)
	}
	return recommend.NewGrid(ctx.Cluster.Spec(), adv.Profile(), adv.Predictor())
}

// BenchmarkColdCLIP measures full construction including NP-model
// training, the one-time offline cost.
func BenchmarkColdCLIP(b *testing.B) {
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(cl); err != nil {
			b.Fatal(err)
		}
	}
}

// fedScaleConfig is the fed-scale federation shape: 64 shards of 4
// nodes at 400 W each, locality routing, lending off.
func fedScaleConfig() fed.Config {
	cfg := fed.Config{Routing: fed.Locality}
	for i := 0; i < 64; i++ {
		cfg.Shards = append(cfg.Shards, fed.ShardConfig{
			Nodes: 4, BudgetW: 400, Sigma: 0.02, Seed: int64(1000 + i),
			Policy: jobsched.AggressiveBackfill, Reallocate: true,
		})
	}
	return cfg
}

// BenchmarkFedNew measures federation construction at the fed-scale
// shape, no arrivals scheduled. It is dominated by building the shard
// clusters and CLIP instances, which share one NP regression trained
// per federation.
func BenchmarkFedNew(b *testing.B) {
	cfg := fedScaleConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// fedScaleTrace is the fed-scale shape and arrival trace: 65,536 jobs,
// gaps uniform on [0, 0.5) s, applications uniform over the suite.
type fedScaleTrace struct {
	cfg  fed.Config
	ids  []string
	ts   []float64
	apps []*workload.Spec
}

func newFedScaleTrace() fedScaleTrace {
	const n = 65536
	r := rng.New(1)
	suite := workload.Suite()
	tr := fedScaleTrace{fedScaleConfig(), make([]string, n), make([]float64, n), make([]*workload.Spec, n)}
	now := 0.0
	for i := range tr.ids {
		now += r.Range(0, 0.5)
		tr.ids[i], tr.ts[i], tr.apps[i] = fmt.Sprintf("fed-scale-%d", i), now, suite[r.Intn(len(suite))]
	}
	return tr
}

// build makes a fed-scale federation and schedules every arrival.
func (tr fedScaleTrace) build(b *testing.B) *fed.Federation {
	f, err := fed.New(tr.cfg)
	if err != nil {
		b.Fatal(err)
	}
	for k := range tr.ids {
		if err := f.ScheduleArrivalPri(tr.ts[k], tr.ids[k], tr.apps[k], tr.ids[k], 0); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// BenchmarkFedBuild measures what a fed-scale trial pays before it
// runs: fed.New at the fed-scale shape plus 65,536 scheduled arrivals.
// The trace is generated once, outside the timer.
func BenchmarkFedBuild(b *testing.B) {
	tr := newFedScaleTrace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.build(b)
	}
}

// BenchmarkFedReplay measures the other half of a fed-scale trial:
// RunParallel(1) over the 65,536 arrivals, one shard replay after
// another, so the shards' dispatch dominates. Each iteration runs a
// fresh federation, built outside the timer.
func BenchmarkFedReplay(b *testing.B) {
	tr := newFedScaleTrace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := tr.build(b)
		b.StartTimer()
		if err := f.RunParallel(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalSearch measures the exhaustive oracle CLIP replaces.
func BenchmarkOptimalSearch(b *testing.B) {
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0, 1)
	app := workload.SPMZ()
	opt := &baseline.Optimal{MemSteps: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := opt.Plan(cl, app, 1200)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Execute(cl, app, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalSearchLarge stresses the branch-and-bound search at
// cluster scale: 64 nodes multiply the candidate grid and the cost of
// every evaluation.
func BenchmarkOptimalSearchLarge(b *testing.B) {
	cl := hw.NewCluster(64, hw.HaswellSpec(), 0, 1)
	app := workload.SPMZ()
	opt := &baseline.Optimal{MemSteps: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Plan(cl, app, 9600); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	throughputOnce  sync.Once
	throughputSched *jobsched.Scheduler
	throughputTrace []jobsched.Job
)

// BenchmarkJobschedThroughput drives the multi-job runtime through a
// deterministic 1000-job trace on a 16-node cluster — deep queues,
// backfill and power reallocation on every event.
func BenchmarkJobschedThroughput(b *testing.B) {
	throughputOnce.Do(func() {
		cl := hw.NewCluster(16, hw.HaswellSpec(), 0.02, 7)
		clip, err := core.New(cl)
		if err != nil {
			panic(err)
		}
		s, err := jobsched.New(cl, clip, jobsched.Config{
			Bound: 4200, Policy: jobsched.Backfill, Reallocate: true})
		if err != nil {
			panic(err)
		}
		throughputSched = s
		apps := []*workload.Spec{workload.CoMD(), workload.SPMZ(),
			workload.LUMZ(), workload.TeaLeaf(), workload.AMG()}
		r := rng.New(3)
		t := 0.0
		for i := 0; i < 1000; i++ {
			t += r.Range(0, 60)
			throughputTrace = append(throughputTrace, jobsched.Job{
				ID: fmt.Sprintf("j%04d", i), App: apps[i%len(apps)], Arrival: t})
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := throughputSched.Run(throughputTrace); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	priThroughputOnce  sync.Once
	priThroughputSched *jobsched.Scheduler
	priThroughputTrace []jobsched.Job
)

// BenchmarkJobschedPriorityThroughput is the same 1000-job trace with a
// quarter of the jobs at high priority and preemption enabled — the
// worst case for the priority pipeline (two priority levels, feasibility
// filtering and preemption planning live on every event).
func BenchmarkJobschedPriorityThroughput(b *testing.B) {
	priThroughputOnce.Do(func() {
		cl := hw.NewCluster(16, hw.HaswellSpec(), 0.02, 7)
		clip, err := core.New(cl)
		if err != nil {
			panic(err)
		}
		s, err := jobsched.New(cl, clip, jobsched.Config{
			Bound: 4200, Policy: jobsched.Backfill, Reallocate: true, Preempt: true})
		if err != nil {
			panic(err)
		}
		priThroughputSched = s
		apps := []*workload.Spec{workload.CoMD(), workload.SPMZ(),
			workload.LUMZ(), workload.TeaLeaf(), workload.AMG()}
		r := rng.New(3)
		t := 0.0
		for i := 0; i < 1000; i++ {
			t += r.Range(0, 60)
			pri := 0
			if i%4 == 0 {
				pri = 5
			}
			priThroughputTrace = append(priThroughputTrace, jobsched.Job{
				ID: fmt.Sprintf("j%04d", i), App: apps[i%len(apps)], Arrival: t, Priority: pri})
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := priThroughputSched.Run(priThroughputTrace); err != nil {
			b.Fatal(err)
		}
	}
}
