package baseline

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/workload"
)

func cluster() *hw.Cluster { return hw.NewCluster(8, hw.HaswellSpec(), 0, 1) }

func TestAllInUsesEverything(t *testing.T) {
	cl := cluster()
	p, err := (&AllIn{}).Plan(cl, workload.CoMD(), 1600)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes() != 8 {
		t.Errorf("All-In used %d nodes, want 8", p.Nodes())
	}
	if p.Cores != 24 {
		t.Errorf("All-In used %d cores, want 24", p.Cores)
	}
	if p.PerNode[0].Mem != DefaultMemWatts {
		t.Errorf("All-In memory %v, want %v", p.PerNode[0].Mem, DefaultMemWatts)
	}
	if p.PerNode[0].Total() != 200 {
		t.Errorf("per-node budget %v, want 200", p.PerNode[0].Total())
	}
	if err := p.Validate(cl, 1600); err != nil {
		t.Error(err)
	}
}

func TestAllInIgnoresApplication(t *testing.T) {
	cl := cluster()
	a, _ := (&AllIn{}).Plan(cl, workload.CoMD(), 1600)
	b, _ := (&AllIn{}).Plan(cl, workload.Stream(), 1600)
	if a.Cores != b.Cores || a.Nodes() != b.Nodes() || a.PerNode[0] != b.PerNode[0] {
		t.Error("All-In must be application-oblivious")
	}
}

func TestAllInStarved(t *testing.T) {
	cl := cluster()
	if _, err := (&AllIn{}).Plan(cl, workload.CoMD(), 200); err == nil {
		t.Error("All-In accepted a bound below 8x its memory allocation")
	}
}

func TestLowerLimitNodeReduction(t *testing.T) {
	cl := cluster()
	cases := []struct {
		bound float64
		nodes int
	}{
		{1600, 8}, {1599, 7}, {800, 4}, {401, 2}, {150, 1},
	}
	for _, c := range cases {
		p, err := (&LowerLimit{}).Plan(cl, workload.CoMD(), c.bound)
		if err != nil {
			t.Fatalf("bound %v: %v", c.bound, err)
		}
		if p.Nodes() != c.nodes {
			t.Errorf("bound %v: %d nodes, want %d (floor %v W)",
				c.bound, p.Nodes(), c.nodes, DefaultFloorWatts)
		}
		if err := p.Validate(cl, c.bound); err != nil {
			t.Errorf("bound %v: %v", c.bound, err)
		}
	}
}

func TestLowerLimitFloorRespected(t *testing.T) {
	cl := cluster()
	p, err := (&LowerLimit{}).Plan(cl, workload.CoMD(), 1100)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes() > 1 && p.PerNode[0].Total() < DefaultFloorWatts-1e-9 {
		t.Errorf("per-node %v W below the floor", p.PerNode[0].Total())
	}
}

func TestCoordinatedMemFollowsApp(t *testing.T) {
	cl := cluster()
	stream, err := (&Coordinated{}).Plan(cl, workload.Stream(), 1600)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := (&Coordinated{}).Plan(cl, workload.EP(), 1600)
	if err != nil {
		t.Fatal(err)
	}
	if stream.PerNode[0].Mem <= ep.PerNode[0].Mem {
		t.Errorf("Coordinated granted stream %v W and EP %v W of DRAM power",
			stream.PerNode[0].Mem, ep.PerNode[0].Mem)
	}
}

func TestCoordinatedAlwaysMaxConcurrency(t *testing.T) {
	cl := cluster()
	p, err := (&Coordinated{}).Plan(cl, workload.SPMZ(), 1200)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cores != 24 {
		t.Errorf("Coordinated used %d cores; it never throttles concurrency", p.Cores)
	}
	if err := p.Validate(cl, 1200); err != nil {
		t.Error(err)
	}
}

func TestOptimalBeatsNaiveBaselines(t *testing.T) {
	cl := cluster()
	app := workload.SPMZ()
	const bound = 1200.0
	opt, err := (&Optimal{MemSteps: 4}).Plan(cl, app, bound)
	if err != nil {
		t.Fatal(err)
	}
	optRes, err := plan.Execute(cl, app, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []plan.Method{&AllIn{}, &LowerLimit{}, &Coordinated{}} {
		p, err := m.Plan(cl, app, bound)
		if err != nil {
			continue
		}
		res, err := plan.Execute(cl, app, p)
		if err != nil {
			t.Fatal(err)
		}
		if optRes.Time > res.Time+1e-9 {
			t.Errorf("Optimal (%.2fs) lost to %s (%.2fs)", optRes.Time, m.Name(), res.Time)
		}
	}
	if err := opt.Validate(cl, bound); err != nil {
		t.Error(err)
	}
}

func TestOptimalRespectsProcCounts(t *testing.T) {
	cl := cluster()
	app := workload.CoMD()
	app.ProcCounts = []int{2}
	p, err := (&Optimal{MemSteps: 3}).Plan(cl, app, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes() != 2 {
		t.Errorf("Optimal used %d nodes, app accepts only 2", p.Nodes())
	}
}

func TestMethodNames(t *testing.T) {
	names := map[plan.Method]string{
		&AllIn{}:       "All-In",
		&LowerLimit{}:  "Lower-Limit",
		&Coordinated{}: "Coordinated",
		&Optimal{}:     "Optimal",
	}
	for m, want := range names {
		if m.Name() != want {
			t.Errorf("Name() = %q, want %q", m.Name(), want)
		}
	}
}

func TestBudgetsWithinBound(t *testing.T) {
	cl := cluster()
	for _, m := range []plan.Method{&AllIn{}, &LowerLimit{}, &Coordinated{}} {
		for _, bound := range []float64{2400, 1200, 600} {
			p, err := m.Plan(cl, workload.LUMZ(), bound)
			if err != nil {
				continue
			}
			if err := p.Validate(cl, bound); err != nil {
				t.Errorf("%s @%v: %v", m.Name(), bound, err)
			}
		}
	}
}

// TestSocketsForBaseline pins the placement the baselines size their
// power plans with: the shared rule in sim.
func TestSocketsForBaseline(t *testing.T) {
	spec := hw.HaswellSpec()
	if sim.SocketsUsedFor(spec, 12, workload.Compact) != 1 {
		t.Error("compact 12 should use 1 socket")
	}
	if sim.SocketsUsedFor(spec, 2, workload.Scatter) != 2 {
		t.Error("scatter 2 should use 2 sockets")
	}
}

func TestConductorSearchReport(t *testing.T) {
	cl := cluster()
	rep, err := (&Conductor{}).TimeToSolution(cl, workload.LUMZ(), 1200)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials < 30 {
		t.Errorf("exhaustive search ran only %d trials", rep.Trials)
	}
	if rep.SearchSeconds <= 0 {
		t.Error("search cost not charged")
	}
	if rep.Chosen == nil || rep.Chosen.Cores%2 != 0 {
		t.Errorf("chosen plan invalid: %+v", rep.Chosen)
	}
	if err := rep.Chosen.Validate(cl, 1200); err != nil {
		t.Error(err)
	}
	if rep.Total() != rep.SearchSeconds+rep.RunSeconds {
		t.Error("Total() inconsistent")
	}
}

// TestConductorSearchDominatesShortJobs: for a short job the exhaustive
// search consumes the entire run — the paper's critique of ref [31].
func TestConductorSearchDominatesShortJobs(t *testing.T) {
	cl := cluster()
	rep, err := (&Conductor{}).TimeToSolution(cl, workload.CoMD(), 1200)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials*3 < workload.CoMD().Iterations {
		t.Skip("search no longer exceeds the job; critique not applicable")
	}
	if rep.RunSeconds != 0 {
		t.Errorf("search covered every iteration yet run time is %v", rep.RunSeconds)
	}
}

func TestConductorInfeasible(t *testing.T) {
	cl := cluster()
	if _, err := (&Conductor{}).TimeToSolution(cl, workload.CoMD(), 3); err == nil {
		t.Error("3 W bound accepted")
	}
}
