package coordinator

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/recommend"
	"repro/internal/workload"
)

func setup(t *testing.T, cl *hw.Cluster, app *workload.Spec) *recommend.Grid {
	t.Helper()
	m, err := perfmodel.TrainNP(cl.Spec(), workload.TrainingSet(42, 7))
	if err != nil {
		t.Fatal(err)
	}
	pr := &profile.Profiler{Cluster: cl}
	p, err := pr.Full(app, m)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := perfmodel.NewPredictor(cl.Spec(), p)
	if err != nil {
		t.Fatal(err)
	}
	return recommend.NewGrid(cl.Spec(), p, pd)
}

func uniformCluster() *hw.Cluster { return hw.NewCluster(8, hw.HaswellSpec(), 0, 1) }

func TestScheduleRejectsBadBound(t *testing.T) {
	cl := uniformCluster()
	g := setup(t, cl, workload.CoMD())
	co := &Coordinator{Cluster: cl}
	if _, err := co.Schedule(workload.CoMD(), g, 0); err == nil {
		t.Error("zero bound accepted")
	}
	if _, err := co.Schedule(workload.CoMD(), g, -100); err == nil {
		t.Error("negative bound accepted")
	}
}

func TestHighBoundUsesAllNodes(t *testing.T) {
	cl := uniformCluster()
	app := workload.CoMD()
	g := setup(t, cl, app)
	co := &Coordinator{Cluster: cl}
	d, err := co.Schedule(app, g, 2600)
	if err != nil {
		t.Fatal(err)
	}
	if d.Plan.Nodes() != 8 {
		t.Errorf("ample bound used %d nodes, want 8", d.Plan.Nodes())
	}
	if d.Plan.Cores != 24 {
		t.Errorf("linear app got %d cores, want 24", d.Plan.Cores)
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	cl := uniformCluster()
	for _, app := range []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.SPMZ()} {
		g := setup(t, cl, app)
		co := &Coordinator{Cluster: cl}
		for _, bound := range []float64{2400, 1600, 1000, 700} {
			d, err := co.Schedule(app, g, bound)
			if err != nil {
				t.Fatalf("%s @%v: %v", app.Name, bound, err)
			}
			if err := d.Plan.Validate(cl, bound); err != nil {
				t.Errorf("%s @%v: %v", app.Name, bound, err)
			}
		}
	}
}

func TestLowBoundReducesNodesOrCores(t *testing.T) {
	cl := uniformCluster()
	app := workload.LUMZ()
	g := setup(t, cl, app)
	co := &Coordinator{Cluster: cl}
	high, err := co.Schedule(app, g, 2400)
	if err != nil {
		t.Fatal(err)
	}
	low, err := co.Schedule(app, g, 700)
	if err != nil {
		t.Fatal(err)
	}
	if low.Plan.Nodes() >= high.Plan.Nodes() && low.Plan.Cores >= high.Plan.Cores &&
		low.Plan.PerNode[0].Total() >= high.Plan.PerNode[0].Total() {
		t.Error("a 3.4x tighter bound changed nothing")
	}
}

func TestPredefinedProcCounts(t *testing.T) {
	cl := uniformCluster()
	app := workload.CoMD()
	app.ProcCounts = []int{1, 2, 4}
	g := setup(t, cl, app)
	co := &Coordinator{Cluster: cl}
	d, err := co.Schedule(app, g, 2600)
	if err != nil {
		t.Fatal(err)
	}
	n := d.Plan.Nodes()
	if n != 1 && n != 2 && n != 4 {
		t.Errorf("scheduled %d nodes, app only accepts 1/2/4", n)
	}
}

func TestNoFeasibleCount(t *testing.T) {
	cl := uniformCluster()
	app := workload.CoMD()
	g := setup(t, cl, app)
	co := &Coordinator{Cluster: cl}
	// A bound far below one node's lower range: the coordinator falls
	// back to a duty-cycled plan rather than failing.
	d, err := co.Schedule(app, g, 40)
	if err != nil {
		t.Fatal(err)
	}
	if d.Plan.Nodes() != 1 {
		t.Errorf("starved bound used %d nodes", d.Plan.Nodes())
	}
	if err := d.Plan.Validate(cl, 40); err != nil {
		t.Error(err)
	}
}

func TestVariabilityCoordinationTriggers(t *testing.T) {
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0.06, 7)
	app := workload.AMG()
	g := setup(t, cl, app)
	co := &Coordinator{Cluster: cl}
	d, err := co.Schedule(app, g, 1100)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Coordinated {
		t.Fatalf("variability %.3f did not trigger coordination", cl.MaxVariability())
	}
	// Budgets must differ across nodes (leakier parts get more power).
	same := true
	for _, b := range d.Plan.PerNode[1:] {
		if b.CPU != d.Plan.PerNode[0].CPU {
			same = false
		}
	}
	if same {
		t.Error("coordinated budgets are uniform")
	}
	// And the total must not exceed the uniform pool.
	if err := d.Plan.Validate(cl, 1100); err != nil {
		t.Error(err)
	}
}

func TestVariabilityCoordinationImproves(t *testing.T) {
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0.06, 7)
	app := workload.AMG()
	g := setup(t, cl, app)

	on := &Coordinator{Cluster: cl}
	off := &Coordinator{Cluster: cl, Threshold: -1}
	dOn, err := on.Schedule(app, g, 1100)
	if err != nil {
		t.Fatal(err)
	}
	dOff, err := off.Schedule(app, g, 1100)
	if err != nil {
		t.Fatal(err)
	}
	rOn, err := plan.Execute(cl, app, dOn.Plan)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := plan.Execute(cl, app, dOff.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if rOn.Time > rOff.Time+1e-9 {
		t.Errorf("coordination made things worse: %v vs %v", rOn.Time, rOff.Time)
	}
}

func TestHomogeneousSkipsCoordination(t *testing.T) {
	cl := uniformCluster()
	app := workload.AMG()
	g := setup(t, cl, app)
	co := &Coordinator{Cluster: cl}
	d, err := co.Schedule(app, g, 1100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Coordinated {
		t.Error("homogeneous cluster triggered coordination")
	}
}

func TestPickNodesPrefersEfficient(t *testing.T) {
	cl := hw.NewCluster(4, hw.HaswellSpec(), 0, 1)
	cl.Nodes[0].PowerEff = 1.10
	cl.Nodes[2].PowerEff = 0.95
	co := &Coordinator{Cluster: cl}
	ids := co.pickNodes(&Scratch{}, 2)
	for _, id := range ids {
		if id == 0 {
			t.Errorf("picked the leakiest node: %v", ids)
		}
	}
	has2 := false
	for _, id := range ids {
		if id == 2 {
			has2 = true
		}
	}
	if !has2 {
		t.Errorf("did not pick the most efficient node: %v", ids)
	}
}

func TestParabolicCoresAtMostNP(t *testing.T) {
	cl := uniformCluster()
	app := workload.TeaLeaf()
	g := setup(t, cl, app)
	co := &Coordinator{Cluster: cl}
	for _, bound := range []float64{2400, 1200, 800} {
		d, err := co.Schedule(app, g, bound)
		if err != nil {
			t.Fatal(err)
		}
		if d.Plan.Cores > g.Profile().PredictedNP {
			t.Errorf("bound %v: parabolic plan uses %d cores beyond NP %d",
				bound, d.Plan.Cores, g.Profile().PredictedNP)
		}
	}
}

func TestNotesPopulated(t *testing.T) {
	cl := uniformCluster()
	app := workload.LUMZ()
	g := setup(t, cl, app)
	co := &Coordinator{Cluster: cl}
	d, err := co.Schedule(app, g, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if d.Plan.Notes == "" {
		t.Error("plan rationale missing")
	}
	if d.PredTime <= 0 {
		t.Error("predicted time missing")
	}
}

// TestExplicitZeroThreshold pins the Threshold semantics the ablations
// rely on: an explicit 0 (their "default" mode) is the zero value and
// keeps the paper's trigger, while a positive value overrides it.
func TestExplicitZeroThreshold(t *testing.T) {
	if got := (&Coordinator{Threshold: 0}).threshold(); got != VariabilityThreshold {
		t.Errorf("zero threshold = %g, want default %g", got, VariabilityThreshold)
	}
	override := &Coordinator{Threshold: 0.10}
	if got := override.threshold(); got != 0.10 {
		t.Errorf("non-zero override = %g, want 0.10", got)
	}

	// On the mildly variable paper testbed (spread below the default
	// threshold) the default skips coordination but a threshold below
	// the spread activates it.
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0.004, 7)
	if cl.MaxVariability() <= 0 || cl.MaxVariability() > VariabilityThreshold {
		t.Fatalf("test cluster spread %.4f outside (0, %g]", cl.MaxVariability(), VariabilityThreshold)
	}
	app := workload.AMG()
	g := setup(t, cl, app)
	dDef, err := (&Coordinator{Cluster: cl, Threshold: 0}).Schedule(app, g, 1100)
	if err != nil {
		t.Fatal(err)
	}
	if dDef.Coordinated {
		t.Error("default threshold coordinated below the paper's trigger")
	}
	dLow, err := (&Coordinator{Cluster: cl, Threshold: 1e-9}).Schedule(app, g, 1100)
	if err != nil {
		t.Fatal(err)
	}
	if !dLow.Coordinated {
		t.Error("threshold below the spread did not coordinate")
	}
}
