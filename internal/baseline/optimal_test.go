package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// bruteForce reproduces the pre-branch-and-bound exhaustive grid search
// verbatim — every candidate builds a full Plan and runs the complete
// simulator — as the reference the pruned search must match exactly.
func bruteForce(cl *hw.Cluster, app *workload.Spec, bound float64, steps int) (*plan.Plan, error) {
	spec := cl.Spec()
	var best *plan.Plan
	bestTime := math.Inf(1)
	for _, nNodes := range app.AllowedProcCounts(cl.NumNodes()) {
		perNode := bound / float64(nNodes)
		for cores := 1; cores <= spec.Cores(); cores++ {
			for _, aff := range []workload.Affinity{workload.Compact, workload.Scatter} {
				sockets := sim.SocketsUsedFor(spec, cores, aff)
				memLo := float64(sockets) * spec.MemBasePower
				memHi := math.Min(float64(sockets)*spec.MemMaxPower, perNode-1)
				if memHi <= memLo {
					continue
				}
				for s := 0; s < steps; s++ {
					mem := memLo + (memHi-memLo)*float64(s)/float64(steps-1)
					cpu := perNode - mem
					if cpu <= 0 {
						continue
					}
					p := &plan.Plan{
						NodeIDs:  plan.FirstN(nNodes),
						Cores:    cores,
						Affinity: aff,
						PerNode:  plan.UniformBudgets(nNodes, power.Budget{CPU: cpu, Mem: mem}),
					}
					res, err := plan.Execute(cl, app, p)
					if err != nil {
						return nil, err
					}
					if res.Time < bestTime {
						bestTime = res.Time
						p.Notes = fmt.Sprintf("exhaustive best t=%.2fs", res.Time)
						best = p
					}
				}
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("optimal: no feasible configuration under %.1f W", bound)
	}
	return best, nil
}

// samePlan compares the fields that define an Optimal plan.
func samePlan(t *testing.T, label string, got, want *plan.Plan) {
	t.Helper()
	if got.Nodes() != want.Nodes() || got.Cores != want.Cores || got.Affinity != want.Affinity {
		t.Errorf("%s: plan shape (n=%d c=%d %v) != reference (n=%d c=%d %v)",
			label, got.Nodes(), got.Cores, got.Affinity, want.Nodes(), want.Cores, want.Affinity)
		return
	}
	if got.PerNode[0] != want.PerNode[0] {
		t.Errorf("%s: budget %+v != reference %+v", label, got.PerNode[0], want.PerNode[0])
	}
	if got.Notes != want.Notes {
		t.Errorf("%s: notes %q != reference %q", label, got.Notes, want.Notes)
	}
}

// equivCases is the seeded matrix the pruned search is validated on.
func equivCases() []struct {
	name  string
	cl    *hw.Cluster
	app   *workload.Spec
	bound float64
	steps int
} {
	hom8 := hw.NewCluster(8, hw.HaswellSpec(), 0, 1)
	var8 := hw.NewCluster(8, hw.HaswellSpec(), 0.02, 42)
	var16 := hw.NewCluster(16, hw.HaswellSpec(), 0.03, 7)
	return []struct {
		name  string
		cl    *hw.Cluster
		app   *workload.Spec
		bound float64
		steps int
	}{
		{"hom8/SPMZ/1800", hom8, workload.SPMZ(), 1800, 4},
		{"hom8/CoMD/1000", hom8, workload.CoMD(), 1000, 4},
		{"hom8/Stream/600", hom8, workload.Stream(), 600, 6},
		{"var8/SPMZ/1000", var8, workload.SPMZ(), 1000, 4},
		{"var8/LUMZ/1800", var8, workload.LUMZ(), 1800, 3},
		{"var16/CoMD/2400", var16, workload.CoMD(), 2400, 4},
		{"var16/Stream/1200", var16, workload.Stream(), 1200, 3},
	}
}

// TestOptimalMatchesBruteForce: the pruned, fast-path search must pick
// the identical plan (shape, budgets, notes) as the exhaustive
// plan-per-candidate grid search.
func TestOptimalMatchesBruteForce(t *testing.T) {
	for _, tc := range equivCases() {
		want, werr := bruteForce(tc.cl, tc.app, tc.bound, tc.steps)
		got, gerr := (&Optimal{MemSteps: tc.steps}).Plan(tc.cl, tc.app, tc.bound)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: reference err %v, pruned err %v", tc.name, werr, gerr)
		}
		if werr != nil {
			continue
		}
		samePlan(t, tc.name, got, want)
	}
}

// TestOptimalMemSteps1 is the regression test for the historical
// division by zero at a single DRAM step (0/0 → NaN budgets → every
// candidate rejected).
func TestOptimalMemSteps1(t *testing.T) {
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0, 1)
	o := &Optimal{MemSteps: 1}
	p, err := o.Plan(cl, workload.SPMZ(), 1800)
	if err != nil {
		t.Fatalf("MemSteps=1 search failed: %v", err)
	}
	b := p.PerNode[0]
	if math.IsNaN(b.CPU) || math.IsNaN(b.Mem) || b.CPU <= 0 || b.Mem <= 0 {
		t.Errorf("MemSteps=1 produced invalid budget %+v", b)
	}
}

// TestOptimalTelemetry: the search feeds the evaluated-versus-pruned
// counters exposed over the standard Prometheus exposition.
func TestOptimalTelemetry(t *testing.T) {
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0, 1)
	before := mOptCandidates.Value()
	if _, err := (&Optimal{MemSteps: 4}).Plan(cl, workload.SPMZ(), 1800); err != nil {
		t.Fatal(err)
	}
	if mOptCandidates.Value() == before {
		t.Error("search did not count evaluated candidates")
	}
	var sb strings.Builder
	if err := telemetry.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"clip_optimal_candidates_total", "clip_optimal_pruned_total"} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
}

// TestOptimalCancellation: a cancelled context aborts the search with
// the context's error; a live context changes nothing about the chosen
// plan.
func TestOptimalCancellation(t *testing.T) {
	cl := hw.NewCluster(8, hw.HaswellSpec(), 0, 1)
	app := workload.CoMD()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	o := &Optimal{MemSteps: 4, Ctx: cancelled}
	if _, err := o.Plan(cl, app, 1600); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled search returned %v, want context.Canceled", err)
	}
	want, err := (&Optimal{MemSteps: 4}).Plan(cl, app, 1600)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Optimal{MemSteps: 4, Ctx: context.Background()}).Plan(cl, app, 1600)
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, "live-ctx", got, want)
}
