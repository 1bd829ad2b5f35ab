package recommend

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/workload"
)

func setup(t *testing.T, app *workload.Spec) (*hw.NodeSpec, *profile.Profile, *perfmodel.Predictor) {
	t.Helper()
	cl := hw.NewCluster(1, hw.HaswellSpec(), 0, 1)
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
	return cl.Spec(), p, pd
}

// mustBest runs Best and fails the test when no configuration fits.
func mustBest(t *testing.T, spec *hw.NodeSpec, p *profile.Profile, pd *perfmodel.Predictor, budget, tolerance float64) NodeConfig {
	t.Helper()
	cfg, ok := NewGrid(spec, p, pd).Best(budget, tolerance)
	if !ok {
		t.Fatalf("no feasible configuration under %.1f W (tolerance %g)", budget, tolerance)
	}
	return cfg
}

func TestRecommendRejectsBadBudget(t *testing.T) {
	spec, p, pd := setup(t, workload.CoMD())
	if _, ok := NewGrid(spec, p, pd).Best(0, 0); ok {
		t.Error("zero budget accepted")
	}
	if _, ok := NewGrid(spec, p, pd).Best(-5, 0); ok {
		t.Error("negative budget accepted")
	}
}

func TestLinearGetsAllCoresAtHighBudget(t *testing.T) {
	spec, p, pd := setup(t, workload.CoMD())
	cfg := mustBest(t, spec, p, pd, 320, 0)
	if cfg.Cores != 24 {
		t.Errorf("linear app at ample budget got %d cores, want 24", cfg.Cores)
	}
	if cfg.Freq != spec.FMax() {
		t.Errorf("ample budget freq %v, want FMax", cfg.Freq)
	}
	if !cfg.CapOK {
		t.Error("ample budget flagged as duty-cycled")
	}
}

func TestParabolicNeverExceedsNP(t *testing.T) {
	spec, p, pd := setup(t, workload.SPMZ())
	for _, budget := range []float64{320, 200, 120, 80} {
		cfg := mustBest(t, spec, p, pd, budget, 0)
		if cfg.Cores > p.PredictedNP {
			t.Errorf("budget %v: parabolic app got %d cores beyond NP %d",
				budget, cfg.Cores, p.PredictedNP)
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	spec, p, pd := setup(t, workload.LUMZ())
	for _, budget := range []float64{300, 200, 150, 100, 60} {
		cfg := mustBest(t, spec, p, pd, budget, 0)
		if tot := cfg.Budget.Total(); tot > budget+1e-9 {
			t.Errorf("budget %v: split totals %v", budget, tot)
		}
		if cfg.Budget.CPU <= 0 || cfg.Budget.Mem <= 0 {
			t.Errorf("budget %v: non-positive domain in %v", budget, cfg.Budget)
		}
	}
}

func TestTighterBudgetNotFaster(t *testing.T) {
	spec, p, pd := setup(t, workload.LUMZ())
	prev := 0.0
	for _, budget := range []float64{320, 240, 180, 130, 90} {
		cfg := mustBest(t, spec, p, pd, budget, 0)
		if cfg.PredIterTime < prev-1e-9 {
			t.Errorf("tighter budget %v predicted faster run", budget)
		}
		prev = cfg.PredIterTime
	}
}

func TestAffinityFollowsProfile(t *testing.T) {
	spec, p, pd := setup(t, workload.Stream())
	cfg := mustBest(t, spec, p, pd, 250, 0)
	if cfg.Affinity != p.Affinity {
		t.Errorf("recommended affinity %v differs from profile %v", cfg.Affinity, p.Affinity)
	}
	if p.Affinity != workload.Scatter {
		t.Errorf("stream profile affinity %v, want scatter", p.Affinity)
	}
}

func TestMemoryHungryGetsMemoryPower(t *testing.T) {
	spec, p, pd := setup(t, workload.Stream())
	cfg := mustBest(t, spec, p, pd, 250, 0)
	base := float64(spec.Sockets) * spec.MemBasePower
	if cfg.Budget.Mem < base+10 {
		t.Errorf("stream granted only %.1f W of DRAM power", cfg.Budget.Mem)
	}

	_, p2, pd2 := setup(t, workload.EP())
	cfg2 := mustBest(t, spec, p2, pd2, 250, 0)
	if cfg2.Budget.Mem >= cfg.Budget.Mem {
		t.Error("compute-bound app granted as much DRAM power as stream")
	}
}

func TestUnconstrained(t *testing.T) {
	spec, p, pd := setup(t, workload.TeaLeaf())
	// A budget large enough to never bind.
	ample := float64(spec.Sockets)*spec.MemMaxPower +
		power.CPUPower(spec, spec.Cores(), spec.Sockets, spec.FMax(), 2.0) + 10
	cfg := mustBest(t, spec, p, pd, ample, 0)
	if !cfg.CapOK || cfg.Freq != spec.FMax() {
		t.Error("unconstrained recommendation should run at FMax")
	}
	if p.Class == workload.Parabolic && cfg.Cores > p.PredictedNP {
		t.Error("even unconstrained, parabolic apps stay at NP")
	}
}

func TestPhasePlan(t *testing.T) {
	spec, p, pd := setup(t, workload.BTMZ())
	_ = spec
	_ = pd
	if p.PredictedNP >= p.NodeCores {
		t.Skip("BT-MZ predicted NP not below all cores; phase plan trivially nil")
	}
	overrides := PhasePlan(workload.BTMZ(), p, p.NodeCores)
	if overrides == nil {
		t.Fatal("BT-MZ should get a phase-wise plan")
	}
	if _, ok := overrides["exch_qbc"]; !ok {
		t.Error("exch_qbc not throttled")
	}
	// Single-phase apps never get overrides.
	if PhasePlan(workload.CoMD(), p, 24) != nil {
		t.Error("single-phase app got overrides")
	}
}

func TestCandidateCoresShape(t *testing.T) {
	walk := func(limit int) []int {
		var out []int
		for n := 1; n <= limit; n = nextCore(n) {
			out = append(out, n)
		}
		return out
	}
	got := walk(24)
	if got[0] != 1 {
		t.Error("candidates must include 1")
	}
	for _, n := range got[1:] {
		if n%2 != 0 {
			t.Errorf("odd candidate %d (predictions are floored to even)", n)
		}
	}
	limited := walk(10)
	if limited[len(limited)-1] != 10 {
		t.Errorf("limit not respected: %v", limited)
	}
}

func TestEnergyAwareTolerance(t *testing.T) {
	spec, p, pd := setup(t, workload.CoMD())
	perf := mustBest(t, spec, p, pd, 250, 0)
	eco := mustBest(t, spec, p, pd, 250, 0.10)
	// Slowdown bounded by the tolerance.
	if eco.PredIterTime > perf.PredIterTime*1.10+1e-9 {
		t.Errorf("energy-aware pick exceeds the slowdown bound: %v vs %v",
			eco.PredIterTime, perf.PredIterTime)
	}
	// Predicted energy (power x time) must not increase.
	perfE := (perf.Budget.CPU + perf.Budget.Mem) * perf.PredIterTime
	ecoE := (eco.Budget.CPU + eco.Budget.Mem) * eco.PredIterTime
	if ecoE > perfE+1e-9 {
		t.Errorf("energy-aware pick costs more energy: %v vs %v", ecoE, perfE)
	}
	if _, ok := NewGrid(spec, p, pd).Best(250, -0.1); ok {
		t.Error("negative tolerance accepted")
	}
}

// TestTieBreakFewestCores pins the tie-breaking rule: among candidate
// configurations with equal predicted iteration time, the fewest cores
// win (no reason to power cores that buy nothing). A flat synthetic
// profile — equal measured times at half and all cores, no DRAM traffic
// — makes every core count predict the same runtime at an ample budget.
func TestTieBreakFewestCores(t *testing.T) {
	spec := hw.HaswellSpec()
	flat := &profile.Profile{
		App:       "flat",
		NodeCores: spec.Cores(),
		Affinity:  workload.Compact,
		Class:     workload.Linear,
		Half:      profile.Sample{Cores: spec.Cores() / 2, IterTime: 2.0},
		All:       profile.Sample{Cores: spec.Cores(), IterTime: 2.0},
	}
	pd, err := perfmodel.NewPredictor(spec, flat)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the model really predicts identical times everywhere.
	if pd.Time(1, spec.FMax(), 100) != pd.Time(spec.Cores(), spec.FMax(), 100) {
		t.Fatalf("synthetic profile is not flat: T(1)=%v T(all)=%v",
			pd.Time(1, spec.FMax(), 100), pd.Time(spec.Cores(), spec.FMax(), 100))
	}
	cfg := mustBest(t, spec, flat, pd, 400, 0)
	if cfg.Cores != 1 {
		t.Errorf("flat profile recommended %d cores, want 1 (fewest on a tie)", cfg.Cores)
	}
}

// TestDutyCycleFallback pins the starved-budget path: when the CPU
// share cannot sustain even the lowest ladder frequency, the
// recommender still returns a configuration, flagged CapOK=false with a
// duty-cycled frequency below FMin, and the split stays within budget.
func TestDutyCycleFallback(t *testing.T) {
	spec, p, pd := setup(t, workload.CoMD())
	cfg := mustBest(t, spec, p, pd, 40, 0)
	if cfg.CapOK {
		t.Error("a 40 W node budget cannot be within the acceptable range")
	}
	if cfg.Freq >= spec.FMin() {
		t.Errorf("duty-cycled frequency %v not below FMin %v", cfg.Freq, spec.FMin())
	}
	if tot := cfg.Budget.Total(); tot > 40+1e-9 {
		t.Errorf("starved split totals %v W", tot)
	}
	if cfg.PredIterTime <= 0 || math.IsInf(cfg.PredIterTime, 1) {
		t.Errorf("no usable prediction under duty cycling: %v", cfg.PredIterTime)
	}
}

// TestSurplusBudgetTrimmed pins the §III-B1 trim: a node budget far
// above the acceptable range's upper bound must not be hoarded — the
// CPU allocation is cut to the draw at FMax plus the 8% variability
// headroom so the surplus returns to the cluster pool.
func TestSurplusBudgetTrimmed(t *testing.T) {
	spec, p, pd := setup(t, workload.CoMD())
	const ample = 5000.0
	cfg := mustBest(t, spec, p, pd, ample, 0)
	sockets := sim.SocketsUsedFor(spec, cfg.Cores, cfg.Affinity)
	maxUseful := power.CPUPower(spec, cfg.Cores, sockets, spec.FMax(), 1.0) * 1.08
	if cfg.Budget.CPU > maxUseful+1e-9 {
		t.Errorf("CPU budget %v W exceeds the useful maximum %v W", cfg.Budget.CPU, maxUseful)
	}
	if cfg.Budget.Total() > ample/2 {
		t.Errorf("surplus budget not trimmed: %v W retained of %v", cfg.Budget.Total(), ample)
	}
	if cfg.Freq != spec.FMax() || !cfg.CapOK {
		t.Error("trimmed configuration must still run at FMax within the cap")
	}
}

func TestEnergyAwareSacrificesFrequency(t *testing.T) {
	// For a compute-bound app (energy ∝ f^1.2 over the DVFS range), the
	// 10% slowdown window should buy a lower frequency.
	spec, p, pd := setup(t, workload.EP())
	perf := mustBest(t, spec, p, pd, 280, 0)
	eco := mustBest(t, spec, p, pd, 280, 0.10)
	if eco.Freq >= perf.Freq {
		t.Errorf("energy objective kept frequency at %v (performance pick: %v)",
			eco.Freq, perf.Freq)
	}
}
