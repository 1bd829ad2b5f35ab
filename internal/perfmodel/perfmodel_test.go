package perfmodel

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/workload"
)

func testCluster() *hw.Cluster { return hw.NewCluster(1, hw.HaswellSpec(), 0, 1) }

func TestKneeOfParabolic(t *testing.T) {
	// Interior minimum at n=8.
	times := make([]float64, 24)
	for n := 1; n <= 24; n++ {
		times[n-1] = 10/float64(n) + 0.05*float64(n)
	}
	np := KneeOf(times)
	if np < 13 || np > 15 {
		t.Errorf("knee = %d, want ~14 (sqrt(10/0.05))", np)
	}
}

func TestKneeOfMonotone(t *testing.T) {
	// Pure 1/n curve: marginal speedup is 1 everywhere -> knee at the end.
	times := make([]float64, 24)
	for n := 1; n <= 24; n++ {
		times[n-1] = 10 / float64(n)
	}
	if np := KneeOf(times); np != 24 {
		t.Errorf("ideal curve knee = %d, want 24", np)
	}
}

func TestKneeOfSaturating(t *testing.T) {
	// Linear speedup to 10, flat afterwards.
	times := make([]float64, 24)
	for n := 1; n <= 24; n++ {
		eff := math.Min(float64(n), 10)
		times[n-1] = 10 / eff
	}
	np := KneeOf(times)
	if np < 9 || np > 11 {
		t.Errorf("saturating knee = %d, want ~10", np)
	}
}

func TestGroundTruthNPClasses(t *testing.T) {
	cl := testCluster()
	np, err := GroundTruthNP(cl, workload.EP(), workload.Compact)
	if err != nil {
		t.Fatal(err)
	}
	if np != 24 {
		t.Errorf("EP ground truth NP = %d, want 24", np)
	}
	np, err = GroundTruthNP(cl, workload.SP(), workload.Compact)
	if err != nil {
		t.Fatal(err)
	}
	if np <= 4 || np >= 24 {
		t.Errorf("SP ground truth NP = %d, want interior", np)
	}
}

func TestTrainNPRejectsTinySet(t *testing.T) {
	if _, err := TrainNP(hw.HaswellSpec(), workload.TrainingSet(5, 1)); err == nil {
		t.Error("training on 5 apps should be rejected")
	}
}

// TestTrainingInputsIgnoreVariability pins the premise that lets one
// trained regression serve every cluster of a node spec: the uncapped
// training path never reads a node's manufacturing variability. For
// every training application, the Basic profile's features and the
// ground-truth NP are the same on clusters of any size, sigma and seed
// as on the nominal one-node cluster TrainNP profiles. If a model
// change breaks this, sharing one model per spec must be revisited.
func TestTrainingInputsIgnoreVariability(t *testing.T) {
	spec := hw.HaswellSpec()
	nominal := hw.NewCluster(1, spec, 0, 0)
	clusters := []*hw.Cluster{
		hw.NewCluster(8, spec, 0, 1),
		hw.NewCluster(4, spec, 0.02, 1000),
		hw.NewCluster(4, spec, 0.02, 1063),
		hw.Haswell(),
		hw.NewCluster(8, spec, 0.08, 4242),
		hw.NewCluster(2, spec, 0.08, 7),
	}
	type inputs struct {
		features []float64
		np       int
	}
	trainingInputs := func(cl *hw.Cluster, app *workload.Spec) inputs {
		t.Helper()
		p, err := (&profile.Profiler{Cluster: cl}).Basic(app)
		if err != nil {
			t.Fatal(err)
		}
		np, err := GroundTruthNP(cl, app, p.Affinity)
		if err != nil {
			t.Fatal(err)
		}
		return inputs{p.Features(), np}
	}
	for _, app := range workload.TrainingSet(42, 7) {
		want := trainingInputs(nominal, app)
		for _, cl := range clusters {
			got := trainingInputs(cl, app)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %d nodes (node 0 PowerEff %.4f): features/NP %v, nominal %v",
					app.Name, cl.NumNodes(), cl.Nodes[0].PowerEff, got, want)
			}
		}
	}
}

func trainModel(t *testing.T) (*hw.Cluster, *NPModel) {
	t.Helper()
	cl := testCluster()
	m, err := TrainNP(cl.Spec(), workload.TrainingSet(42, 7))
	if err != nil {
		t.Fatal(err)
	}
	return cl, m
}

func TestTrainNPQuality(t *testing.T) {
	_, m := trainModel(t)
	if m.TrainR2 < 0.6 {
		t.Errorf("training R² = %.3f, too weak to be useful", m.TrainR2)
	}
	if m.TrainMAE > 3.5 {
		t.Errorf("training MAE = %.2f cores, too large", m.TrainMAE)
	}
}

func TestPredictionsWithinRange(t *testing.T) {
	cl, m := trainModel(t)
	pr := &profile.Profiler{Cluster: cl}
	for _, app := range workload.Suite() {
		p, err := pr.Basic(app)
		if err != nil {
			t.Fatal(err)
		}
		np, err := m.PredictNP(p.Features())
		if err != nil {
			t.Fatal(err)
		}
		if np < 2 || np > 24 || np%2 != 0 {
			t.Errorf("%s predicted NP %d outside even 2..24", app.Name, np)
		}
	}
}

func TestSuitePredictionAccuracy(t *testing.T) {
	// The paper's claim: predictions are strong for most applications.
	cl, m := trainModel(t)
	pr := &profile.Profiler{Cluster: cl}
	var sumErr, n float64
	for _, app := range workload.Suite() {
		p, err := pr.Full(app, m)
		if err != nil {
			t.Fatal(err)
		}
		if p.Class == workload.Linear {
			continue
		}
		actual, err := GroundTruthNP(cl, app, p.Affinity)
		if err != nil {
			t.Fatal(err)
		}
		sumErr += math.Abs(float64(p.PredictedNP - actual))
		n++
	}
	if mae := sumErr / n; mae > 4.5 {
		t.Errorf("suite MAE = %.2f cores, predictions unusable", mae)
	}
}

func fullProfile(t *testing.T, app *workload.Spec) (*hw.Cluster, *profile.Profile) {
	t.Helper()
	cl, m := trainModel(t)
	pr := &profile.Profiler{Cluster: cl}
	p, err := pr.Full(app, m)
	if err != nil {
		t.Fatal(err)
	}
	return cl, p
}

func TestPredictorLinear(t *testing.T) {
	cl, p := fullProfile(t, workload.CoMD())
	pd, err := NewPredictor(cl.Spec(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Must reproduce the anchoring samples.
	if got := pd.BaseTime(p.All.Cores); math.Abs(got-p.All.IterTime) > 1e-9 {
		t.Errorf("BaseTime(all) = %v, sample %v", got, p.All.IterTime)
	}
	if got := pd.BaseTime(p.Half.Cores); math.Abs(got-p.Half.IterTime) > 1e-9 {
		t.Errorf("BaseTime(half) = %v, sample %v", got, p.Half.IterTime)
	}
	// Monotone for a linear app.
	prev := math.Inf(1)
	for n := 1; n <= 24; n++ {
		v := pd.BaseTime(n)
		if v > prev+1e-9 {
			t.Errorf("linear BaseTime increased at n=%d", n)
		}
		prev = v
	}
}

func TestPredictorParabolicAnchorsNP(t *testing.T) {
	cl, p := fullProfile(t, workload.SPMZ())
	pd, err := NewPredictor(cl.Spec(), p)
	if err != nil {
		t.Fatal(err)
	}
	if p.NP == nil {
		t.Fatal("profile lacks NP sample")
	}
	if got := pd.BaseTime(p.NP.Cores); math.Abs(got-p.NP.IterTime) > 1e-9 {
		t.Errorf("BaseTime(NP) = %v, sample %v", got, p.NP.IterTime)
	}
	// First segment must not be flat: half the cores, roughly double
	// the time.
	ratio := pd.BaseTime(p.NP.Cores/2) / pd.BaseTime(p.NP.Cores)
	if ratio < 1.3 {
		t.Errorf("first segment nearly flat (ratio %v); concurrency ranking would break", ratio)
	}
}

func TestPredictorFreqScaling(t *testing.T) {
	cl, p := fullProfile(t, workload.CoMD())
	pd, err := NewPredictor(cl.Spec(), p)
	if err != nil {
		t.Fatal(err)
	}
	fast := pd.Time(24, 2.3, 60)
	slow := pd.Time(24, 1.2, 60)
	if slow <= fast {
		t.Error("lower frequency must predict a slower run")
	}
	// Compute-bound: slowdown close to the frequency ratio.
	if r := slow / fast; r < 1.5 || r > 2.0 {
		t.Errorf("compute-bound slowdown %v, want ~1.9", r)
	}
}

func TestPredictorMemCapPenalty(t *testing.T) {
	cl, p := fullProfile(t, workload.Stream())
	pd, err := NewPredictor(cl.Spec(), p)
	if err != nil {
		t.Fatal(err)
	}
	free := pd.Time(12, 2.3, 60)
	capped := pd.Time(12, 2.3, 12)
	if capped <= free {
		t.Error("a tight DRAM cap must predict a slowdown for stream")
	}
}

func TestPredictorInvalidInput(t *testing.T) {
	cl, p := fullProfile(t, workload.CoMD())
	pd, err := NewPredictor(cl.Spec(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(pd.BaseTime(0), 1) {
		t.Error("BaseTime(0) should be +inf")
	}
}

func TestPredictorRequiresNPSample(t *testing.T) {
	cl := testCluster()
	pr := &profile.Profiler{Cluster: cl}
	p, err := pr.Basic(workload.SPMZ()) // non-linear, no third sample
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPredictor(cl.Spec(), p); err == nil {
		t.Error("predictor built without the inflection sample")
	}
}

func TestPredictorUnknownClass(t *testing.T) {
	cl := testCluster()
	p := &profile.Profile{App: "x", Class: workload.Unknown, NodeCores: 24}
	if _, err := NewPredictor(cl.Spec(), p); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestMemDemandWatts(t *testing.T) {
	cl, p := fullProfile(t, workload.Stream())
	pd, err := NewPredictor(cl.Spec(), p)
	if err != nil {
		t.Fatal(err)
	}
	spec := cl.Spec()
	streamDemand := pd.MemDemandWatts(12)
	if streamDemand <= float64(spec.Sockets)*spec.MemBasePower {
		t.Error("stream demand at idle level")
	}

	cl2, p2 := fullProfile(t, workload.EP())
	pd2, err := NewPredictor(cl2.Spec(), p2)
	if err != nil {
		t.Fatal(err)
	}
	if pd2.MemDemandWatts(12) >= streamDemand {
		t.Error("EP should demand less DRAM power than stream")
	}
}

func TestLogarithmicTailNeverSlower(t *testing.T) {
	cl, p := fullProfile(t, workload.LUMZ())
	pd, err := NewPredictor(cl.Spec(), p)
	if err != nil {
		t.Fatal(err)
	}
	atNP := pd.BaseTime(pd.NP)
	for n := pd.NP + 1; n <= 24; n++ {
		if pd.BaseTime(n) > atNP+1e-9 {
			t.Errorf("logarithmic tail predicts slowdown at n=%d", n)
		}
	}
}

// TestPredictorReanchorsOnFasterSample reproduces the miniaero
// regression: when the regression over-predicts NP and the inflection
// sample measures slower than the half-core sample, the predictor must
// re-anchor the knee on the faster measurement instead of producing a
// flat first segment (which made the recommender pick 1 core).
func TestPredictorReanchorsOnFasterSample(t *testing.T) {
	cl := testCluster()
	p := &profile.Profile{
		App: "overshoot", NodeCores: 24, Class: workload.Parabolic,
		Affinity: workload.Compact, PredictedNP: 14, BytesPerIter: 10,
		All:  profile.Sample{Cores: 24, IterTime: 3.7},
		Half: profile.Sample{Cores: 12, IterTime: 2.3},
		NP:   &profile.Sample{Cores: 14, IterTime: 2.4},
	}
	pd, err := NewPredictor(cl.Spec(), p)
	if err != nil {
		t.Fatal(err)
	}
	if pd.NP != 12 {
		t.Errorf("knee re-anchored at %d, want 12 (the fastest sample)", pd.NP)
	}
	if ratio := pd.BaseTime(6) / pd.BaseTime(12); ratio < 1.5 {
		t.Errorf("first segment flat (T(6)/T(12) = %v); low concurrency must look slow", ratio)
	}
	if pd.BaseTime(12) > pd.BaseTime(14) {
		t.Error("knee must be the minimum of the piecewise model")
	}
}

// TestPredictorUndershootNP covers the opposite error: NP predicted
// below the half-core sample; the faster half sample becomes the knee.
func TestPredictorUndershootNP(t *testing.T) {
	cl := testCluster()
	p := &profile.Profile{
		App: "undershoot", NodeCores: 24, Class: workload.Logarithmic,
		Affinity: workload.Scatter, PredictedNP: 8, BytesPerIter: 40,
		All:  profile.Sample{Cores: 24, IterTime: 1.30},
		Half: profile.Sample{Cores: 12, IterTime: 1.45},
		NP:   &profile.Sample{Cores: 8, IterTime: 1.9},
	}
	pd, err := NewPredictor(cl.Spec(), p)
	if err != nil {
		t.Fatal(err)
	}
	if pd.NP != 24 {
		t.Errorf("knee at %d, want 24 (all-core is fastest here)", pd.NP)
	}
	// Logarithmic tail must never predict a slowdown beyond the knee.
	if pd.BaseTime(24) > pd.BaseTime(12) {
		t.Error("monotone logarithmic curve inverted")
	}
}

// TestProfilesIgnoreVariability pins the premise that lets a
// federation's shards share one knowledge table per node spec: smart
// profiling runs uncapped on one node, so the full profile and the
// predictor fitted from it depend on the node spec alone. For every
// suite application, Profiler.Full and NewPredictor give the same
// result on shard-shaped clusters of any size, sigma and seed as on the
// nominal one-node cluster the shared table profiles on. The one field
// that differs is each sample's recorded CPU power, which scales with
// node 0's manufacturing variability and which no model reads; the test
// compares with it cleared and pins that no prediction moves. If a
// model change breaks this, each shard needs its own profiles again.
func TestProfilesIgnoreVariability(t *testing.T) {
	spec := hw.HaswellSpec()
	model, err := TrainNP(spec, workload.TrainingSet(42, 7))
	if err != nil {
		t.Fatal(err)
	}
	nominal := hw.NewCluster(1, spec, 0, 0)
	var clusters []*hw.Cluster
	for nodes := 2; nodes <= 8; nodes += 2 {
		for _, sigma := range []float64{0, 0.02, 0.05, 0.08} {
			for _, seed := range []int64{1, 1063, 4242} {
				clusters = append(clusters, hw.NewCluster(nodes, spec, sigma, seed))
			}
		}
	}
	fit := func(cl *hw.Cluster, app *workload.Spec) (*profile.Profile, *Predictor) {
		t.Helper()
		p, err := (&profile.Profiler{Cluster: cl}).Full(app, model)
		if err != nil {
			t.Fatal(err)
		}
		pd, err := NewPredictor(spec, p)
		if err != nil {
			t.Fatal(err)
		}
		return p, pd
	}
	clearPower := func(p *profile.Profile) {
		p.All.CPUPower, p.Half.CPUPower = 0, 0
		if p.NP != nil {
			p.NP.CPUPower = 0
		}
	}
	for _, app := range workload.Suite() {
		wantP, wantPD := fit(nominal, app)
		for _, cl := range clusters {
			p, pd := fit(cl, app)
			for n := 1; n <= spec.Cores(); n++ {
				for _, f := range spec.FreqLevels {
					if got, want := pd.Time(n, f, 20), wantPD.Time(n, f, 20); got != want {
						t.Fatalf("%s on %d nodes: Time(%d, %g) = %v, nominal %v", app.Name, cl.NumNodes(), n, f, got, want)
					}
				}
				if got, want := pd.MemDemandWatts(n), wantPD.MemDemandWatts(n); got != want {
					t.Fatalf("%s on %d nodes: MemDemandWatts(%d) = %v, nominal %v", app.Name, cl.NumNodes(), n, got, want)
				}
			}
			clearPower(p)
			clearPower(wantP)
			if !reflect.DeepEqual(p, wantP) {
				t.Errorf("%s on %d nodes (node 0 PowerEff %.4f): profile %+v, nominal %+v",
					app.Name, cl.NumNodes(), cl.Nodes[0].PowerEff, p, wantP)
			}
			if !reflect.DeepEqual(pd, wantPD) {
				t.Errorf("%s on %d nodes (node 0 PowerEff %.4f): predictor differs from nominal",
					app.Name, cl.NumNodes(), cl.Nodes[0].PowerEff)
			}
		}
	}
}
