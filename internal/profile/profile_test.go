package profile

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testCluster() *hw.Cluster { return hw.NewCluster(1, hw.HaswellSpec(), 0, 1) }

func TestBasicClassifiesSuite(t *testing.T) {
	pr := &Profiler{Cluster: testCluster()}
	for _, app := range workload.Suite() {
		p, err := pr.Basic(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if p.Class != app.PaperClass {
			t.Errorf("%s classified %v, Table II says %v (ratio %.3f)",
				app.Name, p.Class, app.PaperClass, p.Ratio)
		}
	}
}

func TestAffinityProbe(t *testing.T) {
	pr := &Profiler{Cluster: testCluster()}
	cases := []struct {
		app  *workload.Spec
		want workload.Affinity
	}{
		{workload.Stream(), workload.Scatter}, // bandwidth-hungry
		{workload.CoMD(), workload.Compact},   // compute-bound
		{workload.EP(), workload.Compact},
		{workload.LUMZ(), workload.Scatter},
	}
	for _, c := range cases {
		p, err := pr.Basic(c.app)
		if err != nil {
			t.Fatal(err)
		}
		if p.Affinity != c.want {
			t.Errorf("%s affinity %v, want %v (bw=%.1f)", c.app.Name, p.Affinity, c.want, p.All.MemBW)
		}
	}
}

func TestSamplesPopulated(t *testing.T) {
	pr := &Profiler{Cluster: testCluster()}
	p, err := pr.Basic(workload.LUMZ())
	if err != nil {
		t.Fatal(err)
	}
	if p.All.Cores != 24 || p.Half.Cores != 12 {
		t.Errorf("sample cores %d/%d, want 24/12", p.All.Cores, p.Half.Cores)
	}
	if p.All.IterTime <= 0 || p.Half.IterTime <= 0 {
		t.Error("sample iteration times not set")
	}
	if p.All.CPUPower <= 0 || p.All.MemPower <= 0 {
		t.Error("sample power not measured")
	}
	if p.BytesPerIter <= 0 {
		t.Error("BytesPerIter not derived from events")
	}
	// Derived traffic should be close to the model's ground truth.
	truth := workload.LUMZ().TotalMemoryBytes()
	if p.BytesPerIter < truth*0.9 || p.BytesPerIter > truth*1.5 {
		t.Errorf("BytesPerIter %.1f far from model traffic %.1f", p.BytesPerIter, truth)
	}
}

func TestFeaturesVector(t *testing.T) {
	pr := &Profiler{Cluster: testCluster()}
	p, err := pr.Basic(workload.AMG())
	if err != nil {
		t.Fatal(err)
	}
	f := p.Features()
	if len(f) != 8 {
		t.Fatalf("feature vector has %d entries, Table I lists 8", len(f))
	}
	if f[7] != p.Ratio {
		t.Error("event 7 must be the half/all performance ratio")
	}
	for i, v := range f {
		if math.IsNaN(v) || v < 0 {
			t.Errorf("feature %d invalid: %v", i, v)
		}
	}
}

type fixedNP int

func (f fixedNP) PredictNP([]float64) (int, error) { return int(f), nil }

func TestFullLinearSkipsThirdSample(t *testing.T) {
	pr := &Profiler{Cluster: testCluster()}
	p, err := pr.Full(workload.CoMD(), fixedNP(10))
	if err != nil {
		t.Fatal(err)
	}
	if p.NP != nil {
		t.Error("linear app should not run the third sample")
	}
	if p.PredictedNP != p.NodeCores {
		t.Errorf("linear NP = %d, want all cores %d", p.PredictedNP, p.NodeCores)
	}
}

func TestFullNonLinearRunsThirdSample(t *testing.T) {
	pr := &Profiler{Cluster: testCluster()}
	p, err := pr.Full(workload.SPMZ(), fixedNP(11))
	if err != nil {
		t.Fatal(err)
	}
	if p.NP == nil {
		t.Fatal("non-linear app missing inflection sample")
	}
	if p.PredictedNP != 10 {
		t.Errorf("NP = %d, want 10 (11 floored to even)", p.PredictedNP)
	}
	if p.NP.Cores != 10 {
		t.Errorf("third sample ran at %d cores, want 10", p.NP.Cores)
	}
}

func TestFullRequiresPredictor(t *testing.T) {
	pr := &Profiler{Cluster: testCluster()}
	if _, err := pr.Full(workload.SPMZ(), nil); err == nil {
		t.Error("non-linear app without predictor must error")
	}
}

func TestClampNP(t *testing.T) {
	cases := []struct{ np, cores, want int }{
		{11, 24, 10}, {12, 24, 12}, {1, 24, 2}, {0, 24, 2}, {-5, 24, 2},
		{30, 24, 24}, {25, 24, 24}, {23, 24, 22},
	}
	for _, c := range cases {
		if got := ClampNP(c.np, c.cores); got != c.want {
			t.Errorf("ClampNP(%d,%d) = %d, want %d", c.np, c.cores, got, c.want)
		}
	}
}

// TestSocketsUsed pins the placement the profiler models a run with:
// the shared rule in sim.
func TestSocketsUsed(t *testing.T) {
	spec := hw.HaswellSpec()
	cases := []struct {
		n    int
		aff  workload.Affinity
		want int
	}{
		{1, workload.Scatter, 1}, {2, workload.Scatter, 2}, {24, workload.Scatter, 2},
		{1, workload.Compact, 1}, {12, workload.Compact, 1}, {13, workload.Compact, 2},
	}
	for _, c := range cases {
		if got := sim.SocketsUsedFor(spec, c.n, c.aff); got != c.want {
			t.Errorf("SocketsUsedFor(%d,%v) = %d, want %d", c.n, c.aff, got, c.want)
		}
	}
}

func TestIterationsOverride(t *testing.T) {
	pr := &Profiler{Cluster: testCluster(), Iterations: 2}
	p, err := pr.Basic(workload.CoMD())
	if err != nil {
		t.Fatal(err)
	}
	if p.BytesPerIter <= 0 {
		t.Error("override iterations broke per-iteration normalisation")
	}
}

func TestDBRoundTrip(t *testing.T) {
	pr := &Profiler{Cluster: testCluster()}
	db := make(map[string]*Profile)
	for _, app := range []*workload.Spec{workload.CoMD(), workload.LUMZ()} {
		p, err := pr.Basic(app)
		if err != nil {
			t.Fatal(err)
		}
		db[p.App] = p
	}
	path := filepath.Join(t.TempDir(), "db.json")
	if err := SaveDB(path, db); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded db has %d entries", len(loaded))
	}
	orig := db["lu-mz.C"]
	got, ok := loaded["lu-mz.C"]
	if !ok {
		t.Fatal("lu-mz.C missing after round trip")
	}
	if got.Ratio != orig.Ratio || got.Class != orig.Class || got.All.IterTime != orig.All.IterTime {
		t.Error("profile fields corrupted by JSON round trip")
	}
}

// TestLoadDBErrors: LoadDB returns an error, and does not panic, on a
// file that is missing, is not a JSON object, or holds an entry that is
// null or keyed by another application than its profile's.
func TestLoadDBErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, data string }{
		{"missing", ""},
		{"null entry", `{"x": null}`},
		{"key mismatch", `{"x": {"App": "y"}}`},
		{"array", `[{"App": "x"}]`},
		{"null", `null`},
		{"number", `42`},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if tc.data != "" {
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if db, err := LoadDB(path); err == nil {
			t.Errorf("%s: accepted as %v", tc.name, db)
		}
	}
}
