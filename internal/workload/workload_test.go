package workload

import (
	"strings"
	"testing"
)

func TestSuiteMatchesTableII(t *testing.T) {
	suite := Suite()
	if len(suite) != 10 {
		t.Fatalf("suite has %d entries, Table II lists 10", len(suite))
	}
	want := map[string]Class{
		"bt-mz.C": Logarithmic, "lu-mz.C": Logarithmic, "sp-mz.C": Parabolic,
		"comd": Linear, "amg": Linear, "miniaero": Parabolic, "minimd": Linear,
		"tealeaf": Parabolic, "cloverleaf.128": Logarithmic, "cloverleaf.16": Logarithmic,
	}
	for _, s := range suite {
		if cls, ok := want[s.Name]; !ok {
			t.Errorf("unexpected suite member %q", s.Name)
		} else if s.PaperClass != cls {
			t.Errorf("%s paper class %v, want %v", s.Name, s.PaperClass, cls)
		}
	}
}

func TestSuiteValid(t *testing.T) {
	for _, s := range append(Suite(), EP(), Stream(), SP()) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestCloverLeafInputsDiffer(t *testing.T) {
	// The paper includes two CloverLeaf inputs to show parameters
	// change the coordination decision; the models must differ.
	a, b := CloverLeaf128(), CloverLeaf16()
	if a.TotalParallelCycles() == b.TotalParallelCycles() &&
		a.TotalMemoryBytes() == b.TotalMemoryBytes() {
		t.Error("the two CloverLeaf inputs are identical")
	}
}

func TestBTMZHasExchQbcPhase(t *testing.T) {
	bt := BTMZ()
	if len(bt.Phases) != 2 {
		t.Fatalf("BT-MZ has %d phases, want 2", len(bt.Phases))
	}
	found := false
	for _, ph := range bt.Phases {
		if ph.Name == "exch_qbc" {
			found = true
			if ph.SyncCoeff <= 0 && ph.ContentionCoeff <= 0 {
				t.Error("exch_qbc must scale poorly (sync or contention)")
			}
		}
	}
	if !found {
		t.Error("BT-MZ missing the exch_qbc phase of paper §V-B1")
	}
}

func TestValidateRejects(t *testing.T) {
	good := func() *Spec { return CoMD() }
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"no phases", func(s *Spec) { s.Phases = nil }},
		{"zero iterations", func(s *Spec) { s.Iterations = 0 }},
		{"negative work", func(s *Spec) { s.Phases[0].ParallelCycles = -1 }},
		{"empty phase", func(s *Spec) {
			s.Phases[0] = Phase{}
		}},
		{"overlap above 1", func(s *Spec) { s.Phases[0].Overlap = 1.5 }},
		{"remote frac above 1", func(s *Spec) { s.RemoteFrac = 1.2 }},
		{"surface exp above 1", func(s *Spec) { s.SurfaceExp = 2 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := good()
			c.mut(s)
			if err := s.Validate(); err == nil {
				t.Error("Validate accepted an invalid spec")
			}
		})
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		Linear: "linear", Logarithmic: "logarithmic",
		Parabolic: "parabolic", Unknown: "unknown", Class(99): "unknown",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
}

func TestAffinityString(t *testing.T) {
	if Compact.String() != "compact" || Scatter.String() != "scatter" {
		t.Error("affinity strings wrong")
	}
}

func TestTotals(t *testing.T) {
	bt := BTMZ()
	var wantP, wantM float64
	for _, ph := range bt.Phases {
		wantP += ph.ParallelCycles
		wantM += ph.MemoryBytes
	}
	if bt.TotalParallelCycles() != wantP {
		t.Errorf("TotalParallelCycles = %v, want %v", bt.TotalParallelCycles(), wantP)
	}
	if bt.TotalMemoryBytes() != wantM {
		t.Errorf("TotalMemoryBytes = %v, want %v", bt.TotalMemoryBytes(), wantM)
	}
}

func TestBWFactorDefault(t *testing.T) {
	s := &Spec{}
	if s.BWFactor() != 1 {
		t.Errorf("zero CoreBWFactor should mean 1, got %v", s.BWFactor())
	}
	s.CoreBWFactor = 1.8
	if s.BWFactor() != 1.8 {
		t.Errorf("BWFactor = %v, want 1.8", s.BWFactor())
	}
}

func TestAllowedProcCounts(t *testing.T) {
	free := &Spec{}
	got := free.AllowedProcCounts(4)
	if len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("free proc counts = %v, want [1 2 3 4]", got)
	}

	fixed := &Spec{ProcCounts: []int{1, 4, 9, 16}}
	got = fixed.AllowedProcCounts(8)
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Errorf("fixed proc counts = %v, want [1 4]", got)
	}
}

func TestSuiteByName(t *testing.T) {
	for _, name := range []string{"bt-mz.C", "ep", "stream", "sp"} {
		s, err := SuiteByName(name)
		if err != nil {
			t.Errorf("SuiteByName(%q): %v", name, err)
			continue
		}
		if s.Name != name {
			t.Errorf("SuiteByName(%q) returned %q", name, s.Name)
		}
	}
	if _, err := SuiteByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestTrainingSetDeterministic(t *testing.T) {
	a := TrainingSet(12, 7)
	b := TrainingSet(12, 7)
	for i := range a {
		if a[i].Name != b[i].Name ||
			a[i].Phases[0].ParallelCycles != b[i].Phases[0].ParallelCycles {
			t.Fatalf("training set not deterministic at %d", i)
		}
	}
}

func TestTrainingSetBalanced(t *testing.T) {
	apps := TrainingSet(30, 3)
	counts := map[Class]int{}
	for _, a := range apps {
		counts[a.PaperClass]++
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		if !strings.HasPrefix(a.Name, "train-") {
			t.Errorf("training app name %q lacks prefix", a.Name)
		}
	}
	for _, cls := range []Class{Linear, Logarithmic, Parabolic} {
		if counts[cls] != 10 {
			t.Errorf("class %v has %d training apps, want 10", cls, counts[cls])
		}
	}
}

func TestTrainingSetSeedsDiffer(t *testing.T) {
	a := TrainingSet(6, 1)
	b := TrainingSet(6, 2)
	same := 0
	for i := range a {
		if a[i].Phases[0].ParallelCycles == b[i].Phases[0].ParallelCycles {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical training sets")
	}
}

func TestProfileIterationsSet(t *testing.T) {
	for _, s := range append(Suite(), EP(), Stream(), SP()) {
		if s.ProfileIterations <= 0 {
			t.Errorf("%s has no ProfileIterations", s.Name)
		}
		if s.ProfileIterations >= s.Iterations {
			t.Errorf("%s profile run (%d iters) not shorter than full run (%d)",
				s.Name, s.ProfileIterations, s.Iterations)
		}
	}
}

func TestExtendedSuiteValid(t *testing.T) {
	if len(ExtendedSuite()) != 12 {
		t.Fatalf("extended suite has %d entries, want 12", len(ExtendedSuite()))
	}
	seen := map[string]bool{}
	for _, s := range ExtendedSuite() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestSuiteByNameExtended(t *testing.T) {
	for _, name := range []string{"hpl", "xsbench", "gemver"} {
		if _, err := SuiteByName(name); err != nil {
			t.Errorf("SuiteByName(%q): %v", name, err)
		}
	}
}
