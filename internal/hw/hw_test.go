package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHaswellSpecValid(t *testing.T) {
	if err := HaswellSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHaswellTopology(t *testing.T) {
	s := HaswellSpec()
	if s.Cores() != 24 {
		t.Errorf("cores = %d, want 24", s.Cores())
	}
	if s.Sockets != 2 || s.CoresPerSocket != 12 {
		t.Errorf("topology %dx%d, want 2x12", s.Sockets, s.CoresPerSocket)
	}
	if got := s.FMin(); got != 1.2 {
		t.Errorf("FMin = %v, want 1.2", got)
	}
	if got := s.FMax(); got != 2.3 {
		t.Errorf("FMax = %v, want 2.3", got)
	}
	if len(s.FreqLevels) != 12 {
		t.Errorf("ladder has %d levels, want 12", len(s.FreqLevels))
	}
}

// TestHaswellTDPCalibration checks the calibration constraint: a fully
// loaded socket at the highest frequency draws its 120 W TDP.
func TestHaswellTDPCalibration(t *testing.T) {
	s := HaswellSpec()
	perCore := s.CoreIdlePower + s.CoreDynCoeff*math.Pow(s.FMax(), s.CoreDynExp)
	socket := s.SocketBasePower + 12*perCore
	if math.Abs(socket-120) > 0.5 {
		t.Errorf("loaded socket draws %.2f W, want ~120 W", socket)
	}
}

func TestNearestFreq(t *testing.T) {
	s := HaswellSpec()
	cases := []struct{ in, want float64 }{
		{2.3, 2.3}, {2.35, 2.3}, {1.25, 1.2}, {0.5, 1.2}, {1.7999, 1.7}, {1.8, 1.8},
	}
	for _, c := range cases {
		if got := s.NearestFreq(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NearestFreq(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNearestFreqProperty(t *testing.T) {
	s := HaswellSpec()
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		got := s.NearestFreq(x)
		// Result is always a ladder frequency.
		onLadder := false
		for _, lv := range s.FreqLevels {
			if lv == got {
				onLadder = true
			}
		}
		if !onLadder {
			return false
		}
		// And never exceeds x unless x is below the ladder.
		return got <= x+1e-9 || got == s.FMin()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *NodeSpec { return HaswellSpec() }
	cases := []struct {
		name string
		mut  func(*NodeSpec)
	}{
		{"zero sockets", func(s *NodeSpec) { s.Sockets = 0 }},
		{"zero cores", func(s *NodeSpec) { s.CoresPerSocket = 0 }},
		{"empty ladder", func(s *NodeSpec) { s.FreqLevels = nil }},
		{"descending ladder", func(s *NodeSpec) { s.FreqLevels = []float64{2.0, 1.0} }},
		{"negative freq", func(s *NodeSpec) { s.FreqLevels = []float64{-1} }},
		{"mem max below base", func(s *NodeSpec) { s.MemMaxPower = s.MemBasePower - 1 }},
		{"zero socket bw", func(s *NodeSpec) { s.SocketMemBW = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base()
			c.mut(s)
			if err := s.Validate(); err == nil {
				t.Error("Validate accepted an invalid spec")
			}
		})
	}
}

// TestCheckSigma: CheckSigma refuses a negative or non-finite sigma
// and accepts zero.
func TestCheckSigma(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		if err := CheckSigma(v); err == nil {
			t.Errorf("CheckSigma(%g) accepted", v)
		}
	}
	for _, v := range []float64{0, 0.02} {
		if err := CheckSigma(v); err != nil {
			t.Errorf("CheckSigma(%g): %v", v, err)
		}
	}
}

func TestNewClusterDeterministic(t *testing.T) {
	a := NewCluster(8, HaswellSpec(), 0.05, 42)
	b := NewCluster(8, HaswellSpec(), 0.05, 42)
	for i := range a.Nodes {
		if a.Nodes[i].PowerEff != b.Nodes[i].PowerEff {
			t.Fatalf("node %d PowerEff differs across identical seeds", i)
		}
	}
	c := NewCluster(8, HaswellSpec(), 0.05, 43)
	same := true
	for i := range a.Nodes {
		if a.Nodes[i].PowerEff != c.Nodes[i].PowerEff {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical variability")
	}
}

func TestVariabilityBounds(t *testing.T) {
	sigma := 0.04
	cl := NewCluster(64, HaswellSpec(), sigma, 7)
	for _, n := range cl.Nodes {
		if n.PowerEff < 1-3*sigma-1e-9 || n.PowerEff > 1+3*sigma+1e-9 {
			t.Errorf("node %d PowerEff %v outside +-3 sigma", n.ID, n.PowerEff)
		}
	}
}

func TestZeroSigmaHomogeneous(t *testing.T) {
	cl := NewCluster(8, HaswellSpec(), 0, 42)
	for _, n := range cl.Nodes {
		if n.PowerEff != 1.0 {
			t.Errorf("node %d PowerEff = %v, want 1.0", n.ID, n.PowerEff)
		}
	}
	if v := cl.MaxVariability(); v != 0 {
		t.Errorf("MaxVariability = %v, want 0", v)
	}
}

func TestMaxVariability(t *testing.T) {
	cl := NewCluster(2, HaswellSpec(), 0, 1)
	cl.Nodes[0].PowerEff = 0.97
	cl.Nodes[1].PowerEff = 1.05
	if got := cl.MaxVariability(); math.Abs(got-0.08) > 1e-12 {
		t.Errorf("MaxVariability = %v, want 0.08", got)
	}
}

func TestClusterValidate(t *testing.T) {
	cl := Haswell()
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	if cl.NumNodes() != 8 {
		t.Errorf("Haswell has %d nodes, want 8", cl.NumNodes())
	}

	for _, v := range []float64{0, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := NewCluster(2, HaswellSpec(), 0, 1)
		bad.Nodes[1].PowerEff = v
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted PowerEff %g", v)
		}
	}

	empty := &Cluster{LinkBW: 1}
	if err := empty.Validate(); err == nil {
		t.Error("Validate accepted empty cluster")
	}

	noLink := NewCluster(1, HaswellSpec(), 0, 1)
	noLink.LinkBW = 0
	if err := noLink.Validate(); err == nil {
		t.Error("Validate accepted zero LinkBW")
	}
}

func TestFreqLadderStep(t *testing.T) {
	s := HaswellSpec()
	for i := 1; i < len(s.FreqLevels); i++ {
		step := s.FreqLevels[i] - s.FreqLevels[i-1]
		if math.Abs(step-0.1) > 1e-9 {
			t.Errorf("ladder step %d = %v, want 0.1", i, step)
		}
	}
}

func TestGenerationPresets(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  *NodeSpec
		cores int
		tdp   float64
	}{
		{"broadwell", BroadwellSpec(), 28, 135},
		{"skylake", SkylakeSpec(), 32, 125},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err != nil {
				t.Fatal(err)
			}
			if tc.spec.Cores() != tc.cores {
				t.Errorf("cores = %d, want %d", tc.spec.Cores(), tc.cores)
			}
			perCore := tc.spec.CoreIdlePower +
				tc.spec.CoreDynCoeff*math.Pow(tc.spec.FMax(), tc.spec.CoreDynExp)
			socket := tc.spec.SocketBasePower + float64(tc.spec.CoresPerSocket)*perCore
			if math.Abs(socket-tc.tdp) > 0.5 {
				t.Errorf("loaded socket %.1f W, want ~%v W TDP", socket, tc.tdp)
			}
		})
	}
}

// TestHaswellVariabilityBits pins the eight PowerEff values of the
// paper's testbed bit for bit, so a change to the variability draw (the
// generator, the normal deviate or the clamp) fails here and not only
// in the experiment goldens.
func TestHaswellVariabilityBits(t *testing.T) {
	want := []uint64{
		0x3ff021f94db4d5b5, // 1.0082943950086307
		0x3fef6ddf94b3a86e, // 0.9821622757274449
		0x3ff08db0322f629e, // 1.0345918617587482
		0x3ff02cb27d696b4a, // 1.0109124087236574
		0x3fef4efc323afdff, // 0.9783917409003492
		0x3feedc8db40f95b9, // 0.9644230381788282
		0x3fef444d47c6c46d, // 0.9770876314052096
		0x3ff015560b2f43ed, // 1.0052090107822054
	}
	nodes := Haswell().Nodes
	if len(nodes) != len(want) {
		t.Fatalf("Haswell has %d nodes, want %d", len(nodes), len(want))
	}
	for i, n := range nodes {
		if got := math.Float64bits(n.PowerEff); got != want[i] {
			t.Errorf("node %d PowerEff %v (%#016x), want %v (%#016x)",
				i, n.PowerEff, got, math.Float64frombits(want[i]), want[i])
		}
	}
}
