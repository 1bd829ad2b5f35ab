package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hw"
)

func spec() *hw.NodeSpec { return hw.HaswellSpec() }

func TestCPUPowerMonotoneInFreq(t *testing.T) {
	s := spec()
	prev := 0.0
	for _, f := range s.FreqLevels {
		p := CPUPower(s, 24, 2, f, 1.0)
		if p <= prev {
			t.Fatalf("power not increasing with frequency at %v GHz: %v <= %v", f, p, prev)
		}
		prev = p
	}
}

func TestCPUPowerMonotoneInCores(t *testing.T) {
	s := spec()
	prev := 0.0
	for n := 1; n <= 24; n++ {
		p := CPUPower(s, n, SocketsFor(s, n), s.FMax(), 1.0)
		if p <= prev {
			t.Fatalf("power not increasing with cores at n=%d: %v <= %v", n, p, prev)
		}
		prev = p
	}
}

func TestCPUPowerVariabilityScales(t *testing.T) {
	s := spec()
	nominal := CPUPower(s, 12, 1, 2.0, 1.0)
	leaky := CPUPower(s, 12, 1, 2.0, 1.06)
	if math.Abs(leaky-1.06*nominal) > 1e-9 {
		t.Errorf("variability scaling: got %v, want %v", leaky, 1.06*nominal)
	}
}

func TestCPUPowerZeroCores(t *testing.T) {
	if p := CPUPower(spec(), 0, 0, 2.3, 1.0); p != 0 {
		t.Errorf("zero cores draw %v W, want 0", p)
	}
}

func TestCPUPowerFullNodeTDP(t *testing.T) {
	s := spec()
	p := CPUPower(s, 24, 2, s.FMax(), 1.0)
	if math.Abs(p-240) > 1 {
		t.Errorf("full node at FMax draws %v W, want ~240 W (2x TDP)", p)
	}
}

func TestMemPowerBounds(t *testing.T) {
	s := spec()
	if p := MemPowerAt(s, 2, 0); math.Abs(p-2*s.MemBasePower) > 1e-9 {
		t.Errorf("idle DRAM draws %v, want %v", p, 2*s.MemBasePower)
	}
	if p := MemPowerAt(s, 2, 2*s.SocketMemBW); math.Abs(p-2*s.MemMaxPower) > 1e-9 {
		t.Errorf("saturated DRAM draws %v, want %v", p, 2*s.MemMaxPower)
	}
	// Overshooting bandwidth demand clamps at max power.
	if p := MemPowerAt(s, 2, 10*s.SocketMemBW); p > 2*s.MemMaxPower+1e-9 {
		t.Errorf("DRAM power %v exceeds max", p)
	}
}

// TestMemCapRoundTrip: bandwidth admitted under a cap, fed back through
// the power model, draws no more than the cap.
func TestMemCapRoundTrip(t *testing.T) {
	s := spec()
	for _, sockets := range []int{1, 2} {
		// Caps at or below background power fall into the trickle
		// regime where the cap is unenforceable by design; start above.
		for capW := float64(sockets)*s.MemBasePower + 1; capW <= float64(sockets)*s.MemMaxPower; capW += 1.5 {
			bw := MemBandwidthCap(s, sockets, capW)
			p := MemPowerAt(s, sockets, bw)
			if p > capW+1e-6 {
				t.Fatalf("sockets=%d cap=%.1f: admitted %v GB/s draws %v W > cap", sockets, capW, bw, p)
			}
		}
	}
}

func TestMemCapTrickle(t *testing.T) {
	s := spec()
	bw := MemBandwidthCap(s, 2, 0)
	if bw <= 0 {
		t.Error("a zero DRAM cap must still admit a trickle (refresh cannot be disabled)")
	}
	if bw > 0.05*2*s.SocketMemBW {
		t.Errorf("trickle %v GB/s too generous", bw)
	}
}

func TestMemCapMonotone(t *testing.T) {
	s := spec()
	prev := -1.0
	for capW := 0.0; capW <= 70; capW += 2 {
		bw := MemBandwidthCap(s, 2, capW)
		if bw < prev-1e-9 {
			t.Fatalf("bandwidth cap decreasing at %v W", capW)
		}
		prev = bw
	}
}

func TestSolveFreqMatchesBruteForce(t *testing.T) {
	s := spec()
	for _, tc := range []struct {
		cores, sockets int
		cap            float64
		eff            float64
	}{
		{24, 2, 300, 1.0}, {24, 2, 150, 1.0}, {24, 2, 100, 1.0},
		{12, 1, 80, 1.0}, {8, 1, 50, 1.03}, {4, 2, 40, 0.97},
	} {
		f, p, ok := SolveFreq(s, tc.cores, tc.sockets, tc.cap, tc.eff)
		// Brute force.
		bf := -1.0
		for _, lv := range s.FreqLevels {
			if CPUPower(s, tc.cores, tc.sockets, lv, tc.eff) <= tc.cap+1e-9 {
				bf = lv
			}
		}
		if bf < 0 {
			if ok {
				t.Errorf("%+v: SolveFreq reported ok but no ladder freq fits", tc)
			}
			continue
		}
		if !ok || f != bf {
			t.Errorf("%+v: SolveFreq = %v (ok=%v), brute force %v", tc, f, ok, bf)
		}
		if p > tc.cap+1e-9 {
			t.Errorf("%+v: returned power %v exceeds cap", tc, p)
		}
	}
}

func TestSolveFreqInfeasible(t *testing.T) {
	s := spec()
	f, _, ok := SolveFreq(s, 24, 2, 10, 1.0)
	if ok {
		t.Error("10 W should not fit 24 cores")
	}
	if f != s.FMin() {
		t.Errorf("infeasible solve returned %v, want FMin", f)
	}
}

func TestEffectiveFreqDutyCycle(t *testing.T) {
	s := spec()
	pFmin := CPUPower(s, 24, 2, s.FMin(), 1.0)
	capW := pFmin * 0.6
	f, p, ok := EffectiveFreq(s, 24, 2, capW, 1.0)
	if ok {
		t.Fatal("expected duty-cycled regime")
	}
	want := s.FMin() * 0.6 * DutyCycleEfficiency
	if math.Abs(f-want) > 1e-9 {
		t.Errorf("duty-cycled freq %v, want %v", f, want)
	}
	if p > capW+1e-9 {
		t.Errorf("duty-cycled power %v exceeds cap %v", p, capW)
	}
}

func TestEffectiveFreqWithinDVFS(t *testing.T) {
	s := spec()
	f, _, ok := EffectiveFreq(s, 24, 2, 300, 1.0)
	if !ok || f != s.FMax() {
		t.Errorf("ample cap: got f=%v ok=%v, want FMax and ok", f, ok)
	}
}

func TestEffectiveFreqDutyFloor(t *testing.T) {
	s := spec()
	f, _, _ := EffectiveFreq(s, 24, 2, 0.001, 1.0)
	if f < s.FMin()*0.05*DutyCycleEfficiency-1e-12 {
		t.Errorf("duty floor violated: %v", f)
	}
}

func TestSocketsFor(t *testing.T) {
	s := spec()
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {12, 1}, {13, 2}, {24, 2}, {30, 2}}
	for _, c := range cases {
		if got := SocketsFor(s, c.n); got != c.want {
			t.Errorf("SocketsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBudget(t *testing.T) {
	b := Budget{CPU: 100, Mem: 30}
	if b.Total() != 130 {
		t.Errorf("Total = %v", b.Total())
	}
	if !b.Valid() {
		t.Error("valid budget rejected")
	}
	if (Budget{CPU: -1}).Valid() {
		t.Error("negative CPU budget accepted")
	}
	if b.String() == "" {
		t.Error("empty String()")
	}
}

func TestDerateBudget(t *testing.T) {
	b := Budget{CPU: 100, Mem: 30}
	if got := DerateBudget(b, 0); got != b {
		t.Errorf("frac 0 changed the budget: %v", got)
	}
	if got := DerateBudget(b, 1.5); got.Total() != 0 {
		t.Errorf("frac >= 1 left %v", got)
	}
	// A 10% cut (13 W) comes entirely out of the CPU domain.
	if got := DerateBudget(b, 0.1); got.CPU != 87 || got.Mem != 30 {
		t.Errorf("10%% derate = %v, want cpu=87 mem=30", got)
	}
	// An 85% cut (110.5 W) exhausts CPU and trims DRAM by the rest.
	got := DerateBudget(b, 0.85)
	if got.CPU != 0 || got.Mem < 19.4 || got.Mem > 19.6 {
		t.Errorf("85%% derate = %v, want cpu=0 mem=19.5", got)
	}
	if tot := got.Total(); tot < 19.4 || tot > 19.6 {
		t.Errorf("derated total %v, want 19.5", tot)
	}
}

// TestDerateBudgetDegenerateFrac pins the emergency-re-cap guard: a NaN
// derate fraction (possible from a degenerate rate computation, e.g.
// 0/0 over a zero interval) must leave the budget untouched rather than
// poisoning both domains and failing Valid() mid-re-cap.
func TestDerateBudgetDegenerateFrac(t *testing.T) {
	b := Budget{CPU: 100, Mem: 30}
	got := DerateBudget(b, math.NaN())
	if !got.Valid() {
		t.Fatalf("DerateBudget(b, NaN) = %v, not Valid", got)
	}
	if got != b {
		t.Errorf("DerateBudget(b, NaN) = %v, want the budget unchanged", got)
	}
}

// TestDerateBudgetAlwaysValid is the property test over random budgets
// and fractions: the derated budget always satisfies Valid() (both
// domains clamped at zero against float-rounding residue on the
// cut > CPU path) and never exceeds the original total.
func TestDerateBudgetAlwaysValid(t *testing.T) {
	property := func(cpuBits, memBits uint32, fracBits uint64) bool {
		// Budgets spanning many magnitudes, fractions covering the
		// whole line including values within an ULP of 1.
		cpu := float64(cpuBits) * math.Pow(2, float64(int(cpuBits%64))-40)
		mem := float64(memBits) * math.Pow(2, float64(int(memBits%64))-40)
		frac := math.Float64frombits(fracBits)
		if math.IsInf(cpu, 0) || math.IsInf(mem, 0) {
			return true
		}
		b := Budget{CPU: cpu, Mem: mem}
		d := DerateBudget(b, frac)
		if !d.Valid() {
			t.Logf("DerateBudget(%v, %v) = %+v invalid", b, frac, d)
			return false
		}
		if frac > 0 && frac < 1 && d.Total() > b.Total()*(1+1e-12) {
			t.Logf("DerateBudget(%v, %v) grew the budget to %+v", b, frac, d)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// Deterministic edge sweep: fractions within a few ULPs of the
	// branch boundaries for budgets with extreme domain ratios.
	fracs := []float64{
		math.SmallestNonzeroFloat64, 1e-300, 0.5,
		math.Nextafter(1, 0), 1 - 1e-15, 1 - 1e-12,
	}
	budgets := []Budget{
		{CPU: 1, Mem: math.SmallestNonzeroFloat64},
		{CPU: 250, Mem: 2.842170943040401e-14},
		{CPU: math.MaxFloat64 / 4, Mem: 1},
		{CPU: 0, Mem: 35},
		{CPU: 85, Mem: 0},
	}
	for _, b := range budgets {
		for _, f := range fracs {
			if d := DerateBudget(b, f); !d.Valid() {
				t.Errorf("DerateBudget(%v, %v) = %+v invalid", b, f, d)
			}
		}
	}
}
