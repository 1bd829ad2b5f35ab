package sim

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/workload"
)

func oneNode() *hw.Cluster  { return hw.NewCluster(1, hw.HaswellSpec(), 0, 1) }
func cluster8() *hw.Cluster { return hw.NewCluster(8, hw.HaswellSpec(), 0, 1) }

func mustRun(t *testing.T, cl *hw.Cluster, app *workload.Spec, cfg Config) *Result {
	t.Helper()
	r, err := Run(cl, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestValidateRejects(t *testing.T) {
	cl := cluster8()
	app := workload.CoMD()
	good := Config{Nodes: 2, CoresPerNode: 8}
	if err := good.Validate(cl, app); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"too many nodes", func(c *Config) { c.Nodes = 9 }},
		{"node ids length", func(c *Config) { c.NodeIDs = []int{0} }},
		{"node id range", func(c *Config) { c.NodeIDs = []int{0, 99} }},
		{"zero cores", func(c *Config) { c.CoresPerNode = 0 }},
		{"too many cores", func(c *Config) { c.CoresPerNode = 25 }},
		{"per-node length", func(c *Config) { c.PerNode = []power.Budget{{CPU: 1}} }},
		{"capped bad budget", func(c *Config) { c.Capped = true; c.Budget = power.Budget{CPU: -1} }},
		{"phase cores range", func(c *Config) { c.PhaseCores = map[string]int{"x": 99} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := good
			c.mut(&cfg)
			if err := cfg.Validate(cl, app); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestRunRejectsInvalidApp(t *testing.T) {
	cl := oneNode()
	bad := workload.CoMD()
	bad.Iterations = 0
	if _, err := Run(cl, bad, Config{Nodes: 1, CoresPerNode: 4}); err == nil {
		t.Error("invalid app accepted")
	}
}

func TestDeterminism(t *testing.T) {
	cl := cluster8()
	cfg := Config{Nodes: 4, CoresPerNode: 12, Capped: true, Budget: power.Budget{CPU: 120, Mem: 30}}
	a := mustRun(t, cl, workload.LUMZ(), cfg)
	b := mustRun(t, cl, workload.LUMZ(), cfg)
	if a.Time != b.Time || a.Energy != b.Energy {
		t.Error("identical runs differ")
	}
}

func TestLinearScalesWithCores(t *testing.T) {
	cl := oneNode()
	app := workload.EP()
	t1 := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 1}).Time
	t12 := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 12}).Time
	t24 := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 24}).Time
	s12, s24 := t1/t12, t1/t24
	if s12 < 10 || s12 > 12 {
		t.Errorf("EP speedup at 12 cores = %v, want near-ideal", s12)
	}
	if s24 < 20 || s24 > 24 {
		t.Errorf("EP speedup at 24 cores = %v, want near-ideal", s24)
	}
}

func TestParabolicHasInteriorOptimum(t *testing.T) {
	cl := oneNode()
	times, err := SweepCores(cl, workload.SP(), 24, workload.Compact, false, power.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	bestN, best := 1, times[0]
	for i, v := range times {
		if v < best {
			best, bestN = v, i+1
		}
	}
	if bestN <= 4 || bestN >= 24 {
		t.Errorf("parabolic optimum at %d cores, want interior", bestN)
	}
	if times[23] <= times[11] {
		t.Error("all-core should be slower than half-core for a parabolic app")
	}
}

func TestLogarithmicSaturates(t *testing.T) {
	cl := oneNode()
	times, err := SweepCores(cl, workload.Stream(), 24, workload.Scatter, false, power.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	// Early speedup strong, late speedup weak.
	early := times[1] / times[3] // 2 -> 4 cores
	late := times[15] / times[23]
	if early < 1.3 {
		t.Errorf("stream early scaling %v too weak", early)
	}
	if late > 1.15 {
		t.Errorf("stream late scaling %v too strong for a saturated app", late)
	}
}

func TestCPUCapRespected(t *testing.T) {
	cl := oneNode()
	for _, capW := range []float64{100, 140, 200, 272} {
		res := mustRun(t, cl, workload.EP(), Config{
			Nodes: 1, CoresPerNode: 24, Capped: true,
			Budget: power.Budget{CPU: capW, Mem: 20},
		})
		if res.Nodes[0].CPUPower > capW+1e-6 {
			t.Errorf("cap %v W: CPU drew %v W", capW, res.Nodes[0].CPUPower)
		}
	}
}

func TestMemCapThrottlesBandwidth(t *testing.T) {
	cl := oneNode()
	free := mustRun(t, cl, workload.Stream(), Config{
		Nodes: 1, CoresPerNode: 12, Affinity: workload.Scatter,
		Capped: true, Budget: power.Budget{CPU: 200, Mem: 60},
	})
	throttled := mustRun(t, cl, workload.Stream(), Config{
		Nodes: 1, CoresPerNode: 12, Affinity: workload.Scatter,
		Capped: true, Budget: power.Budget{CPU: 200, Mem: 20},
	})
	if throttled.Time <= free.Time {
		t.Error("DRAM cap did not slow a bandwidth-bound app")
	}
	if throttled.Nodes[0].MemBW >= free.Nodes[0].MemBW {
		t.Error("DRAM cap did not reduce achieved bandwidth")
	}
	if throttled.Nodes[0].MemPower > 20+1e-6 {
		t.Errorf("throttled run drew %v W of DRAM power over its 20 W cap",
			throttled.Nodes[0].MemPower)
	}
}

func TestLowerCapSlower(t *testing.T) {
	cl := oneNode()
	prev := 0.0
	for _, capW := range []float64{272, 200, 150, 110, 80} {
		res := mustRun(t, cl, workload.EP(), Config{
			Nodes: 1, CoresPerNode: 24, Capped: true,
			Budget: power.Budget{CPU: capW, Mem: 20},
		})
		if res.Time < prev-1e-9 {
			t.Errorf("tighter cap %v W ran faster (%v < %v)", capW, res.Time, prev)
		}
		prev = res.Time
	}
}

func TestDutyCycleRegime(t *testing.T) {
	cl := oneNode()
	spec := cl.Spec()
	pFmin := power.CPUPower(spec, 24, 2, spec.FMin(), 1.0)
	res := mustRun(t, cl, workload.EP(), Config{
		Nodes: 1, CoresPerNode: 24, Capped: true,
		Budget: power.Budget{CPU: pFmin * 0.7, Mem: 20},
	})
	nr := res.Nodes[0]
	if nr.CapOK {
		t.Fatal("expected duty-cycled regime")
	}
	if nr.Freq >= spec.FMin() {
		t.Errorf("duty-cycled freq %v not below FMin", nr.Freq)
	}
	if nr.CPUPower > pFmin*0.7+1e-6 {
		t.Errorf("duty-cycled power %v exceeds cap", nr.CPUPower)
	}
	// Must be slower than running at Fmin with a sufficient cap.
	ok := mustRun(t, cl, workload.EP(), Config{
		Nodes: 1, CoresPerNode: 24, Capped: true,
		Budget: power.Budget{CPU: pFmin + 1, Mem: 20},
	})
	if res.Time <= ok.Time {
		t.Error("duty cycling not slower than Fmin")
	}
}

func TestFreqCap(t *testing.T) {
	cl := oneNode()
	fast := mustRun(t, cl, workload.EP(), Config{Nodes: 1, CoresPerNode: 24})
	slow := mustRun(t, cl, workload.EP(), Config{Nodes: 1, CoresPerNode: 24, FreqCap: 1.2})
	if slow.Nodes[0].Freq != 1.2 {
		t.Errorf("FreqCap ignored: running at %v", slow.Nodes[0].Freq)
	}
	ratio := slow.Time / fast.Time
	if ratio < 1.7 || ratio > 2.0 {
		t.Errorf("1.2 vs 2.3 GHz slowdown %v, want ~1.9 (compute bound)", ratio)
	}
}

func TestOddConcurrencyPenaltyApplied(t *testing.T) {
	cl := oneNode()
	app := workload.EP()
	t11 := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 11}).Time
	t12 := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 12}).Time
	// 11 cores do the same work over fewer cores AND pay the odd
	// penalty; the gap must exceed the pure 12/11 work ratio.
	if t11/t12 < 12.0/11.0+0.02 {
		t.Errorf("odd penalty missing: t11/t12 = %v", t11/t12)
	}
}

func TestSocketsUsedFor(t *testing.T) {
	spec := hw.HaswellSpec()
	cases := []struct {
		n    int
		aff  workload.Affinity
		want int
	}{
		{1, workload.Scatter, 1}, {2, workload.Scatter, 2}, {24, workload.Scatter, 2},
		{1, workload.Compact, 1}, {12, workload.Compact, 1}, {13, workload.Compact, 2},
		{24, workload.Compact, 2},
	}
	for _, c := range cases {
		if got := SocketsUsedFor(spec, c.n, c.aff); got != c.want {
			t.Errorf("SocketsUsedFor(%d,%v) = %d, want %d", c.n, c.aff, got, c.want)
		}
	}
}

func TestSharedDataPrefersCompactWithinSocket(t *testing.T) {
	// Below the single-socket bandwidth limit the two mappings admit
	// the same bandwidth, so scatter only adds cross-NUMA traffic: a
	// shared-data application must prefer compact there. (At higher
	// thread counts scatter's second memory controller wins instead.)
	cl := oneNode()
	app := workload.SPMZ() // SharedData with high RemoteFrac
	compact := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 4, Affinity: workload.Compact})
	scatter := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 4, Affinity: workload.Scatter})
	if compact.Time >= scatter.Time {
		t.Error("shared-data app at 4 threads should prefer one socket (compact)")
	}
}

func TestBandwidthBoundPrefersScatter(t *testing.T) {
	cl := oneNode()
	app := workload.Stream() // no shared data, bandwidth hungry
	compact := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 12, Affinity: workload.Compact})
	scatter := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 12, Affinity: workload.Scatter})
	if scatter.Time >= compact.Time {
		t.Error("bandwidth-bound app at 12 threads should prefer two sockets (scatter)")
	}
}

func TestStrongScalingAcrossNodes(t *testing.T) {
	cl := cluster8()
	app := workload.CoMD()
	t1 := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 24}).Time
	t4 := mustRun(t, cl, app, Config{Nodes: 4, CoresPerNode: 24}).Time
	t8 := mustRun(t, cl, app, Config{Nodes: 8, CoresPerNode: 24}).Time
	if s := t1 / t4; s < 3 || s > 4.05 {
		t.Errorf("4-node speedup %v outside (3, 4.05]", s)
	}
	if s := t1 / t8; s < 5 || s > 8.1 {
		t.Errorf("8-node speedup %v outside (5, 8.1]", s)
	}
	if t8 >= t4 {
		t.Error("8 nodes slower than 4 for a scalable app")
	}
}

func TestCommTime(t *testing.T) {
	cl := cluster8()
	app := workload.LUMZ()
	r1 := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 24})
	if r1.CommTime != 0 {
		t.Errorf("single node comm time %v, want 0", r1.CommTime)
	}
	r2 := mustRun(t, cl, app, Config{Nodes: 2, CoresPerNode: 24})
	if r2.CommTime <= 0 {
		t.Error("multi-node run has no communication cost")
	}
}

func TestVariabilitySlowsBarrier(t *testing.T) {
	spec := hw.HaswellSpec()
	uniform := hw.NewCluster(4, spec, 0, 1)
	varied := hw.NewCluster(4, spec, 0, 1)
	varied.Nodes[3].PowerEff = 1.15 // one leaky node

	cfg := Config{Nodes: 4, CoresPerNode: 24, Capped: true,
		Budget: power.Budget{CPU: 160, Mem: 30}}
	tu := mustRun(t, uniform, workload.AMG(), cfg)
	tv := mustRun(t, varied, workload.AMG(), cfg)
	if tv.Time <= tu.Time {
		t.Error("a leaky node under the same cap must slow the whole job (barrier)")
	}
	// The leaky node runs at a lower frequency.
	if tv.Nodes[3].Freq >= tv.Nodes[0].Freq {
		t.Error("leaky node frequency not reduced")
	}
}

func TestPerNodeBudgets(t *testing.T) {
	cl := cluster8()
	budgets := []power.Budget{
		{CPU: 200, Mem: 30}, {CPU: 100, Mem: 30},
	}
	res := mustRun(t, cl, workload.AMG(), Config{
		Nodes: 2, CoresPerNode: 24, Capped: true, PerNode: budgets,
	})
	if res.Nodes[0].Freq <= res.Nodes[1].Freq {
		t.Error("node with the larger budget should sustain a higher frequency")
	}
	for i, nr := range res.Nodes {
		if nr.CPUPower > budgets[i].CPU+1e-6 {
			t.Errorf("node %d exceeded its personal cap", i)
		}
	}
}

func TestNodeIDsSelection(t *testing.T) {
	cl := cluster8()
	cl.Nodes[5].PowerEff = 1.2
	res := mustRun(t, cl, workload.CoMD(), Config{
		Nodes: 2, NodeIDs: []int{5, 6}, CoresPerNode: 8,
		Capped: true, Budget: power.Budget{CPU: 60, Mem: 20},
	})
	if res.Nodes[0].NodeID != 5 || res.Nodes[1].NodeID != 6 {
		t.Errorf("NodeIDs not honoured: %v %v", res.Nodes[0].NodeID, res.Nodes[1].NodeID)
	}
	if res.Nodes[0].Freq >= res.Nodes[1].Freq {
		t.Error("leaky node 5 should run slower than node 6 under the same cap")
	}
}

func TestPhaseCoresOverride(t *testing.T) {
	cl := oneNode()
	app := workload.BTMZ()
	uniform := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 24, Affinity: workload.Scatter})
	throttled := mustRun(t, cl, app, Config{
		Nodes: 1, CoresPerNode: 24, Affinity: workload.Scatter,
		PhaseCores: map[string]int{"exch_qbc": 12},
	})
	if throttled.Time >= uniform.Time {
		t.Error("throttling exch_qbc should improve BT-MZ (paper §V-B1)")
	}
}

func TestMaxIterationsTruncates(t *testing.T) {
	cl := oneNode()
	app := workload.CoMD()
	full := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 24})
	short := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 24, MaxIterations: 5})
	if short.Iterations != 5 {
		t.Errorf("iterations = %d, want 5", short.Iterations)
	}
	want := full.Time * 5 / float64(app.Iterations)
	if math.Abs(short.Time-want) > 1e-9 {
		t.Errorf("short run time %v, want %v", short.Time, want)
	}
}

func TestEventsConsistency(t *testing.T) {
	cl := oneNode()
	app := workload.LUMZ()
	res := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 24, Affinity: workload.Scatter})
	ev := res.Events
	if ev.Instructions <= 0 || ev.CyclesActive <= 0 || ev.ICacheMisses <= 0 {
		t.Error("event counters not populated")
	}
	if ev.MemReadBytes <= ev.MemWriteBytes {
		t.Error("read traffic should exceed write traffic (60/40 split)")
	}
	if ev.ElapsedSeconds != res.Time {
		t.Errorf("event elapsed %v != runtime %v", ev.ElapsedSeconds, res.Time)
	}
	rates := ev.Rates()
	if len(rates) != 7 {
		t.Fatalf("rates has %d entries, want 7 (events 0-6)", len(rates))
	}
	for i, r := range rates {
		if r < 0 || math.IsNaN(r) {
			t.Errorf("rate %d invalid: %v", i, r)
		}
	}
}

func TestEventsScaleWithIterations(t *testing.T) {
	cl := oneNode()
	app := workload.CoMD()
	e5 := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 24, MaxIterations: 5}).Events
	e10 := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 24, MaxIterations: 10}).Events
	if math.Abs(e10.Instructions/e5.Instructions-2) > 1e-6 {
		t.Errorf("instructions did not double: %v vs %v", e10.Instructions, e5.Instructions)
	}
}

func TestRemoteMissesOnlyWhenShared(t *testing.T) {
	cl := oneNode()
	shared := mustRun(t, cl, workload.SPMZ(), Config{Nodes: 1, CoresPerNode: 24, Affinity: workload.Scatter})
	if shared.Events.L3MissRemote <= 0 {
		t.Error("shared-data app across sockets should have remote misses")
	}
	private := mustRun(t, cl, workload.Stream(), Config{Nodes: 1, CoresPerNode: 24, Affinity: workload.Scatter})
	if private.Events.L3MissRemote != 0 {
		t.Error("first-touch app should have no remote misses")
	}
	oneSocket := mustRun(t, cl, workload.SPMZ(), Config{Nodes: 1, CoresPerNode: 8, Affinity: workload.Compact})
	if oneSocket.Events.L3MissRemote != 0 {
		t.Error("single-socket run should have no remote misses")
	}
}

func TestEnergyAccounting(t *testing.T) {
	cl := oneNode()
	res := mustRun(t, cl, workload.CoMD(), Config{Nodes: 1, CoresPerNode: 24})
	want := res.AvgPower * res.Time
	if math.Abs(res.Energy-want) > 1e-6*want {
		t.Errorf("energy %v != power*time %v", res.Energy, want)
	}
	if res.ManagedPower >= res.AvgPower {
		t.Error("managed power must exclude the unmanaged component")
	}
}

func TestPerfReciprocal(t *testing.T) {
	cl := oneNode()
	res := mustRun(t, cl, workload.CoMD(), Config{Nodes: 1, CoresPerNode: 24})
	if math.Abs(res.Perf()*res.Time-1) > 1e-12 {
		t.Error("Perf != 1/Time")
	}
	var zero Result
	if zero.Perf() != 0 {
		t.Error("zero-time result should have zero perf")
	}
}

func TestEventsAdd(t *testing.T) {
	a := Events{Instructions: 1, CyclesActive: 2, ElapsedSeconds: 3}
	b := Events{Instructions: 10, CyclesActive: 20, ElapsedSeconds: 30}
	a.Add(b)
	if a.Instructions != 11 || a.CyclesActive != 22 || a.ElapsedSeconds != 33 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestRatesZeroElapsed(t *testing.T) {
	e := Events{Instructions: 5}
	r := e.Rates()
	if r[6] != 5 {
		t.Errorf("zero elapsed should divide by 1, got %v", r[6])
	}
}

func TestSweepCoresLength(t *testing.T) {
	cl := oneNode()
	times, err := SweepCores(cl, workload.EP(), 24, workload.Compact, false, power.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 24 {
		t.Fatalf("sweep returned %d entries, want 24", len(times))
	}
	for i, v := range times {
		if v <= 0 {
			t.Errorf("sweep entry %d non-positive: %v", i, v)
		}
	}
}

func TestWeakScalingConstantNodeTime(t *testing.T) {
	cl := cluster8()
	app := workload.CoMD().WeakScaled()
	t1 := mustRun(t, cl, app, Config{Nodes: 1, CoresPerNode: 24}).IterTime
	t8 := mustRun(t, cl, app, Config{Nodes: 8, CoresPerNode: 24})
	// Per-node time stays constant; only communication is added.
	nodeTime := t8.IterTime - t8.CommTime
	if math.Abs(nodeTime-t1) > 1e-9 {
		t.Errorf("weak-scaled per-node time %v != single-node %v", nodeTime, t1)
	}
	if t8.Throughput() < 7.5/t8.Time*0.99 {
		t.Errorf("weak throughput %v too low", t8.Throughput())
	}
}

func TestWeakVsStrongScaling(t *testing.T) {
	cl := cluster8()
	strong := mustRun(t, cl, workload.LUMZ(), Config{Nodes: 8, CoresPerNode: 24, Affinity: workload.Scatter})
	weak := mustRun(t, cl, workload.LUMZ().WeakScaled(), Config{Nodes: 8, CoresPerNode: 24, Affinity: workload.Scatter})
	// The weak-scaled problem is 8x larger, so it must take much longer.
	if weak.Time < 5*strong.Time {
		t.Errorf("weak run %v not substantially longer than strong %v", weak.Time, strong.Time)
	}
}

func TestWeakScaledSpecIndependent(t *testing.T) {
	orig := workload.LUMZ()
	w := orig.WeakScaled()
	if w.Name == orig.Name {
		t.Error("weak-scaled spec shares the original name")
	}
	if orig.Scaling != workload.StrongScaling {
		t.Error("WeakScaled mutated the original")
	}
	w.Phases[0].ParallelCycles = 1
	if orig.Phases[0].ParallelCycles == 1 {
		t.Error("WeakScaled shares the phase slice with the original")
	}
}
