package jobsched

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// chaosJobs is a six-job stream with staggered arrivals used by the
// regression suite.
func chaosJobs() []Job {
	apps := []*workload.Spec{workload.LUMZ(), workload.SPMZ(), workload.CoMD(),
		workload.AMG(), workload.TeaLeaf(), workload.MiniMD()}
	out := make([]Job, len(apps))
	for i, a := range apps {
		out[i] = Job{ID: fmt.Sprintf("j%02d", i), App: a, Arrival: float64(i) * 5}
	}
	return out
}

// renderFaultLog flattens a fault log to one comparable string.
func renderFaultLog(log []FaultEvent) string {
	var b strings.Builder
	for _, e := range log {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// chaosScenarios: fixed seeds × single-class and combined fault mixes.
func chaosScenarios() map[string]*faults.Scenario {
	return map[string]*faults.Scenario{
		"crash-only":     {Seed: 11, CrashMTBF: 150, MTTR: 25},
		"excursion-only": {Seed: 12, ExcursionMTBF: 120},
		"straggler-only": {Seed: 13, StragglerMTBF: 100},
		"combined": {Seed: 14, CrashMTBF: 200, MTTR: 25,
			ExcursionMTBF: 150, StragglerMTBF: 120},
	}
}

// unavailWindow is a [from, until) interval during which a node must
// not receive new placements. until < 0 means forever (drained).
type unavailWindow struct {
	node        int
	from, until float64
}

// unavailableWindows reconstructs per-node no-placement intervals from
// the fault log: crash→recover (or drain→∞) and excursion→excursion-end.
func unavailableWindows(log []FaultEvent) []unavailWindow {
	var out []unavailWindow
	open := map[string]map[int]int{} // kind → node → index into out
	begin := func(class string, node int, t float64) {
		if open[class] == nil {
			open[class] = map[int]int{}
		}
		out = append(out, unavailWindow{node: node, from: t, until: -1})
		open[class][node] = len(out) - 1
	}
	end := func(class string, node int, t float64) {
		if idx, ok := open[class][node]; ok {
			out[idx].until = t
			delete(open[class], node)
		}
	}
	for _, e := range log {
		switch e.Kind {
		case "crash":
			if _, ok := open["crash"][e.Node]; !ok {
				begin("crash", e.Node, e.T)
			}
		case "recover":
			end("crash", e.Node, e.T)
		case "excursion":
			begin("exc", e.Node, e.T)
		case "excursion-end":
			end("exc", e.Node, e.T)
		}
	}
	return out
}

// TestChaosRegressionSuite: for every scenario, the run must be
// byte-reproducible, lose no jobs, respect the power bound at every
// event, and never place a job on a quarantined or derated node.
func TestChaosRegressionSuite(t *testing.T) {
	const bound = 1400.0
	for name, sc := range chaosScenarios() {
		t.Run(name, func(t *testing.T) {
			run := func() *Stats {
				s := sched(t, Config{Bound: bound, Policy: AggressiveBackfill,
					Reallocate: true, Faults: sc})
				st, err := s.Run(chaosJobs())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return st
			}
			a, b := run(), run()

			// Determinism: the full fault timeline is byte-identical
			// across repeats of the same seed.
			la, lb := renderFaultLog(a.FaultLog), renderFaultLog(b.FaultLog)
			if la != lb {
				t.Fatalf("%s: fault logs differ between identical runs:\n--- a\n%s--- b\n%s", name, la, lb)
			}
			if a.Makespan != b.Makespan {
				t.Errorf("%s: makespan %.6f vs %.6f across identical runs", name, a.Makespan, b.Makespan)
			}
			if len(a.FaultLog) == 0 {
				t.Errorf("%s: no fault events injected", name)
			}

			// No lost jobs: every submitted job either finished or is in
			// the failed report.
			if got := len(a.Jobs) + len(a.Failed); got != len(chaosJobs()) {
				t.Errorf("%s: %d finished + %d failed != %d submitted",
					name, len(a.Jobs), len(a.Failed), len(chaosJobs()))
			}

			// Bound safety: the peak of allocation + excursion reserve
			// across every event never exceeded the cluster bound.
			if a.PeakAllocW > bound+1e-6 {
				t.Errorf("%s: peak allocation %.3f W exceeds %.0f W bound", name, a.PeakAllocW, bound)
			}

			// Placement audit: no job may have started on a node inside
			// one of its unavailability windows.
			windows := unavailableWindows(a.FaultLog)
			for _, j := range a.Jobs {
				for _, w := range windows {
					if w.until >= 0 && (j.Start < w.from || j.Start >= w.until) {
						continue
					}
					if w.until < 0 && j.Start < w.from {
						continue
					}
					for _, id := range j.NodeIDs {
						if id == w.node {
							t.Errorf("%s: job %s started at t=%.3f on node %d, unavailable [%.3f, %.3f)",
								name, j.ID, j.Start, id, w.from, w.until)
						}
					}
				}
			}
		})
	}
}

// TestChaosDisabledMatchesBaseline: a nil (or disabled) fault scenario
// must reproduce the fault-free schedule exactly — same makespan, same
// job table, no fault events.
func TestChaosDisabledMatchesBaseline(t *testing.T) {
	run := func(sc *faults.Scenario) *Stats {
		s := sched(t, Config{Bound: 1400, Policy: AggressiveBackfill, Reallocate: true, Faults: sc})
		st, err := s.Run(chaosJobs())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	base := run(nil)
	disabled := run(&faults.Scenario{Seed: 99}) // no MTBFs → Enabled() == false
	if base.Makespan != disabled.Makespan {
		t.Errorf("disabled faults changed makespan: %.6f vs %.6f", disabled.Makespan, base.Makespan)
	}
	if len(disabled.FaultLog) != 0 {
		t.Errorf("disabled faults produced %d fault events", len(disabled.FaultLog))
	}
	for i := range base.Jobs {
		a, b := base.Jobs[i], disabled.Jobs[i]
		if a.ID != b.ID || a.Start != b.Start || a.Finish != b.Finish {
			t.Errorf("job %s: (%.6f, %.6f) vs (%.6f, %.6f)", a.ID, b.Start, b.Finish, a.Start, a.Finish)
		}
	}
}

// TestChaosPropertyTermination: many random fault schedules against a
// small cluster all terminate with conserved jobs and a respected
// bound. maxRetries bounds the retry chains and the injector stops
// once every job has retired, so no schedule can run away, and the run
// ends when its last job does: a fault stream left armed would fire
// past it.
func TestChaosPropertyTermination(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	cl := hw.NewCluster(4, hw.HaswellSpec(), 0.03, 5)
	c := newCLIPFor(t, cl)
	apps := []*workload.Spec{workload.CoMD(), workload.SPMZ(), workload.Stream()}
	src := rng.New(0xC1A05)
	for i := 0; i < n; i++ {
		sc := &faults.Scenario{
			Seed:          src.Uint64(),
			CrashMTBF:     40 + src.Float64()*400,
			MTTR:          5 + src.Float64()*40,
			ExcursionMTBF: 40 + src.Float64()*400,
			StragglerMTBF: 40 + src.Float64()*400,
		}
		s, err := New(cl, c, Config{Bound: 500 + src.Float64()*400,
			Policy: AggressiveBackfill, Reallocate: src.Uint64()%2 == 0, Faults: sc})
		if err != nil {
			t.Fatal(err)
		}
		jobs := []Job{
			{ID: "a", App: apps[src.Intn(len(apps))], Arrival: 0},
			{ID: "b", App: apps[src.Intn(len(apps))], Arrival: src.Float64() * 20},
			{ID: "c", App: apps[src.Intn(len(apps))], Arrival: src.Float64() * 40},
		}
		st, err := s.Run(jobs)
		if err != nil {
			t.Fatalf("schedule %d (%s): %v", i, sc, err)
		}
		if got := len(st.Jobs) + len(st.Failed); got != len(jobs) {
			t.Fatalf("schedule %d (%s): %d finished + %d failed != %d submitted",
				i, sc, len(st.Jobs), len(st.Failed), len(jobs))
		}
		if st.PeakAllocW > s.Config.Bound+1e-6 {
			t.Fatalf("schedule %d (%s): peak %.3f W > bound %.3f W", i, sc, st.PeakAllocW, s.Config.Bound)
		}
		last := 0.0
		for _, jr := range st.Jobs {
			last = max(last, jr.Finish)
		}
		for _, fj := range st.Failed {
			last = max(last, fj.FailedAt)
		}
		if st.Makespan != last {
			t.Fatalf("schedule %d (%s): makespan %v, but the last job left at %v", i, sc, st.Makespan, last)
		}
	}
}

// newCLIPFor builds a CLIP for an alternate cluster, failing the test
// on error.
func newCLIPFor(t *testing.T, cl *hw.Cluster) *core.CLIP {
	t.Helper()
	c, err := core.New(cl)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBoundInvariantTripsOnOverAllocation: white-box check that the
// invariant actually fires — hand the state an over-committed running
// set and assert the failure is reported.
func TestBoundInvariantTripsOnOverAllocation(t *testing.T) {
	s := sched(t, Config{Bound: 100})
	st := &schedState{s: s, eng: des.NewEngine(), bound: 100, stats: &Stats{}}
	for _, w := range []float64{80, 30} {
		rj := st.acquireSlot()
		rj.powerUsed, rj.live = w, true
	}
	st.assertBound("test")
	if st.failure == nil {
		t.Fatal("110 W allocated under a 100 W bound did not trip the invariant")
	}
	if !strings.Contains(st.failure.Error(), "power bound violated") {
		t.Errorf("unexpected failure: %v", st.failure)
	}
	if st.stats.PeakAllocW != 110 {
		t.Errorf("peak allocation %.1f, want 110", st.stats.PeakAllocW)
	}
}

// TestFaultTelemetryExposition: a faulty run must surface the new
// counters in the Prometheus exposition, and the online cluster view
// must decompose the bound exactly after every event of the same
// scenario.
func TestFaultTelemetryExposition(t *testing.T) {
	s := sched(t, Config{Bound: 1400, Policy: AggressiveBackfill, Reallocate: true,
		Faults: &faults.Scenario{Seed: 11, CrashMTBF: 150, MTTR: 25, ExcursionMTBF: 120}})
	if _, err := s.Run(chaosJobs()); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := telemetry.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var j strings.Builder
	if err := telemetry.Default.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	text, jsonText := b.String(), j.String()
	for _, name := range []string{
		"clip_faults_injected_total",
		"clip_jobs_retried_total",
		"clip_watts_reclaimed_total",
		"clip_node_quarantined",
		"clip_fault_resched_seconds",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from Prometheus exposition", name)
		}
		if !strings.Contains(jsonText, name) {
			t.Errorf("metric %s missing from the JSON report", name)
		}
	}

	// The same scenario driven online: after every event the cluster
	// view must decompose the bound exactly, free + allocated +
	// reserved == bound.
	o, err := s.Online()
	if err != nil {
		t.Fatal(err)
	}
	steps, reserved := 0, false
	check := func() {
		t.Helper()
		cs := o.Cluster()
		if d := cs.FreeW + cs.AllocW + cs.ReservedW - cs.BoundW; d > 1e-6 || d < -1e-6 {
			t.Fatalf("t=%.3f: free %.3f + alloc %.3f + reserved %.3f != bound %.3f",
				cs.Now, cs.FreeW, cs.AllocW, cs.ReservedW, cs.BoundW)
		}
		reserved = reserved || cs.ReservedW > 0
	}
	step := func() {
		t.Helper()
		if err := o.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
		steps++
		check()
	}
	for _, j := range chaosJobs() {
		for next, ok := o.Next(); ok && next < j.Arrival; next, ok = o.Next() {
			step()
		}
		if err := o.Advance(j.Arrival); err != nil {
			t.Fatal(err)
		}
		if _, err := o.SubmitPri(j.ID, j.App, j.Priority); err != nil {
			t.Fatal(err)
		}
		check()
	}
	for o.Pending() > 0 && steps < 100000 {
		step()
	}
	if o.Pending() > 0 {
		t.Fatalf("%d jobs still pending after %d events", o.Pending(), steps)
	}
	if !reserved {
		t.Error("no event left watts reserved by an excursion; the decomposition went untested")
	}
}

// TestRingHoldsDecisionsOnly: the event ring logs decisions, not
// scheduler state. A fault-free run on a σ = 0 cluster never
// rebalances, so it appends nothing; a faulted run on a variable
// cluster appends only fault actions and rebalances.
func TestRingHoldsDecisionsOnly(t *testing.T) {
	ring := telemetry.Default.Events()
	appended := func(run func()) []telemetry.Event {
		t.Helper()
		before := ring.Total()
		run()
		n := ring.Total() - before
		if n > telemetry.DefaultEventCapacity {
			t.Fatalf("%d events appended, more than the ring retains", n)
		}
		evs := ring.Snapshot()
		return evs[uint64(len(evs))-n:]
	}
	if evs := appended(func() {
		if _, err := sched(t, Config{Bound: 1400, Policy: AggressiveBackfill, Reallocate: true}).Run(chaosJobs()); err != nil {
			t.Fatal(err)
		}
	}); len(evs) != 0 {
		t.Errorf("fault-free σ = 0 run appended %d events, first %+v", len(evs), evs[0])
	}

	cl := hw.NewCluster(8, testCl.Spec(), 0.05, 3)
	c, err := core.New(cl, core.Options{Knowledge: clip(t).Knowledge()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cl, c, Config{Bound: 1400, Policy: AggressiveBackfill, Reallocate: true,
		Faults: &faults.Scenario{Seed: 11, CrashMTBF: 150, MTTR: 25, ExcursionMTBF: 120}})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range appended(func() {
		if _, err := s.Run(chaosJobs()); err != nil {
			t.Fatal(err)
		}
	}) {
		kinds[ev.Kind]++
	}
	for k, n := range kinds {
		if k != telemetry.KindFault && k != telemetry.KindRebalance {
			t.Errorf("faulted run appended %d %q events", n, k)
		}
	}
	if kinds[telemetry.KindFault] == 0 || kinds[telemetry.KindRebalance] == 0 {
		t.Errorf("faulted run appended %v, want fault and rebalance events", kinds)
	}
}

// TestBackoffJitter: the k-th retry delay lies in [base, 1.25·base]
// with base = min(2·2^(k−1), 60), repeats for the same (job, attempt)
// and differs between jobs. Over 50 jobs the jitter reaches past
// 0.2·base, so it is on.
func TestBackoffJitter(t *testing.T) {
	sc, err := faults.Parse("crash-mtbf=100")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched(t, Config{Bound: 1400, Policy: AggressiveBackfill, Faults: sc}).newState(false)
	if err != nil {
		t.Fatal(err)
	}
	widest := 0.0
	for k := 1; k <= 8; k++ {
		base := math.Min(2*math.Pow(2, float64(k-1)), 60)
		for j := 0; j < 50; j++ {
			id := fmt.Sprintf("j%02d", j)
			got := st.retryDelay(id, k)
			if hi := base * 1.25; got < base || got > hi {
				t.Errorf("%s attempt %d: delay %g outside [%g, %g]", id, k, got, base, hi)
			}
			if again := st.retryDelay(id, k); again != got {
				t.Errorf("%s attempt %d: delay %g, then %g for the same job", id, k, got, again)
			}
			if other := st.retryDelay(id+"x", k); other == got {
				t.Errorf("%s attempt %d: jobs %s and %sx drew the same delay %g", id, k, id, id, got)
			}
			widest = max(widest, got/base-1)
		}
	}
	if widest <= 0.2 {
		t.Errorf("largest jitter %.3f·base over 400 delays, want above 0.2", widest)
	}
}

// TestNodeCrashStreamMatchesOracle: each node's crash, recover and
// drain times in an online session's fault log equal an oracle that
// walks the node's crash stream alone — faults.Streams(seed, saltCrash,
// n)[k], alternating Exp(CrashMTBF) and Exp(MTTR) and draining at the
// crash past crashLimit — whatever jobs, excursions and stragglers do
// meanwhile. The node's excursion and straggler times match a walk of
// their own streams the same way. At the end every node's health and
// the quarantined gauge agree with the oracle.
func TestNodeCrashStreamMatchesOracle(t *testing.T) {
	const horizon = 3000.0
	apps := []*workload.Spec{workload.CoMD(), workload.SPMZ(), workload.TeaLeaf(), workload.MiniMD()}
	// episodes walks an excursion or straggler stream: the delay from
	// the previous episode's end, the fraction or factor, the duration.
	episodes := func(src *rng.Source, mtbf, dur float64, kind string) (log []string) {
		for at := 0.0; mtbf > 0; {
			if at += src.Exp(mtbf); at > horizon {
				break
			}
			src.Float64() // the fraction or factor
			log = append(log, fmt.Sprintf("%s@%v", kind, at))
			if at += dur * src.Range(0.5, 1.5); at > horizon {
				break
			}
			log = append(log, fmt.Sprintf("%s-end@%v", kind, at))
		}
		return log
	}
	streamOf := map[string]string{"crash": "crash", "recover": "crash", "drain": "crash",
		"excursion": "excursion", "excursion-end": "excursion",
		"straggler": "straggler", "straggler-end": "straggler"}
	for _, tc := range []struct {
		name string
		sc   faults.Scenario
		jobs int
	}{
		{"crashes", faults.Scenario{Seed: 3, CrashMTBF: 300, MTTR: 40}, 0},
		{"all-classes", faults.Scenario{Seed: 5, CrashMTBF: 300, MTTR: 30,
			ExcursionMTBF: 200, StragglerMTBF: 150}, 12},
		{"crashes-mtbf-400", faults.Scenario{Seed: 7, CrashMTBF: 400, MTTR: 30}, 0},
		{"default-mttr", faults.Scenario{Seed: 9, CrashMTBF: 1500, ExcursionMTBF: 200}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc.Normalized()
			n := len(testCl.Nodes)
			want := map[string][]string{}
			health := make([]string, n)
			unhealthy, drains := 0, 0
			exc := faults.Streams(sc.Seed, saltExcursion, n)
			strag := faults.Streams(sc.Seed, saltStraggler, n)
			for k, src := range faults.Streams(sc.Seed, saltCrash, n) {
				crash := fmt.Sprintf("node %d crash", k)
				health[k] = "healthy"
				for at, crashes := 0.0, 0; ; {
					if at += src.Exp(sc.CrashMTBF); at > horizon {
						break
					}
					crashes++
					want[crash] = append(want[crash], fmt.Sprintf("crash@%v", at))
					health[k] = "quarantined"
					if crashes > crashLimit {
						want[crash] = append(want[crash], fmt.Sprintf("drain@%v", at))
						health[k] = "drained"
						drains++
						break
					}
					if at += src.Exp(sc.MTTR); at > horizon {
						break
					}
					want[crash] = append(want[crash], fmt.Sprintf("recover@%v", at))
					health[k] = "healthy"
				}
				if health[k] != "healthy" {
					unhealthy++
				}
				want[fmt.Sprintf("node %d excursion", k)] = episodes(exc[k], sc.ExcursionMTBF, excursionDur, "excursion")
				want[fmt.Sprintf("node %d straggler", k)] = episodes(strag[k], sc.StragglerMTBF, stragglerDur, "straggler")
			}
			if drains == 0 {
				t.Fatalf("no node drains by t=%g; the circuit breaker goes untested", horizon)
			}

			o := online(t, Config{Bound: 1400, Policy: AggressiveBackfill, Reallocate: true, Faults: &tc.sc})
			for j := 0; j < tc.jobs; j++ {
				if _, err := o.SubmitPri(fmt.Sprintf("j%02d", j), apps[j%len(apps)], 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := o.Advance(horizon); err != nil {
				t.Fatal(err)
			}
			got := map[string][]string{}
			for _, e := range o.st.stats.FaultLog {
				if stream := streamOf[e.Kind]; stream != "" {
					key := fmt.Sprintf("node %d %s", e.Node, stream)
					got[key] = append(got[key], fmt.Sprintf("%s@%v", e.Kind, e.T))
				}
			}
			for key, w := range want {
				if g, w := strings.Join(got[key], " "), strings.Join(w, " "); g != w {
					t.Errorf("%s stream in the fault log:\n got %s\nwant %s", key, g, w)
				}
			}
			nodes := o.Cluster().Nodes
			for k := 0; k < n; k++ {
				if nodes[k].Health != health[k] {
					t.Errorf("node %d is %s at t=%g, want %s", k, nodes[k].Health, horizon, health[k])
				}
			}
			if g := o.st.m.quarantined.Value(); g != float64(unhealthy) {
				t.Errorf("quarantined gauge %g, want %d nodes out of service", g, unhealthy)
			}
		})
	}
}
