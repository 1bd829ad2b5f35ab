package des

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fns adapts closures to Handler for the engine tests: an event's
// argument indexes the closure it fires.
type fns []func()

func (f *fns) HandleEvent(_ uint16, arg uint64) { (*f)[arg]() }

// at schedules fn on e at absolute time t.
func (f *fns) at(e *Engine, t float64, fn func()) (*Event, error) {
	*f = append(*f, fn)
	return e.At(t, f, 0, uint64(len(*f)-1))
}

// after schedules fn on e dt seconds from now.
func (f *fns) after(e *Engine, dt float64, fn func()) (*Event, error) {
	return f.at(e, e.Now()+dt, fn)
}

// ticker re-arms itself dt seconds after each of its events, until it
// has fired max times (0 = forever).
type ticker struct {
	e      *Engine
	dt     float64
	n, max int
}

func (k *ticker) HandleEvent(uint16, uint64) {
	k.n++
	if k.max == 0 || k.n < k.max {
		if _, err := k.e.After(k.dt, k, 0, 0); err != nil {
			panic(err)
		}
	}
}

// start arms the ticker's first event at t.
func (k *ticker) start(t float64) error {
	_, err := k.e.At(t, k, 0, 0)
	return err
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var h fns
	var order []int
	for i, tm := range []float64{3, 1, 2} {
		i, tm := i, tm
		if _, err := h.at(e, tm, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Errorf("event order %v, want [1 2 0]", order)
	}
	if e.Now() != 3 {
		t.Errorf("final time %v, want 3", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var h fns
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		if _, err := h.at(e, 1, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of insertion order: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	var h fns
	ran := false
	ev, err := h.at(e, 1, func() { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestEngineRejectsPast(t *testing.T) {
	e := NewEngine()
	var h fns
	if _, err := h.at(e, 5, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.at(e, 1, func() {}); err == nil {
		t.Error("event in the past accepted")
	}
	if _, err := h.at(e, math.NaN(), func() {}); err == nil {
		t.Error("NaN time accepted")
	}
}

// TestEngineRunawayGuard: the event loop shared by Run, RunUntil and
// RunBefore stops a cascade at its limit, leaving the next event
// unfired.
func TestEngineRunawayGuard(t *testing.T) {
	e := NewEngine()
	k := &ticker{e: e, dt: 1}
	if err := k.start(0); err != nil {
		t.Fatal(err)
	}
	n, err := e.fire(math.Inf(1), 100)
	if err == nil {
		t.Fatal("runaway simulation not caught")
	}
	if n != 100 || k.n != 100 || e.Steps != 100 {
		t.Errorf("guard fired after %d events (%d handled, %d steps), want 100", n, k.n, e.Steps)
	}
	if next, ok := e.Next(); !ok || next != 100 {
		t.Errorf("event past the limit: Next = %v,%v, want 100,true", next, ok)
	}
}

func TestEngineChainedScheduling(t *testing.T) {
	e := NewEngine()
	k := &ticker{e: e, dt: 0.5, max: 10}
	if err := k.start(0); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if k.n != 10 {
		t.Errorf("ticks %d, want 10", k.n)
	}
	if math.Abs(e.Now()-4.5) > 1e-9 {
		t.Errorf("final time %v, want 4.5", e.Now())
	}
}

// --- cluster-level DES ---

func cluster(n int) *hw.Cluster { return hw.NewCluster(n, hw.HaswellSpec(), 0, 1) }

func TestUncappedMatchesAnalytic(t *testing.T) {
	cl := cluster(4)
	for _, app := range []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.SPMZ(), workload.BTMZ()} {
		cfg := RunConfig{Nodes: 4, CoresPerNode: 24, Affinity: workload.Scatter, MaxIterations: 10}
		dres, err := Run(cl, app, cfg)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		ares, err := sim.Run(cl, app, sim.Config{
			Nodes: 4, CoresPerNode: 24, Affinity: workload.Scatter, MaxIterations: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(dres.Time-ares.Time) / ares.Time; rel > 1e-6 {
			t.Errorf("%s: uncapped DES %.6f vs analytic %.6f (rel %.2g)",
				app.Name, dres.Time, ares.Time, rel)
		}
	}
}

func TestCappedConvergesToAnalytic(t *testing.T) {
	cl := cluster(2)
	for _, tc := range []struct {
		app    *workload.Spec
		budget power.Budget
	}{
		{workload.CoMD(), power.Budget{CPU: 150, Mem: 30}},
		{workload.LUMZ(), power.Budget{CPU: 120, Mem: 40}},
		{workload.AMG(), power.Budget{CPU: 180, Mem: 30}},
	} {
		cfg := RunConfig{Nodes: 2, CoresPerNode: 24, Affinity: workload.Scatter,
			Capped: true, Budget: tc.budget, MaxIterations: 20}
		dres, err := Run(cl, tc.app, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.app.Name, err)
		}
		ares, err := sim.Run(cl, tc.app, sim.Config{
			Nodes: 2, CoresPerNode: 24, Affinity: workload.Scatter,
			Capped: true, Budget: tc.budget, MaxIterations: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The controller starts at Fmax and settles within a few
		// intervals, so the DES run is at most slightly faster.
		rel := (dres.Time - ares.Time) / ares.Time
		if rel > 0.01 || rel < -0.10 {
			t.Errorf("%s: capped DES %.4f vs analytic %.4f (rel %+.3f)",
				tc.app.Name, dres.Time, ares.Time, rel)
		}
		// Steady state: final frequency equals the analytic solution.
		wantF := ares.Nodes[0].Freq
		for i, f := range dres.FinalFreqs {
			if math.Abs(f-wantF) > 1e-9 {
				t.Errorf("%s node %d settled at %v GHz, analytic %v", tc.app.Name, i, f, wantF)
			}
		}
	}
}

// TestNonBindingCapEndsWithLastCollective pins the end of a capped
// run: under a cap that never binds the controller changes nothing, so
// the run ends with its last collective at the uncapped runtime, even
// when the next controller tick is due long after it.
func TestNonBindingCapEndsWithLastCollective(t *testing.T) {
	cl := cluster(4)
	for _, app := range workload.Suite() {
		cfg := RunConfig{Nodes: 4, CoresPerNode: 12, Affinity: workload.Scatter, MaxIterations: 3}
		uncapped, err := Run(cl, app, cfg)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		cfg.Capped = true
		cfg.Budget = power.Budget{CPU: 1000, Mem: 1000}
		for _, interval := range []float64{DefaultControlInterval, 0.5} {
			cfg.ControlInterval = interval
			res, err := Run(cl, app, cfg)
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			if rel := math.Abs(res.Time-uncapped.Time) / uncapped.Time; rel > 1e-9 {
				t.Errorf("%s at a %g s control interval: capped %.6f s, uncapped %.6f s",
					app.Name, interval, res.Time, uncapped.Time)
			}
		}
	}
}

func TestControllerSettlesAndOvershootBounded(t *testing.T) {
	cl := cluster(1)
	cfg := RunConfig{Nodes: 1, CoresPerNode: 24, Affinity: workload.Scatter,
		Capped: true, Budget: power.Budget{CPU: 120, Mem: 40}, MaxIterations: 20}
	res, err := Run(cl, workload.LUMZ(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ControlSteps == 0 {
		t.Fatal("controller never ran")
	}
	// Starting at Fmax against a 120 W cap, transient overshoot exists
	// but is bounded by the Fmax-vs-cap gap.
	spec := cl.Spec()
	maxGap := power.CPUPower(spec, 24, 2, spec.FMax(), 1.0) - 120
	if res.MaxOvershoot <= 0 {
		t.Error("expected transient overshoot before the controller settles")
	}
	if res.MaxOvershoot > maxGap+1e-6 {
		t.Errorf("overshoot %v exceeds the physical gap %v", res.MaxOvershoot, maxGap)
	}
}

func TestDutyCycleRegimeDES(t *testing.T) {
	cl := cluster(1)
	spec := cl.Spec()
	pFmin := power.CPUPower(spec, 24, 2, spec.FMin(), 1.0)
	cfg := RunConfig{Nodes: 1, CoresPerNode: 24, Affinity: workload.Scatter,
		Capped: true, Budget: power.Budget{CPU: pFmin * 0.7, Mem: 30}, MaxIterations: 10}
	res, err := Run(cl, workload.CoMD(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalFreqs[0] >= spec.FMin() {
		t.Errorf("final frequency %v not below Fmin under a starving cap", res.FinalFreqs[0])
	}
}

func TestVariabilityBarrierDES(t *testing.T) {
	cl := cluster(2)
	cl.Nodes[1].PowerEff = 1.12
	cfg := RunConfig{Nodes: 2, CoresPerNode: 24, Affinity: workload.Scatter,
		Capped: true, Budget: power.Budget{CPU: 150, Mem: 30}, MaxIterations: 10}
	res, err := Run(cl, workload.AMG(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalFreqs[1] >= res.FinalFreqs[0] {
		t.Errorf("leaky node settled at %v >= nominal %v", res.FinalFreqs[1], res.FinalFreqs[0])
	}
}

func TestEnergyPositiveAndConsistent(t *testing.T) {
	cl := cluster(2)
	cfg := RunConfig{Nodes: 2, CoresPerNode: 12, Affinity: workload.Compact, MaxIterations: 10}
	res, err := Run(cl, workload.CoMD(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy <= 0 || res.AvgPower <= 0 {
		t.Error("energy accounting broken")
	}
	if math.Abs(res.AvgPower*res.Time-res.Energy) > 1e-6*res.Energy {
		t.Error("avg power inconsistent with energy")
	}
}

func TestRunValidation(t *testing.T) {
	cl := cluster(2)
	if _, err := Run(cl, workload.CoMD(), RunConfig{Nodes: 3, CoresPerNode: 12}); err == nil {
		t.Error("oversubscribed nodes accepted")
	}
	if _, err := Run(cl, workload.CoMD(), RunConfig{Nodes: 1, CoresPerNode: 12, ControlInterval: -1}); err == nil {
		t.Error("negative control interval accepted")
	}
}

func TestPerNodeBudgetsDES(t *testing.T) {
	cl := cluster(2)
	cfg := RunConfig{Nodes: 2, CoresPerNode: 24, Affinity: workload.Scatter,
		Capped: true, MaxIterations: 10,
		PerNode: []power.Budget{{CPU: 200, Mem: 30}, {CPU: 110, Mem: 30}}}
	res, err := Run(cl, workload.AMG(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalFreqs[0] <= res.FinalFreqs[1] {
		t.Error("node with larger budget should settle at a higher frequency")
	}
}

func TestMultiPhaseAppDES(t *testing.T) {
	cl := cluster(1)
	cfg := RunConfig{Nodes: 1, CoresPerNode: 24, Affinity: workload.Scatter, MaxIterations: 5}
	res, err := Run(cl, workload.BTMZ(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Error("multi-phase run produced no time")
	}
}

func TestRecordTrace(t *testing.T) {
	cl := cluster(1)
	res, err := Run(cl, workload.CoMD(), RunConfig{
		Nodes: 1, CoresPerNode: 24, Affinity: workload.Scatter,
		Capped: true, Budget: power.Budget{CPU: 150, Mem: 30},
		MaxIterations: 5, RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace samples")
	}
	// The controller walks down the ladder: frequency must be
	// non-increasing until the cap is met, then constant while busy.
	prev := res.Trace[0]
	if prev.Freq != cl.Spec().FMax() {
		t.Errorf("first sample at %v GHz, want Fmax (controller starts high)", prev.Freq)
	}
	for _, p := range res.Trace {
		if p.Time < prev.Time {
			t.Fatal("trace time not monotone")
		}
		prev = p
	}
	// No-trace runs must not allocate a series.
	res2, err := Run(cl, workload.CoMD(), RunConfig{
		Nodes: 1, CoresPerNode: 24, Affinity: workload.Scatter,
		Capped: true, Budget: power.Budget{CPU: 150, Mem: 30}, MaxIterations: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Trace) != 0 {
		t.Error("trace recorded without RecordTrace")
	}
}

// TestDESCapsPropertyRandomBudgets: for random CPU caps the DES
// controller must never let steady-state power exceed the cap by more
// than the single transient window, and the run must terminate.
func TestDESCapsPropertyRandomBudgets(t *testing.T) {
	cl := cluster(2)
	spec := cl.Spec()
	apps := []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.TeaLeaf()}
	for i, capW := range []float64{60, 95, 130, 170, 210, 260} {
		app := apps[i%len(apps)]
		res, err := Run(cl, app, RunConfig{
			Nodes: 2, CoresPerNode: 24, Affinity: workload.Scatter,
			Capped: true, Budget: power.Budget{CPU: capW, Mem: 35},
			MaxIterations: 8,
		})
		if err != nil {
			t.Fatalf("%s @%v W: %v", app.Name, capW, err)
		}
		// Steady state: the settled frequency's power fits the cap (or
		// the node is duty-cycling below Fmin).
		for n, f := range res.FinalFreqs {
			if f >= spec.FMin() {
				p := power.CPUPower(spec, 24, 2, spec.NearestFreq(f), cl.Nodes[n].PowerEff)
				if p > capW+1e-6 {
					t.Errorf("%s @%v W node %d settled at %v GHz drawing %v W",
						app.Name, capW, n, f, p)
				}
			}
		}
		if res.Time <= 0 {
			t.Errorf("%s @%v W produced no runtime", app.Name, capW)
		}
	}
}

// TestEngineCompaction schedules many events and cancels most of them;
// the queue must shed the cancelled majority without disturbing the
// delivery order of the survivors.
func TestEngineCompaction(t *testing.T) {
	e := NewEngine()
	var h fns
	var events []*Event
	var got []int
	for i := 0; i < 1000; i++ {
		i := i
		ev, err := h.at(e, float64(i%10), func() { got = append(got, i) })
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	var want []int
	for i, ev := range events {
		if i%4 != 0 {
			ev.Cancel()
		}
	}
	// Survivors fire ordered by (time, insertion sequence).
	for tick := 0; tick < 10; tick++ {
		for i := range events {
			if i%4 == 0 && i%10 == tick {
				want = append(want, i)
			}
		}
	}
	if len(e.queue) >= 1000 {
		t.Errorf("queue not compacted: %d events still held", len(e.queue))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order diverged at %d: got %v... want %v...", i, got[i], want[i])
		}
	}
	if e.Steps != len(want) {
		t.Errorf("Steps = %d, want %d (cancelled events must not count)", e.Steps, len(want))
	}
}

// TestEngineCancelAfterFire pins the free-list contract: cancelling an
// already-fired event must not affect later events that reuse its slot.
func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine()
	var h fns
	var first *Event
	var err error
	first, err = h.at(e, 1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	first.Cancel() // no-op: already fired
	ran := false
	if _, err := h.at(e, 2, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("event reusing a fired slot was lost to a stale Cancel")
	}
}

// TestEngineReusesEvents checks the free list actually recycles: a
// schedule/fire loop must not grow allocations linearly.
func TestEngineReusesEvents(t *testing.T) {
	e := NewEngine()
	k := &ticker{e: e, dt: 1, max: 1000}
	if err := k.start(0); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if k.n != 1000 {
		t.Fatalf("ran %d events", k.n)
	}
	if len(e.free) > 4 {
		t.Errorf("free list holds %d events after a serial chain; reuse broken?", len(e.free))
	}
}

// TestEventKindClearedOnReuse: the Kind label must not leak from a
// fired event into the next event recycled from the free list.
func TestEventKindCleared(t *testing.T) {
	e := NewEngine()
	var h fns
	ev, err := h.after(e, 1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	ev.Kind = 42
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	next, err := h.after(e, 1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if next.Kind != 0 {
		t.Errorf("recycled event carries stale Kind %d", next.Kind)
	}
}

// TestNextSkipsCancelled: Next reports the earliest live event, pruning
// cancelled tops, and reports nothing on an all-cancelled queue.
func TestNextSkipsCancelled(t *testing.T) {
	e := NewEngine()
	var h fns
	ev1, _ := h.at(e, 1, func() {})
	ev2, _ := h.at(e, 2, func() {})
	if at, ok := e.Next(); !ok || at != 1 {
		t.Fatalf("Next = %v,%v want 1,true", at, ok)
	}
	ev1.Cancel()
	if at, ok := e.Next(); !ok || at != 2 {
		t.Fatalf("Next after cancel = %v,%v want 2,true", at, ok)
	}
	ev2.Cancel()
	if _, ok := e.Next(); ok {
		t.Fatal("Next reported a live event on an all-cancelled queue")
	}
}

// TestRunUntil drives the engine the way the wall-clock bridge does:
// repeated catch-ups fire exactly the due events and land the clock on
// the requested time even with no event there.
func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var h fns
	var fired []float64
	add := func(at float64) {
		if _, err := h.at(e, at, func() { fired = append(fired, at) }); err != nil {
			t.Fatal(err)
		}
	}
	add(1)
	add(2.5)
	add(7)
	if err := e.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || e.Now() != 2.5 {
		t.Fatalf("RunUntil(2.5): fired %v now %v", fired, e.Now())
	}
	if err := e.RunUntil(4); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || e.Now() != 4 {
		t.Fatalf("RunUntil(4): fired %v now %v (clock must advance without events)", fired, e.Now())
	}
	// Events scheduled mid-catch-up at due times fire in the same call.
	if _, err := h.at(e, 5, func() { add(5.5); fired = append(fired, 5) }); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 || fired[2] != 5 || fired[3] != 5.5 {
		t.Fatalf("cascade: fired %v", fired)
	}
	if err := e.RunUntil(3); err == nil {
		t.Fatal("RunUntil accepted a time before now")
	}
	if err := e.RunUntil(e.Now()); err != nil {
		t.Fatalf("RunUntil(now) must be a no-op: %v", err)
	}
}

// TestRunUntilStepBudget: the per-call step budget guards a live daemon
// against a runaway event cascade.
func TestRunUntilStepBudget(t *testing.T) {
	e := NewEngine()
	k := &ticker{e: e, dt: 0.001}
	if err := k.start(0.001); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(1e6); err == nil {
		t.Fatal("runaway cascade not caught by the step budget")
	}
	if k.n != maxUntilEvents {
		t.Errorf("RunUntil stopped after %d events, want %d", k.n, maxUntilEvents)
	}
}

func TestEngineRunBefore(t *testing.T) {
	e := NewEngine()
	var h fns
	var order []int
	for i, tm := range []float64{1, 2, 3, 3, 5} {
		i := i
		if _, err := h.at(e, tm, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	// Strictly before: the two events at exactly t=3 must not fire.
	n, err := e.RunBefore(3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("RunBefore(3) fired %d events, want 2", n)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Errorf("fired %v, want [0 1]", order)
	}
	// The clock stays at the last fired event, not the barrier.
	if e.Now() != 2 {
		t.Errorf("clock %v after RunBefore(3), want 2", e.Now())
	}
	// +Inf drains everything that is left.
	n, err = e.RunBefore(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(order) != 5 {
		t.Errorf("RunBefore(+Inf) fired %d (total %d), want 3 (5)", n, len(order))
	}
	if e.Now() != 5 {
		t.Errorf("clock %v after drain, want 5", e.Now())
	}
	// Nothing pending: zero events, no error, clock untouched.
	if n, err = e.RunBefore(100); err != nil || n != 0 {
		t.Errorf("idle RunBefore = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := e.RunBefore(math.NaN()); err == nil {
		t.Error("RunBefore accepted NaN")
	}
}

// TestSkip: Skip hands every pending live event to fn in (time, seq)
// order without calling its handler, drops cancelled events uncounted,
// counts the rest as processed, lands the clock on the last one and
// leaves an empty queue that later events use as usual.
func TestSkip(t *testing.T) {
	e := NewEngine()
	var h fns
	handled := 0
	var evs []*Event
	// Out of time order, with equal-time ties scheduled apart.
	for _, tm := range []float64{3, 1, 2, 1, 3, 2, 0.5, 4, 2} {
		ev, err := h.at(e, tm, func() { handled++ })
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	// One ordinary step first, so the heap array is not in time order.
	if ok, err := e.StepNext(); !ok || err != nil || handled != 1 {
		t.Fatalf("StepNext = (%v, %v), handled %d", ok, err, handled)
	}
	evs[5].Cancel()
	evs[7].Cancel() // the latest event: the clock must not reach 4
	events := e.m.events
	steps, counted, free := e.Steps, events.Value(), len(e.free)

	var got []uint64
	n := e.Skip(func(kind uint16, arg uint64) {
		if kind != 0 {
			t.Errorf("event %d passed kind %d", arg, kind)
		}
		got = append(got, arg)
	})
	// (time, seq): 1 (#1, #3), 2 (#2, #8; #5 cancelled), 3 (#0, #4).
	want := []uint64{1, 3, 2, 8, 0, 4}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Skip passed %v, want %v", got, want)
	}
	if handled != 1 {
		t.Errorf("Skip called %d handlers", handled-1)
	}
	if n != len(want) || e.Steps != steps+n || events.Value() != counted+uint64(n) {
		t.Errorf("Skip returned %d; Steps +%d, events counter +%d; want %d each",
			n, e.Steps-steps, events.Value()-counted, len(want))
	}
	if e.Now() != 3 {
		t.Errorf("clock %v after Skip, want 3", e.Now())
	}
	if _, ok := e.Next(); ok || len(e.queue) != 0 || e.cancelled != 0 {
		t.Errorf("queue holds %d events (%d cancelled) after Skip", len(e.queue), e.cancelled)
	}
	if len(e.free) != free {
		t.Errorf("Skip recycled %d events", len(e.free)-free)
	}
	if evs[0].Pending() {
		t.Error("a skipped event still reports pending")
	}
	evs[0].Cancel() // a stale handle must not count against the queue
	if e.cancelled != 0 {
		t.Errorf("cancelling a skipped event left %d cancelled in the queue", e.cancelled)
	}
	if n := e.Skip(func(uint16, uint64) { t.Error("Skip of an empty queue called fn") }); n != 0 {
		t.Errorf("Skip of an empty queue returned %d", n)
	}
	if _, err := h.at(e, 3.5, func() { handled++ }); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if handled != 2 || e.Now() != 3.5 || e.Steps != steps+n+1 {
		t.Errorf("event after Skip: handled %d, clock %v, Steps +%d", handled-1, e.Now(), e.Steps-steps)
	}
}

// nop is a handler that does nothing.
type nop struct{}

func (nop) HandleEvent(uint16, uint64) {}

// TestEventsComeFromSlabs: events are cut from slabs that double from
// minSlab to slabEvents. A fresh engine's first event takes a small
// slab; scheduling N events makes at most ⌈N/slabEvents⌉ event
// allocations plus four, as the 16-, 16-, 32-, 64- and 128-event slabs
// take the place of the first full one; and events that have fired
// are reused before a new slab is cut.
func TestEventsComeFromSlabs(t *testing.T) {
	const n = 5*slabEvents + 17
	e := NewEngine()
	e.queue = make([]*Event, 0, n) // count event allocations only
	var before, after runtime.MemStats

	// The first event costs a small slab, so an engine that never holds
	// many events (a small shard's) never pays for a full one. The
	// bound is two minSlab slabs, room for the allocator's size class.
	runtime.ReadMemStats(&before)
	if _, err := e.At(0, nop{}, 0, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, 2*minSlab*uint64(reflect.TypeOf(Event{}).Size()); got > max {
		t.Errorf("a fresh engine's first event allocated %d bytes, want at most %d (two %d-event slabs)", got, max, minSlab)
	}

	runtime.ReadMemStats(&before)
	for i := 1; i < n; i++ {
		if _, err := e.At(float64(i), nop{}, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got, max := after.Mallocs-before.Mallocs, uint64((n+slabEvents-1)/slabEvents+4); got > max {
		t.Errorf("scheduling %d events made %d allocations, want at most %d", n, got, max)
	}

	// Fire the first k, then schedule k more: every new event must be a
	// fired one, and the current slab must stay uncut.
	const k = 40
	fired := map[*Event]bool{}
	for _, ev := range e.queue {
		if ev.Time < k {
			fired[ev] = true
		}
	}
	if _, err := e.RunBefore(k); err != nil {
		t.Fatal(err)
	}
	uncut := len(e.slab)
	for i := 0; i < k; i++ {
		ev, err := e.At(float64(n+i), nop{}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !fired[ev] {
			t.Fatalf("event %d of %d came from a slab while %d fired events were free", i, k, k-i)
		}
		delete(fired, ev)
	}
	if len(e.slab) != uncut {
		t.Errorf("the slab lost %d events while fired ones were free", uncut-len(e.slab))
	}
}
