package jobsched

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/coordinator"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/plan"
	"repro/internal/recommend"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// prefixVictims is the test's own answer to submitting app at priority
// pri to o now, computed without the scheduler's planner, scratch or
// memo. It returns the ids the scheduler must evict, in eviction
// order: none when the job starts as it is, otherwise the shortest
// prefix of the strictly-lower-priority running jobs, ordered by
// (priority, watts, id), after whose eviction a fresh coordinator
// places the job on the freed nodes and watts within the constraint
// filter and the CapOK gate. ok is false when no prefix suffices. lower
// is the number of strictly-lower-priority running jobs.
func prefixVictims(t *testing.T, o *Online, app *workload.Spec, pri int) (victims []string, ok bool, lower int) {
	t.Helper()
	st := o.st
	cl := st.s.Cluster
	type cand struct {
		id    string
		pri   int
		watts float64
		nodes []int
	}
	var cands []cand
	busy := make([]bool, len(cl.Nodes))
	running := 0
	for _, rj := range st.slots {
		if !rj.live {
			continue
		}
		running++
		for _, g := range rj.nodeIDs {
			busy[g] = true
		}
		if p := st.recs[rj.rec].pri; p < pri {
			cands = append(cands, cand{st.ids[rj.rec], p, rj.powerUsed, rj.nodeIDs})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.pri != b.pri {
			return a.pri < b.pri
		}
		if a.watts != b.watts {
			return a.watts < b.watts
		}
		return a.id < b.id
	})
	adv, err := st.s.CLIP.Advisor(app)
	if err != nil {
		t.Fatal(err)
	}
	grid := recommend.NewGrid(cl.Spec(), adv.Profile(), adv.Predictor()) // searched afresh, no shared answers
	if len(app.Constraint.PreferNodes) > 0 {
		t.Fatalf("%s prefers nodes; the reference does not rank", app.Name)
	}
	watts := o.FreeWatts()
	var pool []int
	for id, b := range busy {
		if !b {
			pool = append(pool, id)
		}
	}
	for k := 0; k <= len(cands); k++ {
		if k > 0 {
			watts += cands[k-1].watts
			pool = append(pool, cands[k-1].nodes...)
		}
		sub := &hw.Cluster{LinkBW: cl.LinkBW, CommBaseLatency: cl.CommBaseLatency}
		ids := append([]int(nil), pool...)
		sort.Ints(ids)
		for _, id := range ids {
			if n := cl.Nodes[id]; app.Constraint.Allows(id, n.PowerEff) {
				sub.Nodes = append(sub.Nodes, &hw.Node{ID: len(sub.Nodes), Spec: n.Spec, PowerEff: n.PowerEff})
			}
		}
		if watts <= 0 || len(sub.Nodes) == 0 {
			continue
		}
		co := coordinator.Coordinator{Cluster: sub}
		var sc coordinator.Scratch
		var pl coordinator.Placement
		err := co.Place(app, grid, plan.FirstN(len(sub.Nodes)), watts, &sc, &pl)
		if err != nil || !pl.NodeCfg.CapOK && running-k > 0 {
			continue
		}
		for _, c := range cands[:k] {
			victims = append(victims, c.id)
		}
		return victims, true, len(cands)
	}
	return nil, false, len(cands)
}

// TestPreemptionMatchesPrefixSearch drives small seeded traces with
// preemption on and checks every submission against prefixVictims:
// the scheduler must evict exactly the reference prefix, and the job
// must run exactly when the reference places it. Queued jobs are
// cancelled before each submission, so the submitted job is the only
// one that can preempt; any eviction outside a checked submission
// fails the test.
func TestPreemptionMatchesPrefixSearch(t *testing.T) {
	apps := []*workload.Spec{
		workload.CoMD(), workload.LUMZ(), workload.TeaLeaf(),
		pinnedApp(0, 1), pinnedApp(2, 3), pinnedApp(0, 3), pinnedApp(4, 7), pinnedApp(2, 5),
	}
	checked, evictions, busy := 0, 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		o := online(t, Config{Bound: 1500 + 2500*r.Float64(), Preempt: true})
		logged := 0
		preempts := func(from int) []string {
			var ids []string
			for _, fe := range o.st.stats.FaultLog[from:] {
				if fe.Kind == "preempt" {
					ids = append(ids, fe.Job)
				}
			}
			return ids
		}
		for i := 0; i < 16; i++ {
			for _, js := range o.Jobs() {
				if js.State == JobQueued {
					if _, err := o.Cancel(js.ID); err != nil {
						t.Fatal(err)
					}
				}
			}
			if r.Intn(3) == 0 {
				if err := o.Advance(o.Now() + 40*r.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			if got := preempts(logged); len(got) > 0 {
				t.Fatalf("seed %d: %v evicted outside a checked submission", seed, got)
			}
			app, pri := apps[r.Intn(len(apps))], r.Intn(4)
			want, ok, lower := prefixVictims(t, o, app, pri)
			logged = len(o.st.stats.FaultLog)
			id := fmt.Sprintf("s%d-%d", seed, i)
			js, err := o.SubmitPri(id, app, pri)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Err(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			got := preempts(logged)
			for _, fe := range o.st.stats.FaultLog[logged:] {
				if fe.Kind == "preempt" && !strings.HasSuffix(fe.Detail, " "+id) {
					t.Fatalf("seed %d: %s evicted for another job: %s", seed, fe.Job, fe.Detail)
				}
			}
			logged = len(o.st.stats.FaultLog)
			if !reflect.DeepEqual(got, want) || (js.State == JobRunning) != ok {
				t.Fatalf("seed %d: %s (%s, priority %d): evicted %v and state %v; reference evicts %v, places %v",
					seed, id, app.Name, pri, got, js.State, want, ok)
			}
			checked++
			if len(want) > 0 {
				evictions++
				if lower >= 2 && lower <= 6 {
					busy++
				}
			}
		}
	}
	t.Logf("%d submissions checked, %d preempted, %d of them with 2-6 lower-priority jobs running", checked, evictions, busy)
	if busy < 10 {
		t.Errorf("only %d preemptions with 2-6 lower-priority jobs running; the traces are too thin", busy)
	}
}

// submitAs submits id and requires it to end up in state want.
func submitAs(t *testing.T, o *Online, id string, app *workload.Spec, pri int, want JobState) {
	t.Helper()
	if js, err := o.SubmitPri(id, app, pri); err != nil || js.State != want {
		t.Fatalf("%s is %v (%v), want %v", id, js.State, err, want)
	}
}

// TestPreemptionPlanPublishesNothing plans the eviction of the job
// filling an 8-node σ 0.08 cluster for one that needs its nodes: the
// plan's probes coordinate budgets, and none of them may count a
// schedule or a rebalance or append an event.
func TestPreemptionPlanPublishesNothing(t *testing.T) {
	o := variableSession(t, 8, Config{Bound: 1500, Preempt: true})
	submitAs(t, o, "lo", workload.CoMD(), 0, JobRunning)
	st := o.st
	var victims []*runningJob
	for _, rj := range st.slots {
		if rj.live {
			victims = append(victims, rj)
		}
	}
	published := func() [3]uint64 {
		c := telemetry.Default.Snapshot().Counters
		return [3]uint64{c["clip_coordinator_schedules_total"], c["clip_coordinator_rebalances_total"],
			telemetry.Default.Events().Total()}
	}
	before := published()
	k := st.planPreemption(workload.CoMD(), victims)
	if k == 0 || !st.prePl.Coordinated {
		t.Fatalf("plan evicts %d jobs, coordinated %v: the test shows nothing", k, st.prePl.Coordinated)
	}
	if after := published(); after != before {
		t.Errorf("planning moved (schedules, rebalances, events) from %v to %v", before, after)
	}
}

// failedPlanSession builds a preemptive session of cfg with build,
// which must leave the high-priority h queued behind a preemption plan
// that failed, and requires a reconcile with nothing changed to be
// answered at the failed-plan stamp.
func failedPlanSession(t *testing.T, cfg Config, build func(o *Online)) *Online {
	t.Helper()
	cfg.Bound, cfg.Preempt = 4000, true
	o := online(t, cfg)
	build(o)
	stamped := o.st.stamped
	if err := o.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if js, _ := o.Status("h"); js.State != JobQueued || o.st.stamped != stamped+1 {
		t.Fatalf("h is %v and a reconcile with nothing changed made %d stamp answers, want queued and 1",
			js.State, o.st.stamped-stamped)
	}
	return o
}

// TestFailedPlanStampSeesFreeSet returns node 7 to the free set while
// the free watts stay put: an idle node's excursion ends (its reserve
// is zero), or a quarantined node recovers. Until then h, pinned to
// node 7, cannot gain a node by evicting l, and a bound cut leaves no
// free watt. The plan that failed now succeeds: h evicts l for l's
// watts and starts on node 7. A stamp without the free-set version
// leaves h queued.
func TestFailedPlanStampSeesFreeSet(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sc    faults.Scenario
		leave func(st *schedState)
	}{
		{"excursion-end", faults.Scenario{Seed: 1, ExcursionMTBF: 1e9}, func(st *schedState) {
			st.nodes[7].excFrac, st.nodes[7].excDur = 0.3, 5
			st.excursionStart(7)
		}},
		{"recover", faults.Scenario{Seed: 1, CrashMTBF: 1e9, MTTR: 5}, func(st *schedState) {
			st.nodeCrash(7)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := failedPlanSession(t, Config{Faults: &tc.sc}, func(o *Online) {
				tc.leave(o.st)
				submitAs(t, o, "l", pinnedApp(0, 3), 0, JobRunning)
				if err := o.SetBound(o.Bound() - o.FreeWatts()); err != nil {
					t.Fatal(err)
				}
				submitAs(t, o, "h", pinnedApp(7, 7), 5, JobQueued)
			})
			for !o.st.placeable(7) {
				if err := o.ProcessNextEvent(); err != nil {
					t.Fatal(err)
				}
			}
			if js, _ := o.Status("h"); js.State != JobRunning {
				t.Errorf("h is %v at t=%g after node 7 rejoined the free set, want running", js.State, o.Now())
			}
			if js, _ := o.Status("l"); js.Preemptions != 1 {
				t.Errorf("l was evicted %d times, want once", js.Preemptions)
			}
		})
	}
}

// TestFailedPlanStampSeesFreeWatts sheds l, the only victim, far below
// what h needs on l's nodes while a, of h's priority, keeps running, so
// h's plan fails. A bound raise then adds free watts and nothing else:
// h evicts l and starts. A stamp without the free watts leaves h
// queued.
func TestFailedPlanStampSeesFreeWatts(t *testing.T) {
	o := failedPlanSession(t, Config{}, func(o *Online) {
		submitAs(t, o, "a", pinnedApp(4, 7), 5, JobRunning)
		submitAs(t, o, "l", pinnedApp(0, 3), 0, JobRunning)
		if err := o.SetBound(0.05 * (o.Bound() - o.FreeWatts())); err != nil {
			t.Fatal(err)
		}
		submitAs(t, o, "h", pinned(workload.SPMZ(), 0, 3), 5, JobQueued)
	})
	freeVer, epoch := o.st.freeVer, o.st.shadowEpoch
	if err := o.SetBound(o.Bound() + 600); err != nil {
		t.Fatal(err)
	}
	if js, _ := o.Status("h"); js.State != JobRunning {
		t.Errorf("h is %v after the bound rose, want running", js.State)
	}
	if js, _ := o.Status("l"); js.Preemptions != 1 {
		t.Errorf("l was evicted %d times, want once", js.Preemptions)
	}
	if o.st.freeVer != freeVer+2 || o.st.shadowEpoch != epoch+2 {
		t.Errorf("free-set version +%d, shadow epoch +%d: want +2 each, l's eviction and h's start alone",
			o.st.freeVer-freeVer, o.st.shadowEpoch-epoch)
	}
}

// TestFailedPlanStampSeesRecap holds node 7 with a, of h's priority,
// and re-caps the one-node victim l with an excursion on its node: l's
// watts go to the excursion's reserve, so neither the free set nor the
// free watts move, but the plan's input did. The next preemption pass
// must replan, not answer at the stamp.
func TestFailedPlanStampSeesRecap(t *testing.T) {
	o := failedPlanSession(t, Config{Faults: &faults.Scenario{Seed: 1, ExcursionMTBF: 1e9}}, func(o *Online) {
		submitAs(t, o, "a", pinnedApp(7, 7), 5, JobRunning)
		submitAs(t, o, "l", pinnedApp(0, 0), 0, JobRunning)
		if err := o.SetBound(o.Bound() - o.FreeWatts()); err != nil {
			t.Fatal(err)
		}
		submitAs(t, o, "h", pinnedApp(7, 7), 5, JobQueued)
	})
	st := o.st
	freeVer, freeW, watts := st.freeVer, st.freeW, st.slots[record(st, "l").run].powerUsed
	stamped := st.stamped
	st.nodes[0].excFrac, st.nodes[0].excDur = 0.3, 5
	st.excursionStart(0)
	if st.freeVer != freeVer || st.freeW != freeW {
		t.Fatalf("the re-cap moved the free set (version %d→%d) or the free watts (%v→%v)",
			freeVer, st.freeVer, freeW, st.freeW)
	}
	if rec := record(st, "l"); rec.run == noSlot || st.slots[rec.run].powerUsed >= watts {
		t.Fatalf("l was not re-capped")
	}
	if st.stamped != stamped {
		t.Errorf("the preemption pass after l's re-cap was answered at the stamp")
	}
}
