package jobsched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// pinnedApp clones CoMD restricted to the node range [lo, hi].
func pinnedApp(lo, hi int) *workload.Spec { return pinned(workload.CoMD(), lo, hi) }

// pinned clones app restricted to the node range [lo, hi]; distinct
// names keep the dispatch cache honest about spec identity.
func pinned(app *workload.Spec, lo, hi int) *workload.Spec {
	a := *app
	a.Name = fmt.Sprintf("%s-pin%d-%d", app.Name, lo, hi)
	var ids []int
	for i := lo; i <= hi; i++ {
		ids = append(ids, i)
	}
	a.Constraint = workload.NodeConstraint{AllowedNodes: ids}
	return &a
}

func TestPriorityDispatchOrder(t *testing.T) {
	o := online(t, Config{Bound: 1200})
	if _, err := o.SubmitPri("filler", workload.CoMD(), 0); err != nil {
		t.Fatal(err)
	}
	// Three blocked arrivals with distinct priorities, submitted in
	// inverse priority order.
	for _, j := range []struct {
		id  string
		pri int
	}{{"c0", 0}, {"b1", 1}, {"d2", 2}} {
		if js, err := o.SubmitPri(j.id, workload.CoMD(), j.pri); err != nil || js.State != JobQueued {
			t.Fatalf("%s: state %v err %v", j.id, js.State, err)
		}
	}
	// Queue positions follow priority, not arrival: d2, b1, c0.
	for i, id := range []string{"d2", "b1", "c0"} {
		js, err := o.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if js.QueuePos != i {
			t.Errorf("%s queue_pos = %d, want %d", id, js.QueuePos, i)
		}
	}
	// Freeing the cluster dispatches the highest priority first.
	if _, err := o.Cancel("filler"); err != nil {
		t.Fatal(err)
	}
	js, err := o.Status("d2")
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobRunning {
		t.Fatalf("d2 state = %v after cancel, want running", js.State)
	}
	for _, id := range []string{"b1", "c0"} {
		js, _ := o.Status(id)
		if js.State != JobQueued {
			t.Errorf("%s state = %v, want queued behind d2", id, js.State)
		}
	}
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptionMinimalVictimSet: four low-priority jobs pinned to
// disjoint node pairs, then a high-priority job needing exactly one
// pair. Only the job holding that pair may be evicted.
func TestPreemptionMinimalVictimSet(t *testing.T) {
	o := online(t, Config{Bound: 4000, Policy: AggressiveBackfill, Preempt: true})
	for i := 0; i < 4; i++ {
		js, err := o.SubmitPri(fmt.Sprintf("lo%d", i), pinnedApp(2*i, 2*i+1), 0)
		if err != nil || js.State != JobRunning {
			t.Fatalf("lo%d: state %v err %v", i, js.State, err)
		}
	}
	hi, err := o.SubmitPri("hi", pinnedApp(0, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if hi.State != JobRunning {
		t.Fatalf("hi state = %v, want running via preemption", hi.State)
	}
	if len(hi.Nodes) != 2 || hi.Nodes[0] != 0 || hi.Nodes[1] != 1 {
		t.Fatalf("hi nodes = %v, want [0 1]", hi.Nodes)
	}
	for i := 0; i < 4; i++ {
		js, _ := o.Status(fmt.Sprintf("lo%d", i))
		if i == 0 {
			if js.State != JobQueued || js.Preemptions != 1 {
				t.Errorf("lo0 state=%v preemptions=%d, want queued/1", js.State, js.Preemptions)
			}
		} else if js.State != JobRunning || js.Preemptions != 0 {
			t.Errorf("lo%d state=%v preemptions=%d, want running/0 (not a victim)", i, js.State, js.Preemptions)
		}
	}
	if err := o.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestNoPreemptionOfEqualOrHigherPriority: a job may only evict
// strictly lower priorities; when the plan cannot become feasible that
// way, nothing is evicted at all.
func TestNoPreemptionOfEqualOrHigherPriority(t *testing.T) {
	o := online(t, Config{Bound: 4000, Policy: AggressiveBackfill, Preempt: true})
	if js, err := o.SubmitPri("low", pinnedApp(0, 3), 0); err != nil || js.State != JobRunning {
		t.Fatalf("low: %v %v", js.State, err)
	}
	if js, err := o.SubmitPri("peer", pinnedApp(4, 7), 5); err != nil || js.State != JobRunning {
		t.Fatalf("peer: %v %v", js.State, err)
	}
	// hi needs peer's nodes, but peer (equal priority) can never be a
	// victim, so the plan is infeasible — and the planner must not
	// evict "low" pointlessly.
	js, err := o.SubmitPri("hi", pinnedApp(4, 7), 5)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobQueued {
		t.Fatalf("hi state = %v, want queued (equal-priority peer is not evictable)", js.State)
	}
	for _, id := range []string{"low", "peer"} {
		js, _ := o.Status(id)
		if js.State != JobRunning || js.Preemptions != 0 {
			t.Errorf("%s state=%v preemptions=%d, want running/0", id, js.State, js.Preemptions)
		}
	}
}

// TestPreemptionDisabledByDefault: without Config.Preempt a
// higher-priority job waits like everyone else.
func TestPreemptionDisabledByDefault(t *testing.T) {
	o := online(t, Config{Bound: 1200})
	if _, err := o.SubmitPri("low", workload.CoMD(), 0); err != nil {
		t.Fatal(err)
	}
	js, err := o.SubmitPri("hi", workload.CoMD(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobQueued {
		t.Fatalf("hi state = %v with preemption off, want queued", js.State)
	}
	low, _ := o.Status("low")
	if low.State != JobRunning || low.Preemptions != 0 {
		t.Errorf("low was disturbed: state=%v preemptions=%d", low.State, low.Preemptions)
	}
}

func TestConstraintPlacementAndInfeasibility(t *testing.T) {
	o := online(t, Config{Bound: 4000, Policy: AggressiveBackfill})
	js, err := o.SubmitPri("pinned", pinnedApp(2, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range js.Nodes {
		if n < 2 || n > 5 {
			t.Errorf("node %d outside AllowedNodes [2..5]", n)
		}
	}
	// A constraint no cluster node satisfies fails fast, not forever
	// queued.
	bad := *workload.CoMD()
	bad.Name = "comd-bad"
	bad.Constraint = workload.NodeConstraint{AllowedNodes: []int{99}}
	js, err = o.SubmitPri("nofit", &bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobFailed || !strings.Contains(js.Reason, "constraint") {
		t.Fatalf("nofit state=%v reason=%q, want failed with constraint reason", js.State, js.Reason)
	}
}

func TestPreferNodesRanking(t *testing.T) {
	o := online(t, Config{Bound: 4000, Policy: AggressiveBackfill})
	a := *workload.CoMD()
	a.Name = "comd-pref"
	a.Constraint = workload.NodeConstraint{
		AllowedNodes: []int{0, 1, 6, 7},
		PreferNodes:  []int{7, 6},
	}
	js, err := o.SubmitPri("pref", &a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobRunning {
		t.Fatalf("pref state = %v, want running", js.State)
	}
	if len(js.Nodes) < 2 {
		t.Fatalf("pref nodes = %v, want at least the preferred pair", js.Nodes)
	}
	got := map[int]bool{}
	for _, n := range js.Nodes {
		got[n] = true
	}
	if !got[6] || !got[7] {
		t.Errorf("preferred nodes 6,7 not used: placed on %v", js.Nodes)
	}
}

// TestPreferNodesBeatEfficiency prefers the two least efficient nodes
// of an 8-node σ 0.08 cluster for a job that takes fewer nodes than its
// pool allows: it must run on both, where the same job without a
// preference runs on neither.
func TestPreferNodesBeatEfficiency(t *testing.T) {
	plain := variableSession(t, 8, Config{Bound: 700})
	submitAs(t, plain, "plain", workload.CoMD(), 0, JobRunning)
	cl := plain.st.s.Cluster
	byEff := plan.FirstN(8)
	slices.SortFunc(byEff, func(a, b int) int { return cmp.Compare(cl.Nodes[a].PowerEff, cl.Nodes[b].PowerEff) })
	worst := []int{byEff[7], byEff[6]}
	nodes := statusOf(t, plain, "plain").Nodes
	if len(nodes) < 2 || len(nodes) >= 8 || slices.Contains(nodes, worst[0]) || slices.Contains(nodes, worst[1]) {
		t.Fatalf("plain job runs on %v, least efficient %v: the test shows nothing", nodes, worst)
	}
	a := *workload.CoMD()
	a.Name = "comd-prefer-worst"
	a.Constraint.PreferNodes = worst
	o := variableSession(t, 8, Config{Bound: 700})
	submitAs(t, o, "pref", &a, 0, JobRunning)
	if got := statusOf(t, o, "pref").Nodes; len(got) != len(nodes) ||
		!slices.Contains(got, worst[0]) || !slices.Contains(got, worst[1]) {
		t.Errorf("preferring job runs on %v, want %d nodes holding %v", got, len(nodes), worst)
	}
}

// TestQueuePosDenseAcrossChurn: queue positions stay dense, 0-based and
// gap-free through cancel tombstones, evacuation and preemption
// re-enqueues — the accounting the status endpoint surfaces.
func TestQueuePosDenseAcrossChurn(t *testing.T) {
	o := online(t, Config{Bound: 1200, Policy: AggressiveBackfill, Preempt: true})
	if _, err := o.SubmitPri("filler", workload.CoMD(), 0); err != nil {
		t.Fatal(err)
	}
	queued := []string{"q0", "q1", "q2", "q3", "q4"}
	for _, id := range queued {
		if _, err := o.SubmitPri(id, workload.CoMD(), 0); err != nil {
			t.Fatal(err)
		}
	}
	checkDense := func(ids []string) {
		t.Helper()
		seen := make([]string, len(ids))
		for _, id := range ids {
			js, err := o.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if js.State != JobQueued {
				t.Fatalf("%s state = %v, want queued", id, js.State)
			}
			if js.QueuePos < 0 || js.QueuePos >= len(ids) {
				t.Fatalf("%s queue_pos %d out of [0,%d)", id, js.QueuePos, len(ids))
			}
			if seen[js.QueuePos] != "" {
				t.Fatalf("queue_pos %d claimed by both %s and %s", js.QueuePos, seen[js.QueuePos], id)
			}
			seen[js.QueuePos] = id
		}
	}
	checkDense(queued)
	// Cancel the middle entry: tombstone must not leave a gap.
	if _, err := o.Cancel("q2"); err != nil {
		t.Fatal(err)
	}
	checkDense([]string{"q0", "q1", "q3", "q4"})
	// A preemption re-enqueue lands at the tail of its priority band.
	if js, err := o.SubmitPri("hi", workload.CoMD(), 3); err != nil || js.State != JobRunning {
		t.Fatalf("hi: %v %v", js.State, err)
	}
	fill, _ := o.Status("filler")
	if fill.State != JobQueued || fill.Preemptions != 1 {
		t.Fatalf("filler state=%v preemptions=%d, want queued/1", fill.State, fill.Preemptions)
	}
	checkDense([]string{"q0", "q1", "q3", "q4", "filler"})
	// Evacuation empties the queue in one sweep.
	evacuated := o.EvacuateQueued(nil)
	if len(evacuated) != 5 {
		t.Fatalf("evacuated %d jobs, want 5", len(evacuated))
	}
	if o.QueueLen() != 0 {
		t.Fatalf("queue len %d after evacuation, want 0", o.QueueLen())
	}
}

// TestPriorityPropertyRandomTrace drives 1000 seeded random events
// (mixed-priority submits, cancels, bound swings, time advances)
// through the online driver and checks the safety properties after
// every event: the scheduler's internal inversion/Σ-bound audits stay
// green, preempted jobs are re-enqueued exactly once per eviction, and
// no job is ever lost.
func TestPriorityPropertyRandomTrace(t *testing.T) {
	preempted := telemetry.Default.Counter("clip_jobs_preempted_total", "")
	for _, seed := range []uint64{3, 17, 101} {
		before := preempted.Value()
		o := online(t, Config{Bound: 3000, Policy: AggressiveBackfill, Reallocate: true, Preempt: true})
		r := rng.New(seed)
		apps := []*workload.Spec{workload.CoMD(), pinnedApp(0, 3), pinnedApp(4, 7)}
		var ids []string
		evictions := 0
		lastPre := map[string]int{}
		next := 0
		for ev := 0; ev < 1000; ev++ {
			switch op := r.Intn(10); {
			case op < 5: // submit, mixed priorities
				id := fmt.Sprintf("s%d-j%04d", seed, next)
				next++
				pri := r.Intn(4) - 1
				if _, err := o.SubmitPri(id, apps[r.Intn(len(apps))], pri); err != nil {
					t.Fatalf("seed %d ev %d submit: %v", seed, ev, err)
				}
				ids = append(ids, id)
			case op < 6: // cancel a random known job
				if len(ids) > 0 {
					id := ids[r.Intn(len(ids))]
					if js, err := o.Status(id); err == nil && js.State != JobCancelled {
						_, _ = o.Cancel(id)
					}
				}
			case op < 7: // bound swing
				if err := o.SetBound(1500 + 2500*r.Float64()); err != nil {
					t.Fatalf("seed %d ev %d setbound: %v", seed, ev, err)
				}
			default: // advance virtual time
				if err := o.Advance(o.Now() + 20*r.Float64()); err != nil {
					t.Fatalf("seed %d ev %d advance: %v", seed, ev, err)
				}
			}
			if err := o.Err(); err != nil {
				t.Fatalf("seed %d: invariant audit failed at event %d: %v", seed, ev, err)
			}
			// Preemption counters only ever step up, one re-enqueue per
			// eviction.
			for _, id := range ids {
				js, err := o.Status(id)
				if err != nil {
					t.Fatal(err)
				}
				if js.Preemptions < lastPre[id] {
					t.Fatalf("seed %d: %s preemptions went backwards %d→%d", seed, id, lastPre[id], js.Preemptions)
				}
				if js.Preemptions > lastPre[id] {
					if js.State != JobQueued && js.State != JobRunning && js.State != JobCompleted {
						t.Fatalf("seed %d: preempted %s in state %v, never re-enqueued", seed, id, js.State)
					}
					evictions += js.Preemptions - lastPre[id]
					lastPre[id] = js.Preemptions
				}
			}
		}
		if err := o.Drain(); err != nil {
			t.Fatalf("seed %d drain: %v", seed, err)
		}
		// No lost jobs: every submission reached a terminal state.
		terminal := 0
		preSum := 0
		for _, id := range ids {
			js, err := o.Status(id)
			if err != nil {
				t.Fatalf("seed %d: job %s lost: %v", seed, id, err)
			}
			switch js.State {
			case JobCompleted, JobCancelled, JobFailed:
				terminal++
			default:
				t.Fatalf("seed %d: %s non-terminal after drain: %v", seed, id, js.State)
			}
			preSum += js.Preemptions
		}
		if terminal != len(ids) {
			t.Fatalf("seed %d: %d/%d jobs terminal", seed, terminal, len(ids))
		}
		if preSum != evictions {
			t.Fatalf("seed %d: eviction ledger mismatch: observed %d step-ups, final sum %d", seed, evictions, preSum)
		}
		if n := preempted.Value() - before; n != uint64(o.st.stats.Preemptions) || int(n) != preSum {
			t.Fatalf("seed %d: clip_jobs_preempted_total rose %d; the run reports %d evictions, the jobs %d",
				seed, n, o.st.stats.Preemptions, preSum)
		}
		if evictions == 0 && seed == 3 {
			t.Log("seed 3 produced no evictions; property run degenerate")
		}
		cs := o.Cluster()
		if cs.AllocW > cs.BoundW+1e-6 {
			t.Fatalf("seed %d: allocation %f exceeds bound %f after drain", seed, cs.AllocW, cs.BoundW)
		}
	}
}

// referenceOrder is the reference dispatch order the bucketed queue must
// reproduce: the queued ids in enqueue order, stable-insertion-sorted by
// priority descending, so jobs of one priority keep their FIFO order.
func referenceOrder(queue []string, pri map[string]int) []string {
	order := append([]string(nil), queue...)
	for i := 1; i < len(order); i++ {
		v := order[i]
		p := pri[v]
		j := i - 1
		for j >= 0 && pri[order[j]] < p {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
	return order
}

// queueModel rebuilds the physical (enqueue-order) queue from what a
// caller can observe — its own submissions and the preempt and requeue
// entries of the fault log — without reading the scheduler's queue.
type queueModel struct {
	o       *Online
	ids     []string // queued jobs, enqueue order
	pri     map[string]int
	logSeen int
}

// step folds one driver call into the model. Jobs enqueued during the
// call (the submitted job first, then every preempt or requeue entry in
// log order) move to the tail at their last enqueue; of the rest, the
// jobs for which keep is false drop out in place.
func (m *queueModel) step(submitted string, keep func(id string) bool) []string {
	var enq []string
	if submitted != "" {
		enq = append(enq, submitted)
	}
	log := m.o.st.stats.FaultLog
	for _, fe := range log[m.logSeen:] {
		if fe.Kind == "preempt" || fe.Kind == "requeue" {
			enq = append(enq, fe.Job)
		}
	}
	m.logSeen = len(log)
	last := make(map[string]int, len(enq))
	for i, id := range enq {
		last[id] = i
	}
	var next []string
	for _, id := range m.ids {
		if _, moved := last[id]; !moved && keep(id) {
			next = append(next, id)
		}
	}
	for i, id := range enq {
		if last[id] == i && keep(id) {
			next = append(next, id)
		}
	}
	return next
}

// queued reports whether the driver currently has id queued.
func (m *queueModel) queued(id string) bool {
	js, err := m.o.Status(id)
	return err == nil && js.State == JobQueued
}

// check asserts the scheduler against the oracle: its dispatch order
// (the priority-level walk dispatchPass performs), every Status and
// Jobs() queue position, and the queue length.
func (m *queueModel) check(t *testing.T, tag string) {
	t.Helper()
	want := referenceOrder(m.ids, m.pri)
	var got []string
	for li := range m.o.st.levels {
		l := &m.o.st.levels[li]
		for qi := l.head; qi < len(l.q); qi++ {
			if !l.q[qi].started {
				got = append(got, m.o.st.ids[l.q[qi].rec])
			}
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("%s: dispatch order\n got %v\nwant %v", tag, got, want)
	}
	if n := m.o.QueueLen(); n != len(want) {
		t.Fatalf("%s: QueueLen %d, oracle %d", tag, n, len(want))
	}
	pos := make(map[string]int, len(want))
	for i, id := range want {
		pos[id] = i
		js, err := m.o.Status(id)
		if err != nil || js.State != JobQueued || js.QueuePos != i {
			t.Fatalf("%s: %s status %v pos %d err %v, oracle pos %d", tag, id, js.State, js.QueuePos, err, i)
		}
	}
	listed := 0
	for _, js := range m.o.Jobs() {
		if js.State != JobQueued {
			continue
		}
		listed++
		if p, ok := pos[js.ID]; !ok || js.QueuePos != p {
			t.Fatalf("%s: Jobs() lists %s at %d, oracle %d (known %v)", tag, js.ID, js.QueuePos, p, ok)
		}
	}
	if listed != len(want) {
		t.Fatalf("%s: Jobs() lists %d queued, oracle %d", tag, listed, len(want))
	}
}

// TestQueueMatchesReferenceOrder drives seeded random traces —
// mixed priorities, cancels, preemption re-enqueues, fault requeues,
// bound swings, evacuations, and enough churn that dead queue prefixes
// get compacted — and checks after every step that dispatch order,
// queue positions, evacuation order and drain-failure order all match
// the insertion-sort oracle over an independently tracked queue.
func TestQueueMatchesReferenceOrder(t *testing.T) {
	cfgs := []Config{
		{Bound: 2400, Policy: AggressiveBackfill, Reallocate: true, Preempt: true,
			Faults: &faults.Scenario{Seed: 5, CrashMTBF: 1500, MTTR: 30}},
		{Bound: 2400, Policy: Backfill, Preempt: true,
			Faults: &faults.Scenario{Seed: 6, CrashMTBF: 1500, MTTR: 30}},
		{Bound: 1800, Policy: FCFS, Preempt: true},
	}
	apps := []*workload.Spec{workload.CoMD(), workload.LUMZ(), pinnedApp(0, 3), pinnedApp(4, 7)}
	pris := []int{-1, 0, 0, 0, 3, 7}
	var preempts, requeues, evacs, compactions int
	for ci, cfg := range cfgs {
		for _, seed := range []uint64{1, 2} {
			tag := fmt.Sprintf("cfg %d seed %d", ci, seed)
			o := online(t, cfg)
			m := &queueModel{o: o, pri: map[string]int{}}
			r := rng.New(seed)
			var known []string
			for ev := 0; ev < 1000; ev++ {
				lens := map[int]int{}
				for _, l := range o.st.levels {
					lens[l.pri] = len(l.q)
				}
				submitted := ""
				switch op := r.Intn(200); {
				case op < 90:
					submitted = fmt.Sprintf("j%04d", ev)
					pri := pris[r.Intn(len(pris))]
					m.pri[submitted] = pri
					if _, err := o.SubmitPri(submitted, apps[r.Intn(len(apps))], pri); err != nil {
						t.Fatalf("%s ev %d submit: %v", tag, ev, err)
					}
					known = append(known, submitted)
				case op < 120:
					if len(known) > 0 {
						id := known[r.Intn(len(known))]
						if js, err := o.Status(id); err == nil && !js.State.Terminal() {
							if _, err := o.Cancel(id); err != nil {
								t.Fatalf("%s ev %d cancel %s: %v", tag, ev, id, err)
							}
						}
					}
				case op < 130:
					if err := o.SetBound(1200 + 2400*r.Float64()); err != nil {
						t.Fatalf("%s ev %d setbound: %v", tag, ev, err)
					}
				case op < 131:
					var got []string
					for _, j := range o.EvacuateQueued(nil) {
						got = append(got, j.ID)
					}
					if strings.Join(got, " ") != strings.Join(m.ids, " ") {
						t.Fatalf("%s ev %d: evacuation order\n got %v\nwant %v", tag, ev, got, m.ids)
					}
					evacs++
				default:
					if err := o.Advance(o.Now() + 25*r.Float64()); err != nil {
						t.Fatalf("%s ev %d advance: %v", tag, ev, err)
					}
				}
				if err := o.Err(); err != nil {
					t.Fatalf("%s ev %d: %v", tag, ev, err)
				}
				for _, fe := range o.st.stats.FaultLog[m.logSeen:] {
					switch fe.Kind {
					case "preempt":
						preempts++
					case "requeue":
						requeues++
					}
				}
				m.ids = m.step(submitted, m.queued)
				m.check(t, fmt.Sprintf("%s ev %d", tag, ev))
				for _, l := range o.st.levels {
					if n, ok := lens[l.pri]; ok && len(l.q) < n && l.live > 0 {
						compactions++
					}
				}
			}
			// Nothing can start at 2 W, so Drain fails the remaining
			// queue — in enqueue order, after the requeues and
			// preemptions the drain itself performs.
			if err := o.SetBound(2); err != nil {
				t.Fatal(err)
			}
			m.ids = m.step("", m.queued)
			m.check(t, tag+" bound 2")
			logStart := len(o.st.stats.FaultLog)
			if err := o.Drain(); err != nil {
				t.Fatalf("%s drain: %v", tag, err)
			}
			drained := map[string]bool{}
			var failed []string
			for _, fe := range o.st.stats.FaultLog[logStart:] {
				if fe.Kind == "fail" && strings.HasPrefix(fe.Detail, "daemon drained") {
					drained[fe.Job] = true
					failed = append(failed, fe.Job)
				}
			}
			want := m.step("", func(id string) bool { return drained[id] })
			if strings.Join(failed, " ") != strings.Join(want, " ") {
				t.Fatalf("%s: drain failure order\n got %v\nwant %v", tag, failed, want)
			}
			if len(failed) == 0 {
				t.Errorf("%s: drain failed no queued job; the check tested nothing", tag)
			}
		}
	}
	t.Logf("%d preemptions, %d requeues, %d evacuations, %d compactions", preempts, requeues, evacs, compactions)
	if preempts == 0 || requeues == 0 || evacs == 0 || compactions == 0 {
		t.Fatal("degenerate traces: every queue path must be exercised")
	}
}

// TestJobsQueuePosMatchesStatus: the listing computes every queue
// position in one walk; each must equal the per-job Status answer on a
// churned mixed-priority queue.
func TestJobsQueuePosMatchesStatus(t *testing.T) {
	o := online(t, Config{Bound: 1200, Policy: AggressiveBackfill, Preempt: true})
	r := rng.New(4)
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("q%03d", i)
		if _, err := o.SubmitPri(id, workload.CoMD(), []int{0, 0, 2, 5}[r.Intn(4)]); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := o.Cancel(fmt.Sprintf("q%03d", r.Intn(i))); err != nil && !errors.Is(err, ErrJobTerminal) {
				t.Fatal(err)
			}
		}
		if i%50 == 49 {
			if err := o.Advance(o.Now() + 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	queued := 0
	for _, js := range o.Jobs() {
		st, err := o.Status(js.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.QueuePos != st.QueuePos || js.State != st.State {
			t.Fatalf("%s: Jobs() says %v at %d, Status says %v at %d", js.ID, js.State, js.QueuePos, st.State, st.QueuePos)
		}
		if js.State == JobQueued {
			queued++
		}
	}
	if queued < 100 {
		t.Fatalf("only %d jobs queued; the queue was not churned deep", queued)
	}
}
