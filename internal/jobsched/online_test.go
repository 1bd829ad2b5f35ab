package jobsched

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func online(t *testing.T, cfg Config) *Online {
	t.Helper()
	o, err := sched(t, cfg).Online()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOnlineSubmitRunsToCompletion(t *testing.T) {
	o := online(t, Config{Bound: 2000})
	js, err := o.SubmitPri("j1", workload.CoMD(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobRunning {
		t.Fatalf("state after submit = %v, want running", js.State)
	}
	if len(js.Nodes) == 0 || js.PerNodeW <= 0 || js.EstFinish <= 0 {
		t.Errorf("placement not reported: %+v", js)
	}
	if err := o.Advance(js.EstFinish); err != nil {
		t.Fatal(err)
	}
	js, err = o.Status("j1")
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobCompleted {
		t.Fatalf("state after advance = %v, want completed", js.State)
	}
	if js.Finish <= 0 || js.Finish > o.Now()+1e-9 {
		t.Errorf("finish %v out of range (now %v)", js.Finish, o.Now())
	}
	if o.Pending() != 0 {
		t.Errorf("pending = %d after completion", o.Pending())
	}
}

func TestOnlineSubmitValidation(t *testing.T) {
	o := online(t, Config{Bound: 2000})
	if _, err := o.SubmitPri("", workload.CoMD(), 0); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := o.SubmitPri("x", nil, 0); err == nil {
		t.Error("nil app accepted")
	}
	if _, err := o.SubmitPri("dup", workload.CoMD(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.SubmitPri("dup", workload.CoMD(), 0); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := o.Status("nope"); err == nil {
		t.Error("unknown job status did not error")
	}
	if _, err := o.Cancel("nope"); err == nil {
		t.Error("unknown job cancel did not error")
	}
}

func TestOnlineQueueingAndPositions(t *testing.T) {
	// A bound only big enough for one job at a time: later submissions
	// must queue in order.
	o := online(t, Config{Bound: 320})
	first, err := o.SubmitPri("a", workload.CoMD(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != JobRunning {
		t.Fatalf("first job %v, want running", first.State)
	}
	for i, id := range []string{"b", "c"} {
		js, err := o.SubmitPri(id, workload.CoMD(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if js.State != JobQueued {
			t.Fatalf("job %s state %v, want queued", id, js.State)
		}
		if js.QueuePos != i {
			t.Errorf("job %s queue position %d, want %d", id, js.QueuePos, i)
		}
	}
	cs := o.Cluster()
	if cs.Queued != 2 || cs.Running != 1 {
		t.Errorf("cluster queued=%d running=%d, want 2/1", cs.Queued, cs.Running)
	}
	// Draining completes all three in queue order.
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		js, err := o.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if js.State != JobCompleted {
			t.Errorf("job %s after drain: %v, want completed", id, js.State)
		}
	}
}

func TestOnlineCancelQueued(t *testing.T) {
	o := online(t, Config{Bound: 320})
	if _, err := o.SubmitPri("a", workload.CoMD(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.SubmitPri("b", workload.CoMD(), 0); err != nil {
		t.Fatal(err)
	}
	w, err := o.Cancel("b")
	if err != nil {
		t.Fatal(err)
	}
	if w != 0 {
		t.Errorf("queued cancel reclaimed %v W, want 0", w)
	}
	js, _ := o.Status("b")
	if js.State != JobCancelled {
		t.Fatalf("state %v, want cancelled", js.State)
	}
	if _, err := o.Cancel("b"); err == nil {
		t.Error("double cancel accepted")
	}
	if cs := o.Cluster(); cs.Queued != 0 {
		t.Errorf("queued = %d after cancel", cs.Queued)
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineCancelRunningReclaimsPowerAndStartsQueued(t *testing.T) {
	o := online(t, Config{Bound: 320})
	a, err := o.SubmitPri("a", workload.CoMD(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.SubmitPri("b", workload.CoMD(), 0); err != nil {
		t.Fatal(err)
	}
	before := o.Cluster()
	w, err := o.Cancel("a")
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 {
		t.Fatalf("running cancel reclaimed %v W, want > 0", w)
	}
	wantW := a.PerNodeW * float64(len(a.Nodes))
	if math.Abs(w-wantW) > 1e-6 {
		t.Errorf("reclaimed %v W, want %v (per-node × nodes)", w, wantW)
	}
	js, _ := o.Status("a")
	if js.State != JobCancelled || js.ReclaimedW != w {
		t.Errorf("cancelled status %+v, want reclaimed %v", js, w)
	}
	// The freed power must have started the queued job immediately.
	js, _ = o.Status("b")
	if js.State != JobRunning {
		t.Errorf("queued job after cancel: %v, want running", js.State)
	}
	after := o.Cluster()
	if after.AllocW+after.ReservedW > after.BoundW+1e-6 {
		t.Errorf("bound invariant violated after cancel: %+v", after)
	}
	if before.Running != 1 || after.Running != 1 {
		t.Errorf("running count before/after = %d/%d, want 1/1", before.Running, after.Running)
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineAdvanceAndNext(t *testing.T) {
	o := online(t, Config{Bound: 2000})
	if _, ok := o.Next(); ok {
		t.Error("fresh session has a pending event")
	}
	js, err := o.SubmitPri("a", workload.CoMD(), 0)
	if err != nil {
		t.Fatal(err)
	}
	nt, ok := o.Next()
	if !ok || math.Abs(nt-js.EstFinish) > 1e-9 {
		t.Fatalf("Next = %v,%v, want completion at %v", nt, ok, js.EstFinish)
	}
	// Advancing short of the completion leaves the job running.
	if err := o.Advance(nt / 2); err != nil {
		t.Fatal(err)
	}
	if got, _ := o.Status("a"); got.State != JobRunning {
		t.Fatalf("state mid-run %v, want running", got.State)
	}
	if o.Now() != nt/2 {
		t.Errorf("Now = %v, want %v", o.Now(), nt/2)
	}
	if err := o.Advance(nt); err != nil {
		t.Fatal(err)
	}
	if got, _ := o.Status("a"); got.State != JobCompleted {
		t.Errorf("state at completion time %v, want completed", got.State)
	}
}

func TestOnlineClusterSnapshot(t *testing.T) {
	o := online(t, Config{Bound: 2000})
	cs := o.Cluster()
	if cs.BoundW != 2000 || cs.FreeW != 2000 || cs.AllocW != 0 {
		t.Errorf("fresh cluster %+v", cs)
	}
	if len(cs.Nodes) != len(testCl.Nodes) {
		t.Fatalf("nodes %d, want %d", len(cs.Nodes), len(testCl.Nodes))
	}
	for _, n := range cs.Nodes {
		if n.Health != "healthy" || n.Job != "" || n.Derated {
			t.Errorf("fresh node %+v", n)
		}
	}
	js, err := o.SubmitPri("a", workload.CoMD(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cs = o.Cluster()
	if math.Abs(cs.BoundW-(cs.FreeW+cs.AllocW+cs.ReservedW)) > 1e-6 {
		t.Errorf("power decomposition does not add up: %+v", cs)
	}
	occupied := 0
	for _, n := range cs.Nodes {
		if n.Job == "a" {
			occupied++
		}
	}
	if occupied != len(js.Nodes) {
		t.Errorf("%d nodes report job a, placement has %d", occupied, len(js.Nodes))
	}
}

func TestOnlineDrainFailsUnstartableQueued(t *testing.T) {
	// Bound so low nothing can ever start: drain must fail the queued
	// job rather than hang or leave it pending.
	o := online(t, Config{Bound: 2})
	js, err := o.SubmitPri("a", workload.CoMD(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != JobQueued {
		t.Fatalf("state %v, want queued (bound too low to start)", js.State)
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	js, _ = o.Status("a")
	if js.State != JobFailed {
		t.Fatalf("state after drain %v, want failed", js.State)
	}
	if !strings.Contains(js.Reason, "drained") {
		t.Errorf("failure reason %q does not mention drain", js.Reason)
	}
	if o.Pending() != 0 {
		t.Errorf("pending = %d after drain", o.Pending())
	}
}

func TestOnlineWithFaultsSurvivesIdleAndDrains(t *testing.T) {
	// Aggressive crash/excursion faults. The session must keep its fault
	// streams alive through an idle period (jobsLeft touches zero between
	// submissions), retry killed jobs, and drain with every job terminal
	// and the bound invariant intact.
	o := online(t, Config{Bound: 2000, Reallocate: true,
		Faults: &faults.Scenario{Seed: 7, CrashMTBF: 60, MTTR: 10, ExcursionMTBF: 80}})
	first, err := o.SubmitPri("warm", workload.CoMD(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Advance(first.EstFinish + 1); err != nil {
		t.Fatal(err)
	}
	// Idle gap: faults keep firing with nothing running.
	if err := o.Advance(o.Now() + 200); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"x", "y", "z"} {
		if _, err := o.SubmitPri(id, workload.CoMD(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, js := range o.Jobs() {
		if !js.State.Terminal() {
			t.Errorf("job %s not terminal after drain: %v", js.ID, js.State)
		}
	}
	if _, ok := o.Next(); ok {
		t.Error("events remain after drain")
	}
	cs := o.Cluster()
	if cs.AllocW != 0 || cs.Running != 0 {
		t.Errorf("cluster not empty after drain: %+v", cs)
	}
}

func TestOnlineCancelRetryingJob(t *testing.T) {
	// Find a seed/scenario where a job gets killed and enters backoff,
	// then cancel it mid-backoff.
	o := online(t, Config{Bound: 2000,
		Faults: &faults.Scenario{Seed: 3, CrashMTBF: 8, MTTR: 500}})
	js, err := o.SubmitPri("victim", workload.CoMD(), 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := js.EstFinish * 100
	cancelled := false
	for o.Now() < deadline {
		st, err := o.Status("victim")
		if err != nil {
			t.Fatal(err)
		}
		if st.State == JobRetrying {
			if _, err := o.Cancel("victim"); err != nil {
				t.Fatal(err)
			}
			cancelled = true
			break
		}
		if st.State.Terminal() {
			break
		}
		nt, ok := o.Next()
		if !ok {
			break
		}
		if err := o.Advance(nt); err != nil {
			t.Fatal(err)
		}
	}
	if !cancelled {
		t.Skip("scenario never produced a retrying job; covered elsewhere")
	}
	st, _ := o.Status("victim")
	if st.State != JobCancelled {
		t.Fatalf("state %v, want cancelled", st.State)
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	if o.Pending() != 0 {
		t.Errorf("pending = %d", o.Pending())
	}
}

// killTime returns the kill time id's record holds, if it has a record
// that holds one.
func killTime(o *Online, id string) (float64, bool) {
	if rec := record(o.st, id); rec != nil && rec.killed {
		return rec.killedAt, true
	}
	return 0, false
}

// TestQueueRemovalForgetsKillTime: a job killed by a fault and
// requeued carries its kill time until it restarts. Cancelling it while
// it is queued must clear the kill time from its record, and evacuating
// it must forget the record entirely — otherwise an evacuated job that
// later returns to the shard logs a restart against a stale kill time.
func TestQueueRemovalForgetsKillTime(t *testing.T) {
	for _, evacuate := range []bool{false, true} {
		o := online(t, Config{Bound: 2000,
			Faults: &faults.Scenario{Seed: 3, CrashMTBF: 8, MTTR: 5}})
		var ids []string
		for i := 0; i < 6; i++ {
			id := fmt.Sprintf("k%d", i)
			if _, err := o.SubmitPri(id, workload.CoMD(), 0); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		removed := 0
		for step := 0; step < 5000 && o.Pending() > 0; step++ {
			var requeued []string
			for _, id := range ids {
				if js, err := o.Status(id); err == nil && js.State == JobQueued {
					if _, killed := killTime(o, id); killed {
						requeued = append(requeued, id)
					}
				}
			}
			if len(requeued) > 0 && evacuate {
				requeued = requeued[:0]
				for _, j := range o.EvacuateQueued(nil) {
					requeued = append(requeued, j.ID)
				}
			}
			for _, id := range requeued {
				if !evacuate {
					if _, err := o.Cancel(id); err != nil {
						t.Fatal(err)
					}
				}
				if _, leaked := killTime(o, id); leaked {
					t.Errorf("evacuate=%v: %s removed from the queue but its kill time stayed", evacuate, id)
				}
				if evacuate && record(o.st, id) != nil {
					t.Errorf("%s evacuated but its record stayed", id)
				}
				removed++
			}
			if err := o.ProcessNextEvent(); err != nil {
				t.Fatal(err)
			}
		}
		if removed == 0 {
			t.Fatalf("evacuate=%v: no killed-then-requeued job was ever queued; the check tested nothing", evacuate)
		}
		if err := o.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOnlineProcessEventsUntil: the window primitive fires events
// strictly before the barrier and leaves the clock on the last fired
// event, so a conservative parallel layer can advance the session in
// isolation without observing the barrier time itself.
func TestOnlineProcessEventsUntil(t *testing.T) {
	o := online(t, Config{Bound: 2000})
	js, err := o.SubmitPri("j1", workload.CoMD(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Barrier exactly at the completion: strictly-before must not fire it.
	n, err := o.ProcessEventsUntil(js.EstFinish)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("barrier at the event time fired %d events, want 0", n)
	}
	if got, _ := o.Status("j1"); got.State != JobRunning {
		t.Errorf("job %v before the barrier, want running", got.State)
	}
	// Barrier past the completion fires it; the clock lands on the
	// event, not the barrier.
	n, err = o.ProcessEventsUntil(js.EstFinish + 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("fired %d events, want 1", n)
	}
	if got, _ := o.Status("j1"); got.State != JobCompleted {
		t.Errorf("job %v after the window, want completed", got.State)
	}
	if o.Now() != js.EstFinish {
		t.Errorf("clock %v after window, want %v (the event, not the barrier)", o.Now(), js.EstFinish)
	}
	// +Inf drains a quiescent session without error.
	if n, err = o.ProcessEventsUntil(math.Inf(1)); err != nil || n != 0 {
		t.Errorf("idle window = (%d, %v), want (0, nil)", n, err)
	}
}

// TestOnlineEvacuateQueued: the federation's shard-evacuation primitive
// hands back exactly the queued jobs in queue order, forgets them as if
// never submitted (their ids are reusable), and leaves running work
// untouched.
func TestOnlineEvacuateQueued(t *testing.T) {
	o := online(t, Config{Bound: 320})
	if _, err := o.SubmitPri("a", workload.CoMD(), 0); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"b", "c", "d"} {
		js, err := o.SubmitPri(id, workload.CoMD(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if js.State != JobQueued {
			t.Fatalf("job %s %v, want queued", id, js.State)
		}
	}
	jobs := o.EvacuateQueued(nil)
	if len(jobs) != 3 || jobs[0].ID != "b" || jobs[1].ID != "c" || jobs[2].ID != "d" {
		t.Fatalf("evacuated %v, want [b c d] in queue order", jobs)
	}
	for _, j := range jobs {
		if j.App == nil {
			t.Errorf("evacuated job %s lost its application", j.ID)
		}
		if _, err := o.Status(j.ID); err == nil {
			t.Errorf("evacuated job %s still known to the session", j.ID)
		}
	}
	if cs := o.Cluster(); cs.Queued != 0 || cs.Running != 1 {
		t.Errorf("cluster queued=%d running=%d after evacuation, want 0/1", cs.Queued, cs.Running)
	}
	if o.Pending() != 1 {
		t.Errorf("pending = %d after evacuation, want 1 (the running job)", o.Pending())
	}
	// An idle queue evacuates to nothing.
	if jobs := o.EvacuateQueued(nil); jobs != nil {
		t.Errorf("second evacuation returned %v, want nil", jobs)
	}
	// The ids are free again — a survivor shard re-submits them.
	if _, err := o.SubmitPri("b", workload.CoMD(), 0); err != nil {
		t.Errorf("re-submitting an evacuated id: %v", err)
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		js, err := o.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if js.State != JobCompleted {
			t.Errorf("job %s ended %v after drain", id, js.State)
		}
	}
}

// TestEvacuateResubmitSameSession evacuates a session's queue and
// brings the same ids back into the same session through Advance and
// SubmitPri, round after round, with new submissions (mixed priorities
// and pinned applications), cancels and time passing between rounds and
// while the ids are away, node faults off and on: the path of a
// federated job that moves between shards and returns to one it left.
// The record arena hands freed records out last-in first-out and the
// ids come back in evacuation order, so a returning id lands on another
// record than the one it left. Evacuated ids must be free until they
// return, and every record must match where its job is after every
// step. After every round every id must be known, Jobs() must list them
// in id order with the statuses Status reports, and a known id must be
// refused as a duplicate.
func TestEvacuateResubmitSameSession(t *testing.T) {
	apps := []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.SPMZ(),
		pinnedApp(0, 3), pinnedApp(4, 7)}
	pris := []int{0, 0, 0, 2, 5}
	outcomes, moves, moved, preempted := map[JobState]int{}, 0, 0, 0
	for _, withFaults := range []bool{false, true} {
		for _, seed := range []uint64{1, 2, 3} {
			cfg := Config{Bound: 1200, Policy: Backfill, Preempt: true}
			if withFaults {
				cfg.Faults = &faults.Scenario{Seed: seed, CrashMTBF: 600, MTTR: 40,
					ExcursionMTBF: 300, StragglerMTBF: 100, StragglerFactor: 8}
			}
			o := online(t, cfg)
			r := rng.New(seed)
			var ids []string // every id submitted, ascending
			var buf []Job
			other := map[int32]bool{} // records a returning id took from another
			for round := 0; round < 40; round++ {
				tag := fmt.Sprintf("faults=%v seed=%d round %d", withFaults, seed, round)
				check := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					checkRecords(t, tag, o.st)
				}
				for k := 0; k < 8; k++ {
					id := fmt.Sprintf("j%04d", len(ids))
					_, err := o.SubmitPri(id, apps[r.Intn(len(apps))], pris[r.Intn(len(pris))])
					ids = append(ids, id)
					check(err)
				}
				for k := 0; k < 2; k++ {
					if id := ids[r.Intn(len(ids))]; !statusOf(t, o, id).State.Terminal() {
						_, err := o.Cancel(id)
						check(err)
					}
				}
				check(o.Advance(o.Now() + 40*r.Float64()))

				before := liveRecords(o.st)
				buf = o.EvacuateQueued(buf[:0])
				check(nil)
				for _, j := range buf {
					if _, err := o.Status(j.ID); !errors.Is(err, ErrUnknownJob) {
						t.Fatalf("%s: evacuated %s: Status error %v, want ErrUnknownJob", tag, j.ID, err)
					}
				}
				if n := len(o.Jobs()); n != len(ids)-len(buf) {
					t.Fatalf("%s: %d jobs listed after evacuating %d of %d", tag, n, len(buf), len(ids))
				}
				if round%2 == 1 {
					check(o.Advance(o.Now() + 20*r.Float64())) // time passes while the ids are away
				}
				for _, j := range buf {
					check(o.Advance(o.Now()))
					js, err := o.SubmitPri(j.ID, j.App, j.Priority)
					check(err)
					outcomes[js.State]++
					if js.Arrival != o.Now() || js.Priority != j.Priority {
						t.Fatalf("%s: %s came back arriving at %g with priority %d, want %g and %d",
							tag, j.ID, js.Arrival, js.Priority, o.Now(), j.Priority)
					}
					if idx := record(o.st, j.ID).idx; idx != before[j.ID] {
						other[idx] = true
					}
				}
				moves += len(buf)
				checkIndex(t, tag, o, ids)
			}
			if err := o.Drain(); err != nil {
				t.Fatal(err)
			}
			checkIndex(t, "drained", o, ids)
			moved += len(other)
			preempted += o.st.stats.Preemptions
		}
	}
	t.Logf("%d evacuations came back (by state right after SubmitPri: %v), %d records taken by another id, %d preemptions",
		moves, outcomes, moved, preempted)
	if moves < 1000 || moved < 100 || outcomes[JobQueued] == 0 || outcomes[JobRunning] == 0 || preempted == 0 {
		t.Errorf("returns never both queued and started, landed on too few other records or preempted nothing: the rounds test too little")
	}
}

// statusOf is Status for an id the session must know.
func statusOf(t *testing.T, o *Online, id string) JobStatus {
	t.Helper()
	js, err := o.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// checkIndex requires the session to know exactly ids (ascending):
// Jobs() lists them in order, each with the status Status reports, and
// each is refused as a duplicate by SubmitPri. It also checks every
// record against where its job is.
func checkIndex(t *testing.T, tag string, o *Online, ids []string) {
	t.Helper()
	jobs := o.Jobs()
	if len(jobs) != len(ids) {
		t.Fatalf("%s: %d jobs listed, %d submitted", tag, len(jobs), len(ids))
	}
	for i, js := range jobs {
		if js.ID != ids[i] {
			t.Fatalf("%s: Jobs()[%d] is %s, want %s", tag, i, js.ID, ids[i])
		}
		if st := statusOf(t, o, js.ID); !reflect.DeepEqual(st, js) {
			t.Fatalf("%s: Status(%s) = %+v, Jobs() lists %+v", tag, js.ID, st, js)
		}
		if _, err := o.SubmitPri(js.ID, workload.CoMD(), 0); !errors.Is(err, ErrDuplicateJob) {
			t.Fatalf("%s: resubmitting %s (%s): %v, want ErrDuplicateJob", tag, js.ID, js.State, err)
		}
	}
	checkRecords(t, tag, o.st)
}

// TestSubmitPriMatchesBatchRun runs seeded fault-free traces — mixed
// priorities, pinned applications and equal-time arrivals, preemption
// on, reallocation alternating — under every policy, once through a
// batch Run, which admits each job by an arrival event, and once
// through a session that advances to each arrival, submits the job with
// SubmitPri and drains. Every job must start and finish at the same
// times, on as many nodes at the same per-node watts, after as many
// preemptions in both.
func TestSubmitPriMatchesBatchRun(t *testing.T) {
	apps := []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.SPMZ(),
		pinnedApp(0, 3), pinnedApp(4, 7)}
	pris := []int{0, 0, 0, 2, 5}
	waited, preempted := 0, 0
	for pi, policy := range []Policy{FCFS, Backfill, AggressiveBackfill} {
		for _, seed := range []uint64{1, 2, 3} {
			cfg := Config{Bound: 1600, Policy: policy, Preempt: true, Reallocate: (pi+int(seed))%2 == 0}
			tag := fmt.Sprintf("%v seed=%d reallocate=%v", policy, seed, cfg.Reallocate)
			r := rng.New(seed)
			var list []Job
			now := 0.0
			for i := 0; i < 150; i++ {
				if r.Intn(4) > 0 {
					now += 15 * r.Float64()
				}
				list = append(list, Job{ID: fmt.Sprintf("j%03d", i), App: apps[r.Intn(len(apps))],
					Arrival: now, Priority: pris[r.Intn(len(pris))]})
			}
			res, err := sched(t, cfg).Run(list)
			if err != nil {
				t.Fatalf("%s: Run: %v", tag, err)
			}
			want := map[string]JobResult{}
			for _, jr := range res.Jobs {
				want[jr.ID] = jr
				if jr.Start > jr.Arrival {
					waited++
				}
				preempted += jr.Preemptions
			}

			o := online(t, cfg)
			for _, j := range list {
				if err := o.Advance(j.Arrival); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if _, err := o.SubmitPri(j.ID, j.App, j.Priority); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
			}
			if err := o.Drain(); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			got := map[string]JobResult{}
			for id, i := range liveRecords(o.st) {
				if rec := &o.st.recs[i]; rec.state == JobCompleted {
					got[id] = o.st.result(rec)
				}
			}
			if len(want) != len(list) || len(got) != len(list) {
				t.Fatalf("%s: %d jobs completed in Run and %d in the session, want %d",
					tag, len(want), len(got), len(list))
			}
			for id, w := range want {
				if g := got[id]; !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: %s through SubmitPri\n got %+v\nwant %+v (batch Run)", tag, id, g, w)
				}
			}
		}
	}
	t.Logf("%d jobs waited, %d preemptions", waited, preempted)
	if waited == 0 || preempted == 0 {
		t.Error("no job waited or none was preempted: the traces test too little")
	}
}

// TestSubmissionIsNotAnEvent: a submission that fires nothing else adds
// no DES event and no event-latency observation, and leaves the queue
// depth and free watts gauges at the session's own figures, whether the
// job starts or queues.
func TestSubmissionIsNotAnEvent(t *testing.T) {
	o := online(t, Config{Bound: 1200})
	for i := 0; i < 6; i++ {
		if next, ok := o.Next(); ok && next <= o.Now() {
			t.Fatalf("submission %d: an event is due at t=%g", i, next)
		}
		before := telemetry.Default.Snapshot()
		js, err := o.SubmitPri(fmt.Sprintf("j%d", i), workload.CoMD(), 0)
		if err != nil {
			t.Fatal(err)
		}
		after := telemetry.Default.Snapshot()
		if d := after.Counters["clip_des_events_total"] - before.Counters["clip_des_events_total"]; d != 0 {
			t.Errorf("submission %d (%s) fired %d DES events, want 0", i, js.State, d)
		}
		const h = "clip_jobsched_event_seconds"
		if d := after.Histograms[h].Count - before.Histograms[h].Count; d != 0 {
			t.Errorf("submission %d (%s) timed %d scheduler events, want 0", i, js.State, d)
		}
		if g := after.Gauges["clip_jobsched_queue_depth"]; g != float64(o.QueueLen()) {
			t.Errorf("submission %d (%s): queue depth gauge %g, QueueLen %d", i, js.State, g, o.QueueLen())
		}
		if g := after.Gauges["clip_jobsched_free_watts"]; g != o.FreeWatts() {
			t.Errorf("submission %d (%s): free watts gauge %g, FreeWatts %g", i, js.State, g, o.FreeWatts())
		}
	}
	if o.RunningLen() == 0 || o.QueueLen() == 0 {
		t.Fatalf("%d running and %d queued: the submissions must both start and queue",
			o.RunningLen(), o.QueueLen())
	}
}
