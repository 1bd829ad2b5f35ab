package jobsched

// Hot-path regression guards. The scheduler's steady-state event path
// is allocation-free by design (pooled state, record arena, dispatch
// cache, scratch reuse); these tests turn that property into a gate so
// an accidental per-event allocation fails `go test` instead of slowly
// eroding BENCH_results.json. They also pin the two behavioural
// contracts the optimisation must not bend: Run never mutates the
// caller's job slice, and SubmitBatch is observably identical to the
// same submissions made one at a time.

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// TestRunDoesNotMutateCallerJobs: Run keeps each job's state in its own
// record; the slice the caller handed in (order and contents) must come
// back untouched, run after run.
func TestRunDoesNotMutateCallerJobs(t *testing.T) {
	s := sched(t, Config{Bound: 2000, Policy: Backfill})
	list := []Job{
		{ID: "late", App: workload.CoMD(), Arrival: 30},
		{ID: "early", App: workload.LUMZ(), Arrival: 0},
		{ID: "mid", App: workload.SPMZ(), Arrival: 10},
		{ID: "tied", App: workload.AMG(), Arrival: 10},
	}
	orig := append([]Job(nil), list...)
	for run := 0; run < 2; run++ {
		if _, err := s.Run(list); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(list, orig) {
			t.Fatalf("run %d mutated the caller's slice:\n got %+v\nwant %+v", run, list, orig)
		}
	}
}

// TestRunSteadyStateAllocs: once the pooled state, dispatch cache and
// scratch buffers are warm, a full schedule of N jobs may allocate only
// the escaping result object and its amortised slice growth — a
// sub-linear total, not a per-job cost (terminal snapshots intern
// their node ids in the stats arena, and the telemetry ring recycles
// its per-node budget buffers).
func TestRunSteadyStateAllocs(t *testing.T) {
	s := sched(t, Config{Bound: 2000, Policy: Backfill, Reallocate: true})
	apps := []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.SPMZ(), workload.AMG()}
	list := make([]Job, 64)
	for i := range list {
		list[i] = Job{ID: fmt.Sprintf("j%03d", i), App: apps[i%len(apps)], Arrival: float64(i)}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Run(list); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := s.Run(list); err != nil {
			t.Fatal(err)
		}
	})
	if max := 20 + float64(len(list))/8; avg > max {
		t.Errorf("steady-state Run of %d jobs allocates %.0f objects, want <= %.0f",
			len(list), avg, max)
	}
}

// TestOnlineSubmitAllocs: a steady-state submission into a saturated
// cluster (the common shape under load) allocates only the job's own
// identity — id string, record, index entry — with the queue, event and
// dispatch machinery fully amortised.
func TestOnlineSubmitAllocs(t *testing.T) {
	o := online(t, Config{Bound: 320})
	app := workload.CoMD()
	for i := 0; i < 32; i++ {
		if _, err := o.SubmitPri(fmt.Sprintf("warm-%d", i), app, 0); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	avg := testing.AllocsPerRun(200, func() {
		n++
		if _, err := o.SubmitPri(fmt.Sprintf("load-%d", n), app, 0); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 12 {
		t.Errorf("Online.SubmitPri allocates %.1f objects per call, want <= 12", avg)
	}
}

// statusKey flattens a JobStatus for comparison.
func statusKey(js JobStatus) string {
	return fmt.Sprintf("%s|%v|%.9f|%.9f|%.9f|%d|%v|%d|%.9f|%.9f|%d|%.9f|%s",
		js.ID, js.State, js.Arrival, js.Start, js.Finish, js.QueuePos,
		js.Nodes, js.Cores, js.PerNodeW, js.EstFinish, js.Retries,
		js.ReclaimedW, js.Reason)
}

// TestSubmitBatchMatchesSerialSubmits: one SubmitBatch of N entries
// must leave the driver in exactly the state N serial SubmitPri calls
// produce — same per-entry statuses and errors (including mid-batch
// duplicate rejections), same Jobs() listing, same Cluster() snapshot,
// same started-jobs telemetry delta.
func TestSubmitBatchMatchesSerialSubmits(t *testing.T) {
	// Mixed outcome batch on a one-job bound: first runs, rest queue,
	// two entries are rejected mid-batch (duplicate id, empty id).
	subs := []Submission{
		{ID: "a", App: workload.CoMD()},
		{ID: "b", App: workload.LUMZ()},
		{ID: "a", App: workload.SPMZ()}, // duplicate → rejected
		{ID: "", App: workload.AMG()},   // invalid → rejected
		{ID: "c", App: workload.AMG()},
	}
	serial := online(t, Config{Bound: 320})
	startBefore := cellMetrics[0].jobsStarted.Value()
	var serialRes []SubmitResult
	for _, sub := range subs {
		var r SubmitResult
		r.Status, r.Err = serial.SubmitPri(sub.ID, sub.App, 0)
		serialRes = append(serialRes, r)
	}
	serialStarted := cellMetrics[0].jobsStarted.Value() - startBefore

	batched := online(t, Config{Bound: 320})
	startBefore = cellMetrics[0].jobsStarted.Value()
	batchRes := batched.SubmitBatch(subs)
	batchStarted := cellMetrics[0].jobsStarted.Value() - startBefore

	if len(batchRes) != len(serialRes) {
		t.Fatalf("batch returned %d results, want %d", len(batchRes), len(serialRes))
	}
	for i := range subs {
		s, b := serialRes[i], batchRes[i]
		if (s.Err == nil) != (b.Err == nil) ||
			(s.Err != nil && s.Err.Error() != b.Err.Error()) {
			t.Errorf("entry %d error: serial %v, batch %v", i, s.Err, b.Err)
		}
		if s.Err == nil && statusKey(s.Status) != statusKey(b.Status) {
			t.Errorf("entry %d status:\n serial %+v\n batch  %+v", i, s.Status, b.Status)
		}
	}
	if batchStarted != serialStarted {
		t.Errorf("jobs-started telemetry: batch +%d, serial +%d", batchStarted, serialStarted)
	}

	sj, bj := serial.Jobs(), batched.Jobs()
	if len(sj) != len(bj) {
		t.Fatalf("Jobs(): serial %d entries, batch %d", len(sj), len(bj))
	}
	for i := range sj {
		if statusKey(sj[i]) != statusKey(bj[i]) {
			t.Errorf("Jobs()[%d]:\n serial %+v\n batch  %+v", i, sj[i], bj[i])
		}
	}
	if sc, bc := serial.Cluster(), batched.Cluster(); !reflect.DeepEqual(sc, bc) {
		t.Errorf("Cluster():\n serial %+v\n batch  %+v", sc, bc)
	}
}

// TestGrowKeepsSession: Grow changes no scheduling state. Two sessions
// take the same submissions, one growing midway with jobs live (so its
// id index is rebuilt around them); every status matches after every
// submission. After Grow, a stream of submissions into a saturated
// session moves neither the record arena nor the queue, allocates less
// than without, and leaves every status as it is without.
func TestGrowKeepsSession(t *testing.T) {
	plain := online(t, Config{Bound: 320})
	grown := online(t, Config{Bound: 320})
	apps := []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.SPMZ()}
	for i := 0; i < 48; i++ {
		if i == 8 {
			grown.Grow(64)
		}
		id, app := fmt.Sprintf("g%02d", i), apps[i%len(apps)]
		if err := plain.Advance(float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := grown.Advance(float64(i)); err != nil {
			t.Fatal(err)
		}
		a, errA := plain.SubmitPri(id, app, 0)
		b, errB := grown.SubmitPri(id, app, 0)
		if errA != nil || errB != nil {
			t.Fatalf("submit %s: %v, %v", id, errA, errB)
		}
		if statusKey(a) != statusKey(b) {
			t.Fatalf("submit %s: grown session %s, want %s", id, statusKey(b), statusKey(a))
		}
	}
	pj, gj := plain.Jobs(), grown.Jobs()
	for i := range pj {
		if statusKey(pj[i]) != statusKey(gj[i]) {
			t.Errorf("job %s: grown session %s, want %s", pj[i].ID, statusKey(gj[i]), statusKey(pj[i]))
		}
	}
	if _, err := grown.SubmitPri("g00", apps[0], 0); !errors.Is(err, ErrDuplicateJob) {
		t.Errorf("resubmitting g00 after Grow: %v, want ErrDuplicateJob", err)
	}

	// Records live by value, so a session without Grow takes no
	// allocation per submission either: its arena, id column and index
	// grow now and then. Count the allocations of the whole stream.
	const runs = 200
	ids := make([]string, runs)
	for i := range ids {
		ids[i] = fmt.Sprintf("load-%d", i)
	}
	submitAll := func(o *Online) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, id := range ids {
			if _, err := o.SubmitPri(id, apps[0], 0); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// Both sessions start saturated: the filler takes the bound, so
	// every submission after it queues at priority 0. The grown one
	// announces the first queued job and the stream, and that job makes
	// the level, which then holds the whole stream.
	saturated := func(grow int) *Online {
		o := online(t, Config{Bound: 320})
		if _, err := o.SubmitPri("filler", apps[1], 0); err != nil {
			t.Fatal(err)
		}
		if grow > 0 {
			o.Grow(grow)
		}
		if _, err := o.SubmitPri("queued", apps[0], 0); err != nil {
			t.Fatal(err)
		}
		return o
	}
	plainS := saturated(0)
	cold := submitAll(plainS)
	warm := saturated(len(ids) + 1)
	arena, capRecs := &warm.st.recs[:1][0], cap(warm.st.recs)
	lvl := warm.st.level(0, false)
	if lvl == nil {
		t.Fatal("the first submission after the filler did not queue")
	}
	queue, capQueue := &lvl.q[0], cap(lvl.q)
	if w := submitAll(warm); w >= cold {
		t.Errorf("%d submissions allocate %d objects after Grow, %d without; want fewer", runs, w, cold)
	}
	if &warm.st.recs[0] != arena || cap(warm.st.recs) != capRecs {
		t.Errorf("the record arena moved during %d submissions after Grow(%d)", runs, runs+1)
	}
	if lvl = warm.st.level(0, false); &lvl.q[0] != queue || cap(lvl.q) != capQueue {
		t.Errorf("the queue moved during %d submissions after Grow(%d): cap %d, then %d",
			runs, runs+1, capQueue, cap(lvl.q))
	}
	if warm.QueueLen() != runs+1 {
		t.Errorf("%d jobs queued after Grow, want %d", warm.QueueLen(), runs+1)
	}
	pj, gj = plainS.Jobs(), warm.Jobs()
	if len(pj) != len(gj) {
		t.Fatalf("Jobs(): %d after Grow, %d without", len(gj), len(pj))
	}
	for i := range pj {
		if statusKey(pj[i]) != statusKey(gj[i]) {
			t.Errorf("job %s: grown session %s, want %s", pj[i].ID, statusKey(gj[i]), statusKey(pj[i]))
		}
	}
}

// TestFullClusterPassReadsNoEntry: with no free node, or no free watt,
// nothing can start, so a dispatch pass ends before it reads a queue
// entry. The queue is deep and mixed, and one application's only entry
// sits at its tail, so a pass that walked until it had refused every
// queued application would read all of it. More submissions, and a
// bound cut that frees no watt, must leave the count of queue-reading
// passes where it was. The exit changes no output, so no golden would
// notice it gone.
func TestFullClusterPassReadsNoEntry(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bound     float64
		nodesFree bool
	}{
		{"every node busy", 2400, false},
		{"every watt taken", 400, true}, // one job takes the bound
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := online(t, Config{Bound: tc.bound, Policy: Backfill})
			apps := []*workload.Spec{workload.CoMD(), workload.LUMZ(), workload.SPMZ()}
			for i := 0; o.FreeNodes() > 0 && o.FreeWatts() > 0; i++ {
				if i == len(testCl.Nodes) {
					t.Fatalf("%d submissions left %d nodes and %g W free", i, o.FreeNodes(), o.FreeWatts())
				}
				if _, err := o.SubmitPri(fmt.Sprintf("fill-%d", i), apps[0], 0); err != nil {
					t.Fatal(err)
				}
			}
			const depth = 192
			for i := 0; i < depth; i++ {
				if _, err := o.SubmitPri(fmt.Sprintf("q%03d", i), apps[i%len(apps)], 0); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := o.SubmitPri("tail", workload.AMG(), 0); err != nil {
				t.Fatal(err)
			}
			st := o.st
			if o.QueueLen() != depth+1 || st.qapps != len(apps)+1 {
				t.Fatalf("%d jobs of %d applications queued, want %d of %d",
					o.QueueLen(), st.qapps, depth+1, len(apps)+1)
			}
			nodes, watts := o.FreeNodes(), o.FreeWatts()
			if (nodes > 0) != tc.nodesFree {
				t.Fatalf("%d nodes and %g W free after the fill", nodes, watts)
			}
			pass, full := st.pass, st.full
			for i := 0; i < 16; i++ {
				if _, err := o.SubmitPri(fmt.Sprintf("more-%d", i), apps[i%len(apps)], 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := o.SetBound(o.Bound() - 50); err != nil {
				t.Fatal(err)
			}
			if o.FreeNodes() != nodes || o.FreeWatts() > watts || o.QueueLen() != depth+17 {
				t.Fatalf("%d nodes and %g W free, %d jobs queued after the cut; want %d, at most %g and %d",
					o.FreeNodes(), o.FreeWatts(), o.QueueLen(), nodes, watts, depth+17)
			}
			if st.pass != pass {
				t.Errorf("%d dispatch passes read the queue with %d nodes and %g W free",
					st.pass-pass, nodes, watts)
			}
			if st.full-full < 17 {
				t.Errorf("%d passes ended at the exit, want at least one per submission and the cut (17)", st.full-full)
			}
		})
	}
}

// TestRecordsHoldNoPointers: a job record and a queue entry hold no
// field the collector must scan, so a session's record arena and queue
// cost a collection nothing however many jobs they hold. It walks both
// types, into arrays and structs, and fails on every kind that can
// hold a pointer.
func TestRecordsHoldNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s, which can hold a pointer", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("jobRecord", reflect.TypeOf(jobRecord{}))
	walk("queueEntry", reflect.TypeOf(queueEntry{}))
	t.Logf("jobRecord is %d bytes, queueEntry %d", reflect.TypeOf(jobRecord{}).Size(), reflect.TypeOf(queueEntry{}).Size())
}
