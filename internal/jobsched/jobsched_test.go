package jobsched

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// shared CLIP so the NP regression trains once per test binary.
var (
	testCl   = hw.NewCluster(8, hw.HaswellSpec(), 0, 1)
	testCLIP *core.CLIP
)

func clip(t *testing.T) *core.CLIP {
	t.Helper()
	if testCLIP == nil {
		c, err := core.New(testCl)
		if err != nil {
			t.Fatal(err)
		}
		testCLIP = c
	}
	return testCLIP
}

func sched(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(testCl, clip(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func jobs(apps ...*workload.Spec) []Job {
	out := make([]Job, len(apps))
	for i, a := range apps {
		out[i] = Job{ID: a.Name + string(rune('A'+i)), App: a, Arrival: 0}
	}
	return out
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(testCl, clip(t), Config{Bound: 0}); err == nil {
		t.Error("zero bound accepted")
	}
}

// TestParsePolicy: ParsePolicy inverts Policy.String for every policy
// and rejects any other name, clipjobs' short "aggressive" included.
func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Policy
		ok   bool
	}{
		{"fcfs", FCFS, true},
		{"backfill", Backfill, true},
		{"aggressive-backfill", AggressiveBackfill, true},
		{"", 0, false},
		{"aggressive", 0, false},
		{"all", 0, false},
		{"FCFS", 0, false},
		{"backfill ", 0, false},
	} {
		got, err := ParsePolicy(tc.name)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePolicy(%q) = (%v, %v), want (%v, ok=%v)", tc.name, got, err, tc.want, tc.ok)
		}
		if tc.ok && got.String() != tc.name {
			t.Errorf("ParsePolicy(%q).String() = %q", tc.name, got.String())
		}
	}
}

func TestRunRejectsBadJobs(t *testing.T) {
	s := sched(t, Config{Bound: 2000})
	if _, err := s.Run(nil); err == nil {
		t.Error("empty job list accepted")
	}
	if _, err := s.Run([]Job{{ID: "x"}}); err == nil {
		t.Error("job without app accepted")
	}
	if _, err := s.Run([]Job{{ID: "x", App: workload.CoMD(), Arrival: -1}}); err == nil {
		t.Error("negative arrival accepted")
	}
	if _, err := s.Run([]Job{{ID: "x", App: workload.CoMD()}, {App: workload.CoMD()}}); err == nil {
		t.Error("job without id accepted")
	}
}

// TestRunRejectsDuplicateIDs: two jobs of one id would share one
// record, so Run refuses the list before it simulates anything. With
// distinct ids the same stream completes, including a bound drop that
// must shed power from both running jobs.
func TestRunRejectsDuplicateIDs(t *testing.T) {
	app := workload.CoMD()
	app.ProcCounts = []int{4}
	s := sched(t, Config{Bound: 2400, Policy: Backfill, Reallocate: true,
		BoundSchedule: []BoundChange{{Time: 3, Watts: 500}}})
	list := []Job{{ID: "a", App: app, Arrival: 0}, {ID: "a", App: app, Arrival: 1}}
	if _, err := s.Run(list); !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("duplicate ids: error %v, want one wrapping ErrDuplicateJob", err)
	}
	list[1].ID = "b"
	st, err := s.Run(list)
	if err != nil {
		t.Fatalf("distinct ids: %v", err)
	}
	if len(st.Jobs) != 2 {
		t.Fatalf("distinct ids: %d of 2 jobs finished", len(st.Jobs))
	}
}

func TestSingleJobCompletes(t *testing.T) {
	s := sched(t, Config{Bound: 2000})
	st, err := s.Run(jobs(workload.CoMD()))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 1 {
		t.Fatalf("completed %d jobs, want 1", len(st.Jobs))
	}
	j := st.Jobs[0]
	if j.Start != 0 || j.Finish <= 0 {
		t.Errorf("lifecycle wrong: start %v finish %v", j.Start, j.Finish)
	}
	if math.Abs(st.Makespan-j.Finish) > 1e-9 {
		t.Error("makespan != last finish")
	}
}

func TestAllJobsComplete(t *testing.T) {
	s := sched(t, Config{Bound: 1600, Policy: Backfill})
	list := jobs(workload.CoMD(), workload.LUMZ(), workload.SPMZ(), workload.AMG())
	st, err := s.Run(list)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != len(list) {
		t.Fatalf("completed %d jobs, want %d", len(st.Jobs), len(list))
	}
	for _, j := range st.Jobs {
		if j.Finish <= j.Start {
			t.Errorf("job %s finished before starting", j.ID)
		}
		if j.Nodes <= 0 || j.Cores <= 0 {
			t.Errorf("job %s has no resources", j.ID)
		}
	}
}

// TestConcurrencyUnderAmplePower: two jobs with predefined 4-node
// decompositions and enough power must share the 8-node cluster
// rather than run serially.
func TestConcurrencyUnderAmplePower(t *testing.T) {
	a4 := workload.CoMD()
	a4.Name = "comd.4" // distinct knowledge-db entry
	a4.ProcCounts = []int{4}
	b4 := workload.MiniMD()
	b4.Name = "minimd.4"
	b4.ProcCounts = []int{4}

	s := sched(t, Config{Bound: 3000, Policy: Backfill})
	st, err := s.Run(jobs(a4, b4))
	if err != nil {
		t.Fatal(err)
	}
	a, b := st.Jobs[0], st.Jobs[1]
	if b.Start >= a.Finish {
		t.Errorf("4-node jobs ran serially under ample power: %v vs %v", b.Start, a.Finish)
	}
	if a.Nodes != 4 || b.Nodes != 4 {
		t.Errorf("node counts %d/%d, want 4/4", a.Nodes, b.Nodes)
	}
}

// TestPowerNeverOversubscribed replays the timeline and asserts the sum
// of allocated budgets never exceeds the bound.
func TestPowerNeverOversubscribed(t *testing.T) {
	const bound = 1400.0
	s := sched(t, Config{Bound: bound, Policy: Backfill, Reallocate: true})
	list := jobs(workload.CoMD(), workload.LUMZ(), workload.SPMZ(), workload.TeaLeaf(), workload.AMG())
	st, err := s.Run(list)
	if err != nil {
		t.Fatal(err)
	}
	// Check at every job start: sum of budgets of jobs overlapping that
	// instant (starts are the only times allocation grows).
	for _, probe := range st.Jobs {
		var used float64
		for _, o := range st.Jobs {
			if o.Start <= probe.Start && o.Finish > probe.Start {
				used += o.PerNodeW * float64(o.Nodes)
			}
		}
		// Boosted jobs may hold more than their starting budget; the
		// scheduler's own accounting guards that case, so only assert
		// the start-time invariant for unboosted schedules here.
		if used > bound+1e-6 && !anyBoosted(st.Jobs) {
			t.Errorf("at t=%v allocated %v W exceeds bound %v", probe.Start, used, bound)
		}
	}
}

func anyBoosted(jobsDone []JobResult) bool {
	for _, j := range jobsDone {
		if j.Boosted {
			return true
		}
	}
	return false
}

// TestNodesNeverOversubscribed: overlapping jobs must use disjoint
// node counts that fit the cluster.
func TestNodesNeverOversubscribed(t *testing.T) {
	s := sched(t, Config{Bound: 2200, Policy: Backfill})
	list := jobs(workload.CoMD(), workload.LUMZ(), workload.SPMZ(), workload.AMG(), workload.MiniMD())
	st, err := s.Run(list)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range st.Jobs {
		total := 0
		for _, o := range st.Jobs {
			if o.Start <= probe.Start && o.Finish > probe.Start {
				total += o.Nodes
			}
		}
		if total > testCl.NumNodes() {
			t.Errorf("at t=%v %d nodes in use on an %d-node cluster",
				probe.Start, total, testCl.NumNodes())
		}
	}
}

func TestFCFSOrdering(t *testing.T) {
	s := sched(t, Config{Bound: 700, Policy: FCFS})
	list := []Job{
		{ID: "first", App: workload.LUMZ(), Arrival: 0},
		{ID: "second", App: workload.CoMD(), Arrival: 1},
	}
	st, err := s.Run(list)
	if err != nil {
		t.Fatal(err)
	}
	var first, second JobResult
	for _, j := range st.Jobs {
		if j.ID == "first" {
			first = j
		} else {
			second = j
		}
	}
	if second.Start < first.Start {
		t.Error("FCFS started the later arrival first")
	}
}

// TestBackfillImprovesMakespan: with a tight bound the backfill policy
// should finish a mixed workload no later than strict FCFS.
func TestBackfillImprovesMakespan(t *testing.T) {
	list := []Job{
		{ID: "big", App: workload.TeaLeaf(), Arrival: 0},
		{ID: "big2", App: workload.SPMZ(), Arrival: 0.5},
		{ID: "small", App: workload.MiniMD(), Arrival: 1},
	}
	fcfs, err := sched(t, Config{Bound: 900, Policy: FCFS}).Run(list)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := sched(t, Config{Bound: 900, Policy: Backfill}).Run(list)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Makespan > fcfs.Makespan+1e-9 {
		t.Errorf("backfill makespan %v worse than FCFS %v", bf.Makespan, fcfs.Makespan)
	}
}

// TestReallocationSpeedsLastJob: when the queue drains, remaining jobs
// should absorb freed power and finish earlier than without
// reallocation.
func TestReallocationSpeedsLastJob(t *testing.T) {
	list := []Job{
		{ID: "short", App: workload.MiniMD(), Arrival: 0},
		{ID: "long", App: workload.LUMZ(), Arrival: 0},
	}
	static, err := sched(t, Config{Bound: 1000, Policy: Backfill}).Run(list)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := sched(t, Config{Bound: 1000, Policy: Backfill, Reallocate: true}).Run(list)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Makespan > static.Makespan+1e-9 {
		t.Errorf("reallocation worsened makespan: %v vs %v", dyn.Makespan, static.Makespan)
	}
	if !anyBoosted(dyn.Jobs) {
		t.Log("no job was boosted (acceptable when configurations already saturate)")
	}
}

func TestArrivalsRespected(t *testing.T) {
	s := sched(t, Config{Bound: 2000, Policy: Backfill})
	st, err := s.Run([]Job{{ID: "late", App: workload.CoMD(), Arrival: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs[0].Start < 100 {
		t.Error("job started before its arrival")
	}
}

func TestStatsSane(t *testing.T) {
	s := sched(t, Config{Bound: 1600, Policy: Backfill})
	st, err := s.Run(jobs(workload.CoMD(), workload.AMG(), workload.LUMZ()))
	if err != nil {
		t.Fatal(err)
	}
	if st.AvgWait < 0 || st.AvgTurnaround <= 0 {
		t.Errorf("stats wrong: wait %v turnaround %v", st.AvgWait, st.AvgTurnaround)
	}
	if st.AvgPowerUse <= 0 || st.AvgPowerUse > 1 {
		t.Errorf("power utilisation %v outside (0,1]", st.AvgPowerUse)
	}
}

func TestDeterminism(t *testing.T) {
	list := jobs(workload.CoMD(), workload.LUMZ(), workload.SPMZ())
	a, err := sched(t, Config{Bound: 1400, Policy: Backfill, Reallocate: true}).Run(list)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sched(t, Config{Bound: 1400, Policy: Backfill, Reallocate: true}).Run(list)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.AvgTurnaround != b.AvgTurnaround {
		t.Error("scheduler is not deterministic")
	}
}

func TestPolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || Backfill.String() != "backfill" {
		t.Error("policy strings wrong")
	}
}

func TestSubCluster(t *testing.T) {
	cl := hw.NewCluster(4, hw.HaswellSpec(), 0.05, 3)
	sub := fillSub(nil, cl, []int{1, 3})
	if sub.NumNodes() != 2 {
		t.Fatalf("subcluster has %d nodes", sub.NumNodes())
	}
	if sub.Nodes[0].PowerEff != cl.Nodes[1].PowerEff ||
		sub.Nodes[1].PowerEff != cl.Nodes[3].PowerEff {
		t.Error("variability not carried into the subcluster")
	}
	if sub.Nodes[0].ID != 0 || sub.Nodes[1].ID != 1 {
		t.Error("subcluster slots not renumbered")
	}
}

// TestBoostPathExercised replays the stream from the clipjobs demo that
// is known to leave a power-starved flexible job running when others
// finish: reallocation must boost it and improve the makespan.
func TestBoostPathExercised(t *testing.T) {
	four := func(app *workload.Spec) *workload.Spec {
		app.Name += ".n4boost"
		app.ProcCounts = []int{4}
		return app
	}
	stream := []Job{
		{ID: "lu", App: workload.LUMZ(), Arrival: 0},
		{ID: "comd4", App: four(workload.CoMD()), Arrival: 3},
		{ID: "sp", App: workload.SPMZ(), Arrival: 6},
		{ID: "tea4", App: four(workload.TeaLeaf()), Arrival: 9},
		{ID: "amg", App: workload.AMG(), Arrival: 12},
		{ID: "hpcg4", App: four(workload.HPCG()), Arrival: 15},
	}
	static, err := sched(t, Config{Bound: 1300, Policy: AggressiveBackfill}).Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := sched(t, Config{Bound: 1300, Policy: AggressiveBackfill, Reallocate: true}).Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !anyBoosted(dyn.Jobs) {
		t.Fatal("reallocation never boosted a job in the known-starved stream")
	}
	if dyn.Makespan >= static.Makespan {
		t.Errorf("reallocation did not improve makespan: %v vs %v", dyn.Makespan, static.Makespan)
	}
	if dyn.AvgPowerUse <= static.AvgPowerUse {
		t.Errorf("reallocation did not raise power utilisation: %v vs %v",
			dyn.AvgPowerUse, static.AvgPowerUse)
	}
}

// TestAggressiveVsEasyTradeoff: on the blocking-head stream, aggressive
// backfill must not leave jobs unscheduled, and EASY must never start a
// backfilled job that delays the head beyond the shadow time.
func TestAggressiveVsEasyTradeoff(t *testing.T) {
	eight := func(app *workload.Spec) *workload.Spec {
		app.Name += ".n8trade"
		app.ProcCounts = []int{8}
		return app
	}
	four := func(app *workload.Spec) *workload.Spec {
		app.Name += ".n4trade"
		app.ProcCounts = []int{4}
		return app
	}
	stream := []Job{
		{ID: "first4", App: four(workload.CoMD()), Arrival: 0},
		{ID: "head8", App: eight(workload.SPMZ()), Arrival: 1},
		{ID: "small4", App: four(workload.MiniMD()), Arrival: 2},
	}
	easy, err := sched(t, Config{Bound: 2000, Policy: Backfill}).Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	aggr, err := sched(t, Config{Bound: 2000, Policy: AggressiveBackfill}).Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	byID := func(st *Stats, id string) JobResult {
		for _, j := range st.Jobs {
			if j.ID == id {
				return j
			}
		}
		t.Fatalf("job %s missing", id)
		return JobResult{}
	}
	// Under EASY, the 8-node head starts as soon as first4 finishes.
	if h := byID(easy, "head8"); h.Start > byID(easy, "first4").Finish+1e-9 {
		t.Errorf("EASY delayed the head: starts %v, resources free at %v",
			h.Start, byID(easy, "first4").Finish)
	}
	// Aggressive may start small4 first and delay the head.
	if byID(aggr, "small4").Start > byID(easy, "small4").Start+1e-9 {
		t.Error("aggressive backfill should start the small job no later than EASY")
	}
}

func TestPolicyStringAggressive(t *testing.T) {
	if AggressiveBackfill.String() != "aggressive-backfill" {
		t.Error("aggressive policy string wrong")
	}
}

// TestBoundDropThrottlesRunningJobs: a demand-response cut below the
// current allocation must slow running jobs rather than violate the
// bound, and the jobs must still complete.
func TestBoundDropThrottlesRunningJobs(t *testing.T) {
	stream := []Job{{ID: "lu", App: workload.LUMZ(), Arrival: 0}}
	flat, err := sched(t, Config{Bound: 1600}).Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := sched(t, Config{
		Bound:         1600,
		BoundSchedule: []BoundChange{{Time: 5, Watts: 700}},
	}).Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Makespan <= flat.Makespan {
		t.Errorf("bound cut mid-run did not slow the job: %v vs %v",
			dropped.Makespan, flat.Makespan)
	}
	if len(dropped.Jobs) != 1 {
		t.Fatal("job lost across a bound change")
	}
}

// TestBoundRecoveryReboosts: a cut followed by a recovery (with
// Reallocate) must land between the flat-high and flat-low makespans.
func TestBoundRecoveryReboosts(t *testing.T) {
	stream := []Job{{ID: "amg", App: workload.AMG(), Arrival: 0}}
	high, err := sched(t, Config{Bound: 1600, Reallocate: true}).Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	low, err := sched(t, Config{Bound: 700, Reallocate: true}).Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	vary, err := sched(t, Config{
		Bound:         1600,
		Reallocate:    true,
		BoundSchedule: []BoundChange{{Time: 3, Watts: 700}, {Time: 10, Watts: 1600}},
	}).Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if vary.Makespan < high.Makespan-1e-9 {
		t.Errorf("varying bound beat the flat high bound: %v vs %v", vary.Makespan, high.Makespan)
	}
	if vary.Makespan > low.Makespan+1e-9 {
		t.Errorf("varying bound worse than flat low bound: %v vs %v", vary.Makespan, low.Makespan)
	}
}

// TestBoundDropDefersQueuedJobs: after a deep cut, a newly arriving job
// waits until the bound recovers.
func TestBoundDropDefersQueuedJobs(t *testing.T) {
	stream := []Job{
		{ID: "early", App: workload.CoMD(), Arrival: 0},
		{ID: "late", App: workload.AMG(), Arrival: 20},
	}
	st, err := sched(t, Config{
		Bound:         1500,
		Policy:        Backfill,
		BoundSchedule: []BoundChange{{Time: 15, Watts: 60}, {Time: 60, Watts: 1500}},
	}).Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	var late JobResult
	for _, j := range st.Jobs {
		if j.ID == "late" {
			late = j
		}
	}
	if late.Start < 60 {
		t.Errorf("job started at %v during the 60 W trough", late.Start)
	}
}

func TestBoundScheduleValidation(t *testing.T) {
	s := sched(t, Config{Bound: 1000, BoundSchedule: []BoundChange{{Time: -1, Watts: 500}}})
	if _, err := s.Run(jobs(workload.CoMD())); err == nil {
		t.Error("negative bound-change time accepted")
	}
	s2 := sched(t, Config{Bound: 1000, BoundSchedule: []BoundChange{{Time: 5, Watts: 0}}})
	if _, err := s2.Run(jobs(workload.CoMD())); err == nil {
		t.Error("zero bound accepted")
	}
}

// TestNonFiniteBoundsRejected: NaN and ±Inf watts are refused at
// every entry point that takes a power bound, instead of opening a
// session that never dispatches or a run whose power figures are NaN.
func TestNonFiniteBoundsRejected(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			name string
			try  func() error
		}{
			{"New", func() error {
				_, err := New(testCl, clip(t), Config{Bound: w})
				return err
			}},
			{"BoundSchedule", func() error {
				s := sched(t, Config{Bound: 1000, BoundSchedule: []BoundChange{{Time: 5, Watts: w}}})
				_, err := s.Run(jobs(workload.CoMD()))
				return err
			}},
			{"SetBound", func() error { return online(t, Config{Bound: 1000}).SetBound(w) }},
		} {
			if err := tc.try(); err == nil {
				t.Errorf("%s accepted a %g W bound", tc.name, w)
			}
		}
	}
}

// TestEventLatencyTelemetry: scheduler event handlers feed the
// event-loop latency histogram exposed over the standard Prometheus
// exposition.
func TestEventLatencyTelemetry(t *testing.T) {
	before := cellMetrics[0].eventSeconds.Count()
	s := sched(t, Config{Bound: 2000, Policy: Backfill})
	if _, err := s.Run(jobs(workload.SPMZ(), workload.CoMD(), workload.LUMZ())); err != nil {
		t.Fatal(err)
	}
	if cellMetrics[0].eventSeconds.Count() == before {
		t.Error("scheduler events did not observe the latency histogram")
	}
	var sb strings.Builder
	if err := telemetry.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "clip_jobsched_event_seconds") {
		t.Error("exposition missing clip_jobsched_event_seconds")
	}
}
