package fed

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/jobsched"
	"repro/internal/rng"
	"repro/internal/workload"
)

// shardCfg builds a homogeneous shard list: n shards of nodes × budget.
func shardCfg(n, nodes int, budget float64, policy jobsched.Policy) []ShardConfig {
	out := make([]ShardConfig, n)
	for i := range out {
		out[i] = ShardConfig{
			Nodes: nodes, BudgetW: budget, Sigma: 0.02, Seed: int64(100 + i),
			Policy: policy, Reallocate: true,
		}
	}
	return out
}

// apps is the test workload mix.
func apps() []*workload.Spec {
	return []*workload.Spec{
		workload.CoMD(), workload.LUMZ(), workload.SPMZ(), workload.AMG(),
	}
}

// scheduleTrace schedules a seeded arrival trace onto f and returns the
// (id, arrival, app index) triples it used.
type traceJob struct {
	id      string
	arrival float64
	app     int
}

func scheduleTrace(t *testing.T, f *Federation, seed uint64, jobs int, meanGap float64) []traceJob {
	t.Helper()
	mix := apps()
	r := rng.New(seed)
	now := 0.0
	out := make([]traceJob, 0, jobs)
	for i := 0; i < jobs; i++ {
		now += r.Range(0, 2*meanGap)
		tj := traceJob{id: fmt.Sprintf("j%04d", i), arrival: now, app: i % len(mix)}
		if err := f.ScheduleArrivalPri(tj.arrival, tj.id, mix[tj.app], "", 0); err != nil {
			t.Fatal(err)
		}
		out = append(out, tj)
	}
	return out
}

// renderRun flattens a finished federation into a deterministic string:
// every job's terminal record, every lease's lifecycle, and the audit
// counters. Two runs of the same configuration must render
// byte-identically.
func renderRun(f *Federation) string {
	var b strings.Builder
	for _, js := range f.Jobs() {
		sh, _ := f.JobShard(js.ID)
		fmt.Fprintf(&b, "job %s shard=%d state=%s arrival=%.9f start=%.9f finish=%.9f nodes=%v retries=%d\n",
			js.ID, sh, js.State, js.Arrival, js.Start, js.Finish, js.Nodes, js.Retries)
	}
	for _, l := range f.Leases() {
		fmt.Fprintf(&b, "lease %d %d->%d %.1fW granted=%.9f settled=%.9f state=%s orphaned=%.9f attempts=%d forced=%v\n",
			l.ID, l.Lender, l.Borrower, l.Watts, l.GrantedAt, l.SettledAt, l.State,
			l.OrphanedAt, l.Attempts, l.Forced)
	}
	if f.ShardFaultsArmed() {
		downs, parts := f.ShardFaultStats()
		fmt.Fprintf(&b, "chaos downs=%d partitions=%d evacuated=%d\n", downs, parts, f.Evacuated())
	}
	audits, violations := f.AuditStats()
	fmt.Fprintf(&b, "events=%d audits=%d violations=%d\n", f.Events(), audits, violations)
	return b.String()
}

// TestFederationRunsToCompletion: a small federation schedules, runs
// and drains a trace with zero lost jobs.
func TestFederationRunsToCompletion(t *testing.T) {
	f, err := New(Config{Shards: shardCfg(2, 4, 800, jobsched.Backfill)})
	if err != nil {
		t.Fatal(err)
	}
	trace := scheduleTrace(t, f, 7, 24, 30)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	jobs := f.Jobs()
	if len(jobs) != len(trace) {
		t.Fatalf("got %d terminal jobs, want %d", len(jobs), len(trace))
	}
	for _, js := range jobs {
		if js.State != jobsched.JobCompleted {
			t.Errorf("job %s ended %s, want completed (%s)", js.ID, js.State, js.Reason)
		}
	}
	if audits, violations := f.AuditStats(); violations != 0 || audits == 0 {
		t.Errorf("audit stats: %d audits, %d violations", audits, violations)
	}
}

// TestFederationDeterministic: a 4-shard run with lending active must
// be byte-identical across repeats — jobs, leases and audit counts.
func TestFederationDeterministic(t *testing.T) {
	run := func() string {
		cfg := Config{
			Shards:  shardCfg(4, 4, 500, jobsched.AggressiveBackfill),
			Routing: LeastLoaded,
			Lending: Lending{Enabled: true, TTL: 90, QuantumW: 50},
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scheduleTrace(t, f, 11, 48, 12)
		if err := f.Run(); err != nil {
			t.Fatal(err)
		}
		return renderRun(f)
	}
	first := run()
	for i := 0; i < 2; i++ {
		if got := run(); got != first {
			t.Fatalf("repeat run %d diverged:\n--- first ---\n%s--- repeat ---\n%s", i, first, got)
		}
	}
	if !strings.Contains(first, "lease") {
		t.Log("note: no leases granted in determinism trace")
	}
}

// TestFederationMatchesSingleShardOracle: with locality routing and
// lending off, every shard is an independent scheduler, so the
// federated run of each partition must be timing-identical to a
// standalone batch run of the same jobs on the same cluster.
func TestFederationMatchesSingleShardOracle(t *testing.T) {
	const nShards = 4
	shards := shardCfg(nShards, 4, 900, jobsched.Backfill)
	f, err := New(Config{Shards: shards, Routing: Locality})
	if err != nil {
		t.Fatal(err)
	}
	mix := apps()
	r := rng.New(31)
	now := 0.0
	partitions := make([][]jobsched.Job, nShards)
	for i := 0; i < 64; i++ {
		now += r.Range(0, 25)
		id := fmt.Sprintf("j%04d", i)
		app := mix[i%len(mix)]
		if err := f.ScheduleArrivalPri(now, id, app, "", 0); err != nil {
			t.Fatal(err)
		}
		home := ShardFor(id, nShards)
		partitions[home] = append(partitions[home], jobsched.Job{ID: id, App: app, Arrival: now})
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}

	for si, part := range partitions {
		if len(part) == 0 {
			continue
		}
		sc := shards[si]
		cl := hw.NewCluster(sc.Nodes, hw.HaswellSpec(), sc.Sigma, sc.Seed)
		clip, err := core.New(cl)
		if err != nil {
			t.Fatal(err)
		}
		s, err := jobsched.New(cl, clip, jobsched.Config{
			Bound: sc.BudgetW, Policy: sc.Policy, Reallocate: sc.Reallocate,
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := s.Run(part)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string][2]float64, len(oracle.Jobs))
		for _, jr := range oracle.Jobs {
			want[jr.ID] = [2]float64{jr.Start, jr.Finish}
		}
		for _, job := range part {
			got, err := f.Status(job.ID)
			if err != nil {
				t.Fatal(err)
			}
			if home, _ := f.JobShard(job.ID); home != si {
				t.Fatalf("job %s routed to shard %d, want %d", job.ID, home, si)
			}
			w, ok := want[job.ID]
			if !ok {
				t.Fatalf("oracle lost job %s", job.ID)
			}
			if got.State != jobsched.JobCompleted || got.Start != w[0] || got.Finish != w[1] {
				t.Errorf("shard %d job %s: fed (%s, start %.9f, finish %.9f) != oracle (start %.9f, finish %.9f)",
					si, job.ID, got.State, got.Start, got.Finish, w[0], w[1])
			}
		}
	}
}

// TestLendingMovesWattsUnderCap: a starved shard borrows from an idle
// one; the aggregate cap holds in every per-event audit; every lease is
// terminal after the run; recalls fire when the lender's queue fills.
func TestLendingMovesWattsUnderCap(t *testing.T) {
	cfg := Config{
		// Shard 0 is small (one job at a time), shard 1 has slack.
		Shards: []ShardConfig{
			{Nodes: 4, BudgetW: 320, Sigma: 0.02, Seed: 100, Policy: jobsched.Backfill, Reallocate: true},
			{Nodes: 4, BudgetW: 1200, Sigma: 0.02, Seed: 101, Policy: jobsched.Backfill, Reallocate: true},
		},
		Routing: Locality,
		Lending: Lending{Enabled: true, TTL: 500, QuantumW: 60},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pin a burst of jobs onto shard 0 via locality keys; shard 1 stays
	// idle and lends.
	key0, key1 := localityKeys(t, 2)
	mix := apps()
	for i := 0; i < 10; i++ {
		key := key0
		if i >= 8 {
			key = key1 // a little work for shard 1 near the end
		}
		if err := f.ScheduleArrivalPri(float64(i)*15, fmt.Sprintf("j%02d", i), mix[i%len(mix)], key, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if len(f.Leases()) == 0 {
		t.Fatal("no leases were granted; lending never engaged")
	}
	if len(f.ActiveLeases()) != 0 {
		t.Errorf("%d leases still active after drain", len(f.ActiveLeases()))
	}
	for _, l := range f.Leases() {
		if l.State == LeaseActive {
			t.Errorf("lease %d still active", l.ID)
		}
		if l.SettledAt < l.GrantedAt {
			t.Errorf("lease %d settled at %.3f before grant at %.3f", l.ID, l.SettledAt, l.GrantedAt)
		}
	}
	if audits, violations := f.AuditStats(); violations != 0 {
		t.Errorf("%d audit violations in %d audits", violations, audits)
	}
	for _, js := range f.Jobs() {
		if js.State != jobsched.JobCompleted {
			t.Errorf("job %s ended %s (%s)", js.ID, js.State, js.Reason)
		}
	}
	// After drain every shard is back at its entitlement.
	for _, sh := range f.Shards() {
		if math.Abs(sh.Online.Bound()-sh.entitlement) > 1e-9 {
			t.Errorf("shard %d bound %.3f != entitlement %.3f after drain",
				sh.ID, sh.Online.Bound(), sh.entitlement)
		}
	}
}

// localityKeys finds keys that hash to shards 0 and 1 of a 2-shard
// federation.
func localityKeys(t *testing.T, n int) (key0, key1 string) {
	t.Helper()
	for i := 0; key0 == "" || key1 == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		switch ShardFor(k, n) {
		case 0:
			if key0 == "" {
				key0 = k
			}
		case 1:
			if key1 == "" {
				key1 = k
			}
		}
		if i > 1000 {
			t.Fatal("could not find locality keys")
		}
	}
	return key0, key1
}

// TestLeasePropertyRandomTraces: across seeded random traces on an
// aggregate-capped federation, the per-event audit must never find a
// violation, every lease must settle, and no job may be lost.
func TestLeasePropertyRandomTraces(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := Config{
			Shards:  shardCfg(3, 4, 600, jobsched.AggressiveBackfill),
			Routing: PowerHeadroom,
			Lending: Lending{
				Enabled: true, AggregateCapW: 1500, // below the 1800 W nameplate
				TTL: 60, QuantumW: 40,
			},
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace := scheduleTrace(t, f, seed, 36, 10)
		if err := f.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		audits, violations := f.AuditStats()
		if violations != 0 {
			t.Errorf("seed %d: %d violations in %d audits", seed, violations, audits)
		}
		if uint64(audits) < f.Events() {
			t.Errorf("seed %d: only %d audits for %d events", seed, audits, f.Events())
		}
		terminal := 0
		for _, js := range f.Jobs() {
			if js.State.Terminal() {
				terminal++
			}
		}
		if terminal != len(trace) {
			t.Errorf("seed %d: %d terminal jobs, want %d", seed, terminal, len(trace))
		}
		for _, l := range f.Leases() {
			if l.State == LeaseActive {
				t.Errorf("seed %d: lease %d never settled", seed, l.ID)
			}
		}
		// The scaled entitlements must sum to the cap.
		var sum float64
		for _, sh := range f.Shards() {
			sum += sh.entitlement
		}
		if math.Abs(sum-1500) > 1e-6 {
			t.Errorf("seed %d: entitlements sum %.3f, want 1500", seed, sum)
		}
	}
}

// TestRoutingPolicies: each policy picks the shard its contract
// promises on a hand-built state.
func TestRoutingPolicies(t *testing.T) {
	f, err := New(Config{Shards: shardCfg(3, 4, 800, jobsched.FCFS)})
	if err != nil {
		t.Fatal(err)
	}
	// Load shard 0 with one running job so least-loaded prefers 1.
	if err := f.ScheduleArrivalPri(0, "warm", workload.CoMD(), "", 0); err != nil {
		t.Fatal(err)
	}
	for {
		ok, err := f.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if s, _ := f.JobShard("warm"); s >= 0 && f.Now() >= 0 {
			break
		}
	}
	home, _ := f.JobShard("warm")
	if home != 0 {
		t.Fatalf("first job routed to shard %d, want 0", home)
	}

	f.cfg.Routing = LeastLoaded
	if got := f.pickShard(fedArrival{id: "x"}); got != 1 {
		t.Errorf("least-loaded picked %d, want 1", got)
	}
	f.cfg.Routing = PowerHeadroom
	if got := f.pickShard(fedArrival{id: "x"}); got == 0 {
		t.Errorf("power-headroom picked the loaded shard 0")
	}
	f.cfg.Routing = Locality
	want := ShardFor("dataset-17", 3)
	if got := f.pickShard(fedArrival{id: "x", key: "dataset-17"}); got != want {
		t.Errorf("locality picked %d, want %d", got, want)
	}
	if _, ok := ParsePolicy("locality"); !ok {
		t.Error("ParsePolicy rejected locality")
	}
	if _, ok := ParsePolicy("nope"); ok {
		t.Error("ParsePolicy accepted nonsense")
	}
}

// TestOnlineStepPrimitives: the decomposed run-loop primitives agree
// with each other on a live session.
func TestOnlineStepPrimitives(t *testing.T) {
	cl := hw.NewCluster(4, hw.HaswellSpec(), 0.02, 1)
	clip, err := core.New(cl)
	if err != nil {
		t.Fatal(err)
	}
	s, err := jobsched.New(cl, clip, jobsched.Config{Bound: 900})
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Online()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Next(); ok {
		t.Fatal("fresh session has pending events")
	}
	js, err := o.SubmitPri("a", workload.CoMD(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pt, ok := o.Next()
	if !ok {
		t.Fatal("running job left no completion event pending")
	}
	if pt != js.EstFinish {
		t.Fatalf("peek = (%v,%v), want (%v,true)", pt, ok, js.EstFinish)
	}
	if err := o.ProcessNextEvent(); err != nil {
		t.Fatal(err)
	}
	if got := o.Now(); got != pt {
		t.Errorf("clock %v after step, want %v", got, pt)
	}
	st, err := o.Status("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobsched.JobCompleted {
		t.Errorf("state %v after stepping the completion, want completed", st.State)
	}
	if _, ok := o.Next(); ok {
		t.Error("events still pending after the only completion")
	}
}

// TestOnlineSetBound: online demand-response — raising the bound starts
// queued work; dropping it below the allocation throttles but never
// breaks the bound invariant.
func TestOnlineSetBound(t *testing.T) {
	cl := hw.NewCluster(4, hw.HaswellSpec(), 0.02, 1)
	clip, err := core.New(cl)
	if err != nil {
		t.Fatal(err)
	}
	s, err := jobsched.New(cl, clip, jobsched.Config{Bound: 320, Policy: jobsched.FCFS})
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Online()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.SubmitPri("a", workload.CoMD(), 0); err != nil {
		t.Fatal(err)
	}
	jb, err := o.SubmitPri("b", workload.CoMD(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if jb.State != jobsched.JobQueued {
		t.Fatalf("second job %v under a one-job bound, want queued", jb.State)
	}
	if err := o.SetBound(900); err != nil {
		t.Fatal(err)
	}
	jb, err = o.Status("b")
	if err != nil {
		t.Fatal(err)
	}
	if jb.State != jobsched.JobRunning {
		t.Errorf("second job %v after raising the bound, want running", jb.State)
	}
	if o.Bound() != 900 {
		t.Errorf("Bound() = %v, want 900", o.Bound())
	}
	// Drop below the current allocation: jobs shed power, invariant holds.
	if err := o.SetBound(400); err != nil {
		t.Fatal(err)
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, js := range o.Jobs() {
		if js.State != jobsched.JobCompleted {
			t.Errorf("job %s ended %s after shed/drain", js.ID, js.State)
		}
	}
	if err := o.SetBound(-5); err == nil {
		t.Error("negative bound accepted")
	}
}
