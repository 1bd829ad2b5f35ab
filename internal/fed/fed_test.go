package fed

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/jobsched"
	"repro/internal/rng"
	"repro/internal/telemetry"
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

// shardJob is one routed job's status and the shard whose session
// lists it.
type shardJob struct {
	jobsched.JobStatus
	shard int
}

// routedJobs merges every shard session's job list by id: each routed
// job with its shard, ordered by id. A job lives in exactly one
// session, so an id listed by two shards fails the test.
func routedJobs(t testing.TB, f *Federation) []shardJob {
	t.Helper()
	var out []shardJob
	for _, sh := range f.shards {
		for _, js := range sh.Online.Jobs() {
			out = append(out, shardJob{js, sh.ID})
		}
	}
	slices.SortFunc(out, func(a, b shardJob) int { return strings.Compare(a.ID, b.ID) })
	for i := 1; i < len(out); i++ {
		if out[i].ID == out[i-1].ID {
			t.Fatalf("job %s listed by shards %d and %d", out[i].ID, out[i-1].shard, out[i].shard)
		}
	}
	return out
}

// renderRun flattens a finished federation into a deterministic string:
// every job's terminal record, every lease's lifecycle, and the audit
// counters. Two runs of the same configuration must render
// byte-identically.
func renderRun(t testing.TB, f *Federation) string {
	var b strings.Builder
	for _, js := range routedJobs(t, f) {
		fmt.Fprintf(&b, "job %s shard=%d state=%s arrival=%.9f start=%.9f finish=%.9f nodes=%v retries=%d\n",
			js.ID, js.shard, js.State, js.Arrival, js.Start, js.Finish, js.Nodes, js.Retries)
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

// TestNewRejectsNonFiniteWatts: New refuses a NaN or ±Inf shard budget,
// aggregate cap, lease quantum or lease TTL.
func TestNewRejectsNonFiniteWatts(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			name string
			set  func(*Config)
		}{
			{"BudgetW", func(c *Config) { c.Shards[1].BudgetW = v }},
			{"AggregateCapW", func(c *Config) { c.Lending.AggregateCapW = v }},
			{"QuantumW", func(c *Config) { c.Lending.QuantumW = v }},
			{"TTL", func(c *Config) { c.Lending.TTL = v }},
		} {
			cfg := Config{Shards: shardCfg(2, 2, 300, jobsched.FCFS), Lending: Lending{Enabled: true}}
			tc.set(&cfg)
			if _, err := New(cfg); err == nil {
				t.Errorf("%s = %g accepted", tc.name, v)
			}
		}
	}
}

// TestNewRejectsBadSigma: New refuses a negative or non-finite shard
// variability sigma; zero stays valid.
func TestNewRejectsBadSigma(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1} {
		cfg := Config{Shards: shardCfg(2, 2, 300, jobsched.FCFS)}
		cfg.Shards[1].Sigma = v
		if _, err := New(cfg); err == nil {
			t.Errorf("Sigma = %g accepted", v)
		}
	}
	cfg := Config{Shards: shardCfg(2, 2, 300, jobsched.FCFS)}
	cfg.Shards[1].Sigma = 0
	if _, err := New(cfg); err != nil {
		t.Errorf("Sigma = 0 rejected: %v", err)
	}
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
	jobs := routedJobs(t, f)
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
		return renderRun(t, f)
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
		home := shardFor(id, nShards)
		partitions[home] = append(partitions[home], jobsched.Job{ID: id, App: app, Arrival: now})
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	routed := make(map[string]shardJob)
	for _, js := range routedJobs(t, f) {
		routed[js.ID] = js
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
			got, ok := routed[job.ID]
			if !ok {
				t.Fatalf("job %s not routed", job.ID)
			}
			if got.shard != si {
				t.Fatalf("job %s routed to shard %d, want %d", job.ID, got.shard, si)
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
// TestShardsShareOneNPModel: New trains the NP regression once and
// every shard's CLIP holds that one model, which is the model a bare
// core.New trains on any of the shard clusters.
func TestShardsShareOneNPModel(t *testing.T) {
	shards := make([]ShardConfig, 8)
	sigmas := []float64{0.08, 0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06}
	for i := range shards {
		shards[i] = ShardConfig{
			Nodes: 2 + i%3, BudgetW: 400, Sigma: sigmas[i], Seed: int64(1000 + 7*i),
			Policy: jobsched.FCFS,
		}
	}
	f, err := New(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	model := f.Shards()[0].CLIP.NPModel
	if model == nil {
		t.Fatal("shard 0 has no NP model")
	}
	for _, sh := range f.Shards() {
		if sh.CLIP.NPModel != model {
			t.Errorf("shard %d holds its own NP model, want the federation's shared one", sh.ID)
		}
	}
	bare, err := core.New(f.Shards()[0].Cluster)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare.NPModel, model) {
		t.Errorf("shared model %+v differs from the one core.New trains on shard 0's cluster %+v", model, bare.NPModel)
	}
}

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
	for _, js := range routedJobs(t, f) {
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
		switch shardFor(k, n) {
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

// TestAuditTrips corrupts one piece of broker state per case and checks
// that the per-event audit reports exactly that violation kind.
func TestAuditTrips(t *testing.T) {
	sc, err := ParseShardScenario("crash-mtbf=400,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind    string
		corrupt func(f *Federation)
	}{
		{"mirror-drift", func(f *Federation) { f.shards[0].eff += 10 }},
		{"cap-exceeded", func(f *Federation) { f.cfg.Lending.AggregateCapW -= 10 }},
		{"lent-imbalance", func(f *Federation) { f.shards[0].lentW += 10 }},
		{"borrowed-imbalance", func(f *Federation) { f.shards[1].borrowedW += 10 }},
		{"orphan-healthy", func(f *Federation) {
			// A balanced ledger, so only the orphan's healthy endpoints
			// are wrong.
			f.orphans = append(f.orphans, &Lease{Lender: 0, Borrower: 1, Watts: 10, State: LeaseOrphaned})
			f.shards[0].lentW += 10
			f.shards[1].borrowedW += 10
		}},
	} {
		f, err := New(Config{Shards: shardCfg(2, 2, 300, jobsched.FCFS),
			Lending: Lending{Enabled: true}, ShardFaults: sc})
		if err != nil {
			t.Fatal(err)
		}
		f.auditCheck()
		if v := f.Violations(); len(v) != 0 {
			t.Fatalf("%s: clean federation fails its audit: %+v", tc.kind, v)
		}
		tc.corrupt(f)
		f.auditCheck()
		if v := f.Violations(); len(v) != 1 || v[0].Kind != tc.kind {
			t.Errorf("%s: audit reported %+v", tc.kind, v)
		}
		if f.Err() == nil {
			t.Errorf("%s: violation not latched as the federation's failure", tc.kind)
		}
	}
}

// TestLeaseLedger checks every lease's terminal record against its
// meaning and against the lease counters, after the lending and chaos
// shapes under Run and RunParallel(2). Every lease is terminal; the
// leases in each terminal state number what the matching counter
// added, and together the leases granted. A lease expired exactly when
// it settled at its expiry time, and a recall or release settled before
// it: federation events order ahead of a same-time expiry.
func TestLeaseLedger(t *testing.T) {
	counters := map[LeaseState]string{
		LeaseExpired:   "clip_fed_lease_expiries_total",
		LeaseRecalled:  "clip_fed_lease_recalls_total",
		LeaseReleased:  "clip_fed_lease_releases_total",
		LeaseReclaimed: "clip_fed_lease_reclaims_total",
	}
	seen := map[LeaseState]int{}
	for _, g := range []goldenFed{{name: "lending", routing: LeastLoaded, lending: true, gap: 2}, goldenFeds[0]} {
		for _, workers := range []int{1, 2} {
			f := g.build(t)
			before := telemetry.Default.Snapshot()
			run := f.Run
			if workers > 1 {
				run = func() error { return f.RunParallel(workers) }
			}
			if err := run(); err != nil {
				t.Fatalf("%s workers=%d: %v", g.name, workers, err)
			}
			after := telemetry.Default.Snapshot()
			delta := func(name string) int { return int(after.Counters[name] - before.Counters[name]) }
			count := map[LeaseState]int{}
			for _, l := range f.Leases() {
				count[l.State]++
				seen[l.State]++
				if counters[l.State] == "" {
					t.Errorf("%s workers=%d: lease %d not terminal: %s", g.name, workers, l.ID, l.State)
				}
				if (l.State == LeaseExpired) != (l.SettledAt == l.ExpiresAt) {
					t.Errorf("%s workers=%d: lease %d %s settled at %v, expires at %v",
						g.name, workers, l.ID, l.State, l.SettledAt, l.ExpiresAt)
				}
				if (l.State == LeaseRecalled || l.State == LeaseReleased) && !(l.SettledAt < l.ExpiresAt) {
					t.Errorf("%s workers=%d: lease %d %s at %v, not before its expiry %v",
						g.name, workers, l.ID, l.State, l.SettledAt, l.ExpiresAt)
				}
			}
			total := 0
			for state, name := range counters {
				if count[state] != delta(name) {
					t.Errorf("%s workers=%d: %d leases %s, %s added %d",
						g.name, workers, count[state], state, name, delta(name))
				}
				total += count[state]
			}
			if granted := delta("clip_fed_leases_total"); total != granted || total != len(f.Leases()) {
				t.Errorf("%s workers=%d: %d terminal leases of %d, clip_fed_leases_total added %d",
					g.name, workers, total, len(f.Leases()), granted)
			}
		}
	}
	for state := range counters {
		if seen[state] == 0 {
			t.Errorf("no lease ended %s: the shapes do not cover every terminal state", state)
		}
	}
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
		for _, js := range routedJobs(t, f) {
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
	home := -1
	for home < 0 {
		ok, err := f.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if jobs := routedJobs(t, f); len(jobs) == 1 {
			home = jobs[0].shard
		}
	}
	if home != 0 {
		t.Fatalf("first job routed to shard %d, want 0", home)
	}

	f.cfg.Routing = LeastLoaded
	if got := f.pickShard(&fedArrival{id: "x"}); got != 1 {
		t.Errorf("least-loaded picked %d, want 1", got)
	}
	f.cfg.Routing = PowerHeadroom
	if got := f.pickShard(&fedArrival{id: "x"}); got == 0 {
		t.Errorf("power-headroom picked the loaded shard 0")
	}
	f.cfg.Routing = Locality
	want := shardFor("dataset-17", 3)
	if got := f.pickShard(&fedArrival{id: "x", key: "dataset-17"}); got != want {
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

// TestScheduleArrivalRejectedTimeFreesID: an arrival time the engine
// rejects must leave no trace — the id stays unknown, and a retry of
// the same id at a valid time is accepted and routed exactly once.
func TestScheduleArrivalRejectedTimeFreesID(t *testing.T) {
	cases := []struct {
		name string
		t    func(now float64) float64
	}{
		{"nan", func(float64) float64 { return math.NaN() }},
		{"+inf", func(float64) float64 { return math.Inf(1) }},
		{"past", func(now float64) float64 { return now - 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := New(Config{Shards: shardCfg(2, 4, 400, jobsched.FCFS)})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.ScheduleArrivalPri(5, "warm", workload.CoMD(), "", 0); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Step(); err != nil { // clock to 5: "past" is now in reach
				t.Fatal(err)
			}
			if err := f.ScheduleArrivalPri(c.t(f.Now()), "x", workload.CoMD(), "", 0); err == nil {
				t.Fatalf("time %v accepted", c.t(f.Now()))
			}
			if _, ok := f.scheduled.Lookup("x", f.arrivalID); ok {
				t.Fatal("rejected arrival left the id scheduled")
			}
			if n := f.ArrivalsPending(); n != 0 {
				t.Fatalf("%d arrivals pending after the rejection", n)
			}
			if err := f.ScheduleArrivalPri(f.Now()+1, "x", workload.CoMD(), "", 0); err != nil {
				t.Fatalf("retry at a valid time: %v", err)
			}
			if err := f.Run(); err != nil {
				t.Fatal(err)
			}
			routed := 0
			for _, sh := range f.Shards() {
				routed += sh.submitted
			}
			if routed != 2 {
				t.Errorf("%d arrivals routed, want 2 (warm and x)", routed)
			}
			listed := 0
			for _, js := range routedJobs(t, f) {
				if js.ID == "x" {
					listed++
				}
			}
			if listed != 1 {
				t.Errorf("retried arrival listed by %d shards, want 1", listed)
			}
		})
	}
}

// TestScheduleArrivalRejectsDuplicateID: an id is taken federation-wide
// once ScheduleArrivalPri accepts it. A second copy is rejected while
// the first is still pending, after it was routed, and after a shard
// crash evacuated it, and a rejection leaves ArrivalsPending as it was.
func TestScheduleArrivalRejectsDuplicateID(t *testing.T) {
	f, err := New(chaosConfig(t, true, "crash-mtbf=300,mttr=120,part-mtbf=400,part-dur=80,seed=9"))
	if err != nil {
		t.Fatal(err)
	}
	trace := scheduleTrace(t, f, 5, 96, 3)
	dup := func(stage, id string) {
		t.Helper()
		pending := f.ArrivalsPending()
		if err := f.ScheduleArrivalPri(f.Now()+1, id, workload.CoMD(), "", 0); err == nil {
			t.Errorf("%s: duplicate id %s accepted", stage, id)
		}
		if got := f.ArrivalsPending(); got != pending {
			t.Errorf("%s: %d arrivals pending after the rejection, want %d", stage, got, pending)
		}
	}
	step := func() {
		t.Helper()
		if ok, err := f.Step(); err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
	shardOf := func() map[string]int {
		m := make(map[string]int)
		for _, js := range routedJobs(t, f) {
			m[js.ID] = js.shard
		}
		return m
	}

	dup("pending", trace[0].id)
	for len(routedJobs(t, f)) == 0 {
		step()
	}
	dup("routed", trace[0].id)

	var before map[string]int
	for f.Evacuated() == 0 {
		before = shardOf()
		step()
	}
	moved := ""
	for id, sh := range shardOf() {
		if prev, ok := before[id]; ok && prev != sh && (moved == "" || id < moved) {
			moved = id
		}
	}
	if moved == "" {
		t.Fatal("the first evacuation moved no routed job")
	}
	dup("evacuated", moved)

	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(routedJobs(t, f)); n != len(trace) {
		t.Errorf("%d jobs routed, want %d", n, len(trace))
	}
}

// TestScheduleArrivalsCopyNothing schedules 65,536 arrivals on a fresh
// federation of the fed-scale shape (64 shards of 4 nodes): the arrival
// arena grows a block at a time, so no arrival moves, and the federation
// engine cuts its events from slabs. The loop may make at most one heap
// allocation per 100 arrivals, and it may allocate at most twice the
// bytes its structures (arena, id index, engine queue, event slabs)
// still hold once it is done.
func TestScheduleArrivalsCopyNothing(t *testing.T) {
	cfg := Config{Routing: Locality}
	for i := 0; i < 64; i++ {
		cfg.Shards = append(cfg.Shards, ShardConfig{
			Nodes: 4, BudgetW: 400, Sigma: 0.02, Seed: int64(1000 + i),
			Policy: jobsched.AggressiveBackfill, Reallocate: true,
		})
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 65536
	r := rng.New(1)
	suite := workload.Suite()
	ids, ts, apps := make([]string, n), make([]float64, n), make([]*workload.Spec, n)
	now := 0.0
	for i := range ids {
		now += r.Range(0, 0.5)
		ids[i], ts[i], apps[i] = fmt.Sprintf("a%05d", i), now, suite[r.Intn(len(suite))]
	}

	var before, after, held runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var first *fedArrival
	for i := range ids {
		if err := f.ScheduleArrivalPri(ts[i], ids[i], apps[i], ids[i], 0); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = f.arrival(0)
		}
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(f)

	if f.arrival(0) != first {
		t.Error("arrival 0 moved while later arrivals were scheduled")
	}
	if *first != (fedArrival{id: ids[0], app: apps[0], key: ids[0], t: ts[0]}) {
		t.Errorf("arrival 0 reads %+v", *first)
	}
	allocs := after.Mallocs - before.Mallocs
	bytes := int64(after.TotalAlloc - before.TotalAlloc)
	kept := int64(held.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d arrivals: %d allocations, %.1f MB allocated, %.1f MB held", n, allocs, float64(bytes)/1e6, float64(kept)/1e6)
	if allocs > n/100 {
		t.Errorf("scheduling %d arrivals made %d allocations, want at most %d", n, allocs, n/100)
	}
	if bytes > 2*kept {
		t.Errorf("scheduling %d arrivals allocated %d bytes, over twice the %d its structures hold", n, bytes, kept)
	}
}
