package fed

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/jobsched"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// buildDeterministicFed reproduces TestFederationDeterministic's
// four-shard lending federation with the given trace seed.
func buildDeterministicFed(t *testing.T, seed uint64, lending bool) *Federation {
	t.Helper()
	cfg := Config{
		Shards:  shardCfg(4, 4, 500, jobsched.AggressiveBackfill),
		Routing: LeastLoaded,
		Lending: Lending{Enabled: lending, TTL: 90, QuantumW: 50},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scheduleTrace(t, f, seed, 48, 12)
	return f
}

// TestParallelByteIdentity: RunParallel must reproduce the serial run
// byte for byte — same jobs, same leases, same audit counters — for
// every worker count, with lending on and off. Least-loaded routing
// never replays partitioned, so these shapes check the serial stepping
// regime plus the parallel drain.
func TestParallelByteIdentity(t *testing.T) {
	for _, lending := range []bool{true, false} {
		for _, seed := range []uint64{11, 23, 47} {
			f := buildDeterministicFed(t, seed, lending)
			if err := f.Run(); err != nil {
				t.Fatalf("serial lending=%v seed=%d: %v", lending, seed, err)
			}
			want := renderRun(t, f)
			for _, workers := range []int{1, 2, 4, 8} {
				g := buildDeterministicFed(t, seed, lending)
				if err := g.RunParallel(workers); err != nil {
					t.Fatalf("parallel(%d) lending=%v seed=%d: %v", workers, lending, seed, err)
				}
				if got := renderRun(t, g); got != want {
					t.Fatalf("parallel(%d) lending=%v seed=%d diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s",
						workers, lending, seed, want, got)
				}
			}
		}
	}
}

// TestPartitionedByteIdentity: locality routing with lending off takes
// the partitioned replay (one replay per shard); it must still match
// the serial run byte for byte.
func TestPartitionedByteIdentity(t *testing.T) {
	build := func() *Federation {
		f, err := New(Config{
			Shards:  shardCfg(8, 4, 500, jobsched.AggressiveBackfill),
			Routing: Locality,
		})
		if err != nil {
			t.Fatal(err)
		}
		mix := apps()
		r := rng.New(5)
		now := 0.0
		for i := 0; i < 96; i++ {
			now += r.Range(0, 4)
			id := fmt.Sprintf("j%04d", i)
			if err := f.ScheduleArrivalPri(now, id, mix[i%len(mix)], id, 0); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	f := build()
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	want := renderRun(t, f)
	for _, workers := range []int{1, 2, 4, 8} {
		g := build()
		if err := g.RunParallel(workers); err != nil {
			t.Fatalf("parallel(%d): %v", workers, err)
		}
		if got := renderRun(t, g); got != want {
			t.Fatalf("partitioned(%d) diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, want, got)
		}
	}
}

// TestParallelLeaseProperty: the random-trace lease property suite must
// hold under the parallel executor exactly as it does under Run — the
// cap is never violated, every lease settles, no job is lost.
func TestParallelLeaseProperty(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := Config{
			Shards:  shardCfg(3, 4, 600, jobsched.AggressiveBackfill),
			Routing: PowerHeadroom,
			Lending: Lending{
				Enabled: true, AggregateCapW: 1500,
				TTL: 60, QuantumW: 40,
			},
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace := scheduleTrace(t, f, seed, 36, 10)
		if err := f.RunParallel(4); err != nil {
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
	}
}

// TestShardHeap: ordering, tie-breaks, re-key and removal of the
// indexed min-heap.
func TestShardHeap(t *testing.T) {
	h := newShardHeap(6)
	if _, _, ok := h.min(); ok {
		t.Fatal("empty heap reported a min")
	}
	h.update(3, 5.0, true)
	h.update(1, 2.0, true)
	h.update(4, 2.0, true) // ties break to the lower id
	h.update(0, 9.0, true)
	if id, tm, ok := h.min(); !ok || id != 1 || tm != 2.0 {
		t.Fatalf("min = (%d, %v, %v), want (1, 2, true)", id, tm, ok)
	}
	h.update(1, 7.0, true) // re-key past the tie partner
	if id, _, _ := h.min(); id != 4 {
		t.Fatalf("min after re-key = %d, want 4", id)
	}
	h.update(4, 0, false) // remove
	if id, _, _ := h.min(); id != 3 {
		t.Fatalf("min after removal = %d, want 3", id)
	}
	h.update(4, 0, false) // double-remove is a no-op
	if h.size() != 3 {
		t.Fatalf("size = %d, want 3", h.size())
	}

	// Drain in order against a sorted reference.
	h2 := newShardHeap(16)
	r := rng.New(9)
	type entry struct {
		id int
		t  float64
	}
	var ref []entry
	for id := 0; id < 16; id++ {
		tm := float64(r.Intn(8)) // force ties
		h2.update(id, tm, true)
		ref = append(ref, entry{id, tm})
	}
	sort.Slice(ref, func(i, j int) bool {
		if ref[i].t != ref[j].t {
			return ref[i].t < ref[j].t
		}
		return ref[i].id < ref[j].id
	})
	for _, want := range ref {
		id, tm, ok := h2.min()
		if !ok || id != want.id || tm != want.t {
			t.Fatalf("drain got (%d, %v, %v), want (%d, %v)", id, tm, ok, want.id, want.t)
		}
		h2.update(id, 0, false)
	}
}

// TestLendingInert: the broker-inertness predicate's clauses fire in
// the documented order.
func TestLendingInert(t *testing.T) {
	f, err := New(Config{
		Shards:  shardCfg(2, 4, 600, jobsched.FCFS),
		Lending: Lending{Enabled: true, QuantumW: 40, TTL: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.lendingInert() {
		t.Error("a 600 W shard covers a 40 W quantum: the broker must stay live")
	}
	f.active = append(f.active, &Lease{})
	if f.lendingInert() {
		t.Error("active lease must keep the broker live")
	}
	f.active = f.active[:0]

	// No shard can cover a quantum larger than its whole envelope.
	h, err := New(Config{
		Shards:  shardCfg(2, 4, 600, jobsched.FCFS),
		Lending: Lending{Enabled: true, QuantumW: 1000, TTL: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !h.lendingInert() {
		t.Error("no shard covers the quantum: the broker must be inert")
	}

	// Lending disabled is always inert.
	g, err := New(Config{Shards: shardCfg(2, 4, 600, jobsched.FCFS)})
	if err != nil {
		t.Fatal(err)
	}
	if !g.lendingInert() {
		t.Error("lending-off federation must be broker-inert")
	}
}

// benchFed builds the standard benchmark federation: 64 locality-routed
// shards, lending off, a 2048-job burst trace.
func benchFed(b *testing.B) *Federation {
	b.Helper()
	cfg := Config{Routing: Locality}
	for i := 0; i < 64; i++ {
		cfg.Shards = append(cfg.Shards, ShardConfig{
			Nodes: 4, BudgetW: 400, Sigma: 0.02, Seed: int64(1000 + i),
			Policy: jobsched.AggressiveBackfill, Reallocate: true,
		})
	}
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mix := workload.Suite()
	r := rng.New(1)
	now := 0.0
	for i := 0; i < 2048; i++ {
		now += r.Range(0, 0.5)
		id := fmt.Sprintf("job-%05d", i)
		if err := f.ScheduleArrivalPri(now, id, mix[r.Intn(len(mix))], id, 0); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

func benchRun(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := benchFed(b)
		b.StartTimer()
		var err error
		if workers == 0 {
			err = f.Run()
		} else {
			err = f.RunParallel(workers)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFedSerial(b *testing.B)    { benchRun(b, 0) }
func BenchmarkFedParallel1(b *testing.B) { benchRun(b, 1) }
func BenchmarkFedParallel2(b *testing.B) { benchRun(b, 2) }
func BenchmarkFedParallel4(b *testing.B) { benchRun(b, 4) }

// TestRunParallelTelemetryMatchesRun: on a reduced fed-scale shape
// (locality routing, lending off, so RunParallel takes the partitioned
// replay) every counter and every histogram count that Run adds to
// telemetry.Default, and the event log's total, must be added
// identically by RunParallel at 1, 2 and 4 workers, whose shards
// write their own cells of Default's counter and histogram families
// from whichever goroutine runs them; every read sums the cells.
// Histogram sums are left out (most are wall times), as are the
// executor's own replay metrics, which only RunParallel records.
func TestRunParallelTelemetryMatchesRun(t *testing.T) {
	build := func() *Federation {
		cfg := Config{Routing: Locality}
		for i := 0; i < 16; i++ {
			cfg.Shards = append(cfg.Shards, ShardConfig{
				Nodes: 4, BudgetW: 400, Sigma: 0.02, Seed: int64(1000 + i),
				Policy: jobsched.AggressiveBackfill, Reallocate: true,
			})
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mix := workload.Suite()
		r := rng.New(1)
		now := 0.0
		for i := 0; i < 2048; i++ {
			now += r.Range(0, 0.5)
			id := fmt.Sprintf("fed-scale-%d", i)
			if err := f.ScheduleArrivalPri(now, id, mix[r.Intn(len(mix))], id, 0); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	replayOnly := map[string]bool{
		"clip_fed_windows_total":       true,
		"clip_fed_window_events_total": true,
		"clip_fed_barrier_seconds":     true,
	}
	// delta runs f with run and returns what it added to Default.
	delta := func(f *Federation, run func() error) map[string]uint64 {
		before := telemetry.Default.Snapshot()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		after := telemetry.Default.Snapshot()
		d := map[string]uint64{"events_total": after.EventsTotal - before.EventsTotal}
		for name, v := range after.Counters {
			if !replayOnly[name] {
				d["counter "+name] = v - before.Counters[name]
			}
		}
		for name, h := range after.Histograms {
			if !replayOnly[name] {
				d["histogram count "+name] = h.Count - before.Histograms[name].Count
			}
		}
		return d
	}
	serial := build()
	want := delta(serial, serial.Run)
	if want["counter clip_jobsched_jobs_finished_total"] != 2048 {
		t.Fatalf("Run finished %d jobs, want 2048", want["counter clip_jobsched_jobs_finished_total"])
	}
	for _, workers := range []int{1, 2, 4} {
		f := build()
		windows := telemetry.Default.Counter("clip_fed_windows_total", "").Value()
		got := delta(f, func() error { return f.RunParallel(workers) })
		if telemetry.Default.Counter("clip_fed_windows_total", "").Value() != windows+1 {
			t.Fatalf("RunParallel(%d) did not take the partitioned replay", workers)
		}
		names := make([]string, 0, len(want))
		for name := range want {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if got[name] != want[name] {
				t.Errorf("RunParallel(%d): %s delta %d, Run's %d", workers, name, got[name], want[name])
			}
		}
		for name, v := range got {
			if _, ok := want[name]; !ok && v != 0 {
				t.Errorf("RunParallel(%d): %s delta %d, absent from Run", workers, name, v)
			}
		}
	}
}

// TestKnowledgeFilledOncePerFederation: every shard's CLIP reads one
// knowledge table, which profiles each application once per federation
// and searches each (application, per-node budget, tolerance) once,
// whichever shard asks first. Only the shard whose call profiles counts
// a profile miss, so misses equal profiling passes. The counts are the
// same under Run and RunParallel at 1, 2 and 4 workers.
func TestKnowledgeFilledOncePerFederation(t *testing.T) {
	passes := telemetry.Default.Counter("clip_profiling_passes_total", "")
	misses := telemetry.Default.Counter("clip_profile_cache_misses_total", "")
	searches := telemetry.Default.Counter("clip_recommend_calls_total", "")
	mix := workload.Suite()[:6]
	build := func() *Federation {
		cfg := Config{Routing: Locality}
		for i := 0; i < 8; i++ {
			cfg.Shards = append(cfg.Shards, ShardConfig{
				Nodes: 4, BudgetW: float64(400 + 60*i), Sigma: 0.02, Seed: int64(1000 + i),
				Policy: jobsched.AggressiveBackfill, Reallocate: true,
			})
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(3)
		now := 0.0
		for i := 0; i < 512; i++ {
			now += r.Range(0, 0.5)
			id := fmt.Sprintf("k%d", i)
			if err := f.ScheduleArrivalPri(now, id, mix[r.Intn(len(mix))], id, 0); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	answers := -1
	for _, workers := range []int{0, 1, 2, 4} {
		f := build()
		know := f.Shards()[0].CLIP.Knowledge()
		for _, sh := range f.Shards() {
			if sh.CLIP.Knowledge() != know {
				t.Fatalf("shard %d reads its own knowledge table", sh.ID)
			}
		}
		p0, m0, s0 := passes.Value(), misses.Value(), searches.Value()
		run := f.Run
		if workers > 0 {
			run = func() error { return f.RunParallel(workers) }
		}
		if err := run(); err != nil {
			t.Fatal(err)
		}
		if got := passes.Value() - p0; got != uint64(len(mix)) {
			t.Errorf("workers=%d: %d profiling passes for %d applications", workers, got, len(mix))
		}
		if got := misses.Value() - m0; got != uint64(len(mix)) {
			t.Errorf("workers=%d: %d profile misses for %d applications", workers, got, len(mix))
		}
		n := know.Answers()
		if got := searches.Value() - s0; got != uint64(n) {
			t.Errorf("workers=%d: %d searches for %d distinct questions", workers, got, n)
		}
		if answers >= 0 && n != answers {
			t.Errorf("workers=%d: %d distinct questions, Run asked %d", workers, n, answers)
		}
		if workers == 0 {
			answers = n
		}
	}
	if answers <= len(mix) {
		t.Errorf("the trace asked only %d node-level questions", answers)
	}
	t.Logf("%d applications, %d node-level questions", len(mix), answers)
}
