package fed

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/jobsched"
	"repro/internal/rng"
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
			want := renderRun(f)
			for _, workers := range []int{1, 2, 4, 8} {
				g := buildDeterministicFed(t, seed, lending)
				if err := g.RunParallel(workers); err != nil {
					t.Fatalf("parallel(%d) lending=%v seed=%d: %v", workers, lending, seed, err)
				}
				if got := renderRun(g); got != want {
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
	want := renderRun(f)
	for _, workers := range []int{1, 2, 4, 8} {
		g := build()
		if err := g.RunParallel(workers); err != nil {
			t.Fatalf("parallel(%d): %v", workers, err)
		}
		if got := renderRun(g); got != want {
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
