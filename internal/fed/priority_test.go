package fed

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/jobsched"
	"repro/internal/rng"
	"repro/internal/workload"
)

// buildPriorityFed wires a preempting federation over a mixed-priority
// trace: roughly a third of the jobs arrive at priority 5.
func buildPriorityFed(t *testing.T, seed uint64, faults string) *Federation {
	t.Helper()
	shards := shardCfg(4, 4, 500, jobsched.AggressiveBackfill)
	for i := range shards {
		shards[i].Preempt = true
	}
	cfg := Config{
		Shards:  shards,
		Routing: LeastLoaded,
		Lending: Lending{Enabled: true, TTL: 90, QuantumW: 50},
	}
	if faults != "" {
		sc, err := ParseShardScenario(faults)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ShardFaults = sc
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix := apps()
	r := rng.New(seed)
	pr := rng.New(seed + 7)
	now := 0.0
	for i := 0; i < 60; i++ {
		now += r.Range(0, 16)
		pri := 0
		if pr.Float64() < 0.33 {
			pri = 5
		}
		id := fmt.Sprintf("j%04d", i)
		if err := f.ScheduleArrivalPri(now, id, mix[i%len(mix)], id, pri); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestPriorityParallelByteIdentity: with preemption live on every
// shard, the parallel executor must still reproduce the serial run byte
// for byte — including which jobs were evicted and when they restarted.
func TestPriorityParallelByteIdentity(t *testing.T) {
	for _, faults := range []string{"", "crash-mtbf=900,mttr=200,seed=3"} {
		for _, seed := range []uint64{11, 42} {
			f := buildPriorityFed(t, seed, faults)
			if err := f.Run(); err != nil {
				t.Fatalf("serial seed=%d faults=%q: %v", seed, faults, err)
			}
			want := renderRun(t, f)
			preempted := 0
			for _, js := range routedJobs(t, f) {
				preempted += js.Preemptions
			}
			for _, workers := range []int{2, 4} {
				g := buildPriorityFed(t, seed, faults)
				if err := g.RunParallel(workers); err != nil {
					t.Fatalf("parallel(%d) seed=%d faults=%q: %v", workers, seed, faults, err)
				}
				if got := renderRun(t, g); got != want {
					t.Fatalf("parallel(%d) seed=%d faults=%q diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s",
						workers, seed, faults, want, got)
				}
			}
			if audits, violations := f.AuditStats(); violations != 0 || audits == 0 {
				t.Fatalf("seed=%d faults=%q: audits=%d violations=%d", seed, faults, audits, violations)
			}
			if faults == "" && seed == 11 && preempted == 0 {
				t.Log("priority trace produced no preemptions; consider retuning the trace")
			}
		}
	}
}

// shardDigests runs a federation to completion and hashes each shard's
// Jobs() listing: ids, states, start and finish bits, and nodes.
func shardDigests(t *testing.T, f *Federation) []uint64 {
	t.Helper()
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for _, sh := range f.Shards() {
		h := fnv.New64a()
		for _, js := range sh.Online.Jobs() {
			fmt.Fprintf(h, "%s %d %x %x %v %d\n", js.ID, js.State,
				math.Float64bits(js.Start), math.Float64bits(js.Finish), js.Nodes, js.Preemptions)
		}
		out = append(out, h.Sum64())
	}
	return out
}

// TestChaosPriorityRepeatDeterministic: lending moves shard bounds down
// while jobs run, which makes the scheduler shed power across its
// running set. The shed factor is a floating-point sum over the running
// jobs, so it must be taken in a fixed order: repeated runs of the same
// lending + shard-fault + mixed-priority federation in one process end
// with identical per-shard results.
func TestChaosPriorityRepeatDeterministic(t *testing.T) {
	build := func() *Federation {
		shards := shardCfg(64, 4, 400, jobsched.AggressiveBackfill)
		for i := range shards {
			shards[i].Preempt = true
		}
		sc, err := ParseShardScenario("crash-mtbf=400,mttr=120,part-mtbf=600,part-dur=60,seed=9")
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(Config{
			Shards:      shards,
			Routing:     LeastLoaded,
			Lending:     Lending{Enabled: true, TTL: 240, QuantumW: 60},
			ShardFaults: sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		mix := workload.Suite()
		r := rng.New(1)
		now := 0.0
		for i := 0; i < 1024; i++ {
			now += r.Range(0, 2)
			id := fmt.Sprintf("j%04d", i)
			app := mix[r.Intn(len(mix))]
			pri := 0
			if r.Float64() < 0.2 {
				pri = 10
			}
			if err := f.ScheduleArrivalPri(now, id, app, id, pri); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	first := shardDigests(t, build())
	for run := 2; run <= 3; run++ {
		again := shardDigests(t, build())
		for i := range first {
			if again[i] != first[i] {
				t.Errorf("run %d: shard %d digest %x, run 1 had %x", run, i, again[i], first[i])
			}
		}
	}
}

// TestFedPriorityRouting: a high-priority arrival routed to a saturated
// shard preempts there rather than waiting out the backlog.
func TestFedPriorityRouting(t *testing.T) {
	shards := shardCfg(2, 4, 500, jobsched.AggressiveBackfill)
	for i := range shards {
		shards[i].Preempt = true
	}
	f, err := New(Config{Shards: shards, Routing: Locality})
	if err != nil {
		t.Fatal(err)
	}
	mix := apps()
	// Saturate shard 0 via locality key, then land a high-priority job
	// on the same shard.
	for i := 0; i < 6; i++ {
		if err := f.ScheduleArrivalPri(float64(i), fmt.Sprintf("lo%d", i), mix[0], "k0", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.ScheduleArrivalPri(6.5, "hi", mix[0], "k0", 9); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var hiStart, hiArrival float64
	evictions := 0
	for _, js := range routedJobs(t, f) {
		if js.ID == "hi" {
			hiStart, hiArrival = js.Start, js.Arrival
			if js.State != jobsched.JobCompleted {
				t.Fatalf("hi state = %v, want completed", js.State)
			}
		}
		evictions += js.Preemptions
	}
	if evictions == 0 {
		t.Fatal("saturated shard produced no preemptions for the high-priority arrival")
	}
	if hiStart > hiArrival+1e-9 {
		t.Fatalf("hi waited: start %.3f vs arrival %.3f despite preemption", hiStart, hiArrival)
	}
}
