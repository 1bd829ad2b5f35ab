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

// goldenFed is one pinned federation: a reduced form of a clipperf
// federation workload whose per-job outcome digest was recorded once
// and must never move.
type goldenFed struct {
	name      string
	routing   Policy
	lending   bool
	faults    string // shard-fault scenario; empty for none
	hipriFrac float64
	gap       float64
	// digest, evacuated and events are the recorded outcome.
	digest    uint64
	evacuated int
	events    uint64
}

// goldenFeds: the chaos shape steps serially through lending, shard
// crashes and partitions with 20% of the jobs at priority 10 (queue
// evacuation and preemption on the hot path); the scale shape routes by
// locality with lending off, which RunParallel replays one partition
// per shard.
var goldenFeds = []goldenFed{
	{
		name: "chaos", routing: LeastLoaded, lending: true,
		faults:    "crash-mtbf=400,mttr=120,part-mtbf=600,part-dur=60,seed=9",
		hipriFrac: 0.2, gap: 1,
		digest: 0xbee0b4d57198cd5c, evacuated: 11827, events: 3579,
	},
	{
		name: "scale", routing: Locality, gap: 0.25,
		digest: 0x9fe79e8128cfd563, evacuated: 0, events: 2048,
	},
}

// build wires the 16-shard, 1,024-job federation of the golden shape.
func (g goldenFed) build(t *testing.T) *Federation {
	t.Helper()
	shards := shardCfg(16, 4, 400, jobsched.AggressiveBackfill)
	for i := range shards {
		shards[i].Preempt = g.hipriFrac > 0
	}
	cfg := Config{Shards: shards, Routing: g.routing}
	if g.lending {
		cfg.Lending = Lending{Enabled: true, TTL: 240, QuantumW: 60}
	}
	if g.faults != "" {
		sc, err := ParseShardScenario(g.faults)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ShardFaults = sc
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Suite()
	r := rng.New(1)
	now := 0.0
	for i := 0; i < 1024; i++ {
		now += r.Range(0, 2*g.gap)
		id := fmt.Sprintf("j%04d", i)
		app := mix[r.Intn(len(mix))]
		pri := 0
		if r.Float64() < g.hipriFrac {
			pri = 10
		}
		if err := f.ScheduleArrivalPri(now, id, app, id, pri); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// outcomeDigest hashes every job's shard, state, start and finish bits,
// nodes, retries and preemptions.
func outcomeDigest(t testing.TB, f *Federation) uint64 {
	h := fnv.New64a()
	for _, js := range routedJobs(t, f) {
		fmt.Fprintf(h, "%s %d %d %x %x %v %d %d\n", js.ID, js.shard, js.State,
			math.Float64bits(js.Start), math.Float64bits(js.Finish), js.Nodes,
			js.Retries, js.Preemptions)
	}
	return h.Sum64()
}

// TestGoldenFederationOutcomes pins the per-job outcome of both golden
// federations, under Run and RunParallel(2), to the digests recorded
// before the evacuation heap and the settled-queue dispatch memo landed:
// both optimisations must leave every placement decision unchanged.
func TestGoldenFederationOutcomes(t *testing.T) {
	for _, g := range goldenFeds {
		for _, workers := range []int{1, 2} {
			f := g.build(t)
			var err error
			if workers == 1 {
				err = f.Run()
			} else {
				err = f.RunParallel(workers)
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", g.name, workers, err)
			}
			d, ev, events := outcomeDigest(t, f), f.Evacuated(), f.Events()
			if d != g.digest || ev != g.evacuated || events != g.events {
				t.Errorf("%s workers=%d: digest %#x evacuated %d events %d, want %#x, %d, %d",
					g.name, workers, d, ev, events, g.digest, g.evacuated, g.events)
			}
		}
	}
}
