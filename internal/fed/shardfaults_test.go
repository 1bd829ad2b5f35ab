package fed

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/jobsched"
	"repro/internal/rng"
	"repro/internal/workload"
)

// TestShardScenarioParse: the spec grammar round-trips through String
// and rejects malformed input.
func TestShardScenarioParse(t *testing.T) {
	sc, err := ParseShardScenario("crash-mtbf=400,mttr=90,part-mtbf=600,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if sc.CrashMTBF != 400 || sc.MTTR != 90 || sc.PartitionMTBF != 600 || sc.Seed != 7 {
		t.Fatalf("parsed %+v, want crash-mtbf=400 mttr=90 part-mtbf=600 seed=7", sc)
	}
	for _, p := range ShardGrammar.Params {
		if p.Def == 0 || p.Key == "mttr" {
			continue
		}
		if got := *p.Float(sc); got != p.Def {
			t.Errorf("%s = %g, want its default %g", p.Key, got, p.Def)
		}
	}
	if !sc.Enabled() {
		t.Fatal("parsed scenario reports disabled")
	}
	for _, bad := range []string{
		"crash-mtbf",        // not key=value
		"mtbf=100",          // unknown key
		"crash-mtbf=banana", // bad float
		"crash-mtbf=-5",     // negative duration
		// The rejoin and reclaim schedule is fixed, not a key.
		"crash-mtbf=400,rejoin-delay=30",
		"crash-mtbf=400,grace-ttl=45",
		"crash-mtbf=400,recall-retries=3",
		"crash-mtbf=400,recall-backoff=20",
		"crash-mtbf=400,recall-cap=120",
		"crash-mtbf=400,recall-jitter=0.25",
	} {
		if _, err := ParseShardScenario(bad); err == nil {
			t.Errorf("ParseShardScenario(%q) accepted", bad)
		}
	}
	var zero ShardScenario
	if zero.Enabled() {
		t.Error("zero scenario reports enabled")
	}
}

// FuzzScenarioRoundTrip: every shard scenario ParseShardScenario
// accepts renders to a spec that parses back to the same scenario, and
// is already normalized.
func FuzzScenarioRoundTrip(f *testing.F) {
	for _, spec := range []string{
		"crash-mtbf=400,mttr=90,part-mtbf=600,seed=7",
		"crash-mtbf=400,mttr=-3,part-dur=0",
		"crash-mtbf=400,mttr=NaN",
		"part-mtbf=600,part-dur=-Inf",
		"crash-mtbf=400,recall-jitter=0.5",
		"part-dur=1e300,seed=18446744073709551615",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := ParseShardScenario(spec)
		if err != nil {
			return
		}
		back, err := ParseShardScenario(sc.String())
		if err != nil {
			t.Fatalf("ParseShardScenario(%q) accepted, its String %q rejected: %v", spec, sc.String(), err)
		}
		if *back != *sc {
			t.Fatalf("round trip of %q changed the scenario:\n  %+v\n  %+v", spec, *sc, *back)
		}
		if n := sc.Normalized(); n != *sc {
			t.Fatalf("Normalized changed the parsed %q:\n  %+v\n  %+v", spec, *sc, n)
		}
	})
}

// TestFloatKeysRejectNonFinite: NaN and ±Inf fail to parse for every
// float key of the node and the shard grammar.
func TestFloatKeysRejectNonFinite(t *testing.T) {
	grammars := []struct {
		keys  []string
		parse func(string) error
	}{
		{floatKeys(faults.ScenarioGrammar.Params), func(s string) error { _, err := faults.Parse(s); return err }},
		{floatKeys(ShardGrammar.Params), func(s string) error { _, err := ParseShardScenario(s); return err }},
	}
	for _, g := range grammars {
		for _, k := range g.keys {
			for _, v := range []string{"NaN", "Inf", "-Inf"} {
				// crash-mtbf enables a fault class, so the spec is a real run.
				spec := "crash-mtbf=100," + k + "=" + v
				if err := g.parse(spec); err == nil {
					t.Errorf("%q parsed", spec)
				}
			}
		}
	}
}

func floatKeys[S any](params []faults.Param[S]) (keys []string) {
	for _, p := range params {
		if p.Float != nil {
			keys = append(keys, p.Key)
		}
	}
	return keys
}

// TestShardHealthMachine: every legal transition moves the machine,
// every stale one is rejected, and the unhealthy count and its gauge
// track.
func TestShardHealthMachine(t *testing.T) {
	f, err := New(Config{Shards: shardCfg(3, 4, 800, jobsched.FCFS)})
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := f.shards[0], f.shards[1]
	for _, sh := range f.shards {
		if h := f.ShardHealthOf(sh.ID); h != ShardHealthy {
			t.Fatalf("shard %d starts %s, want healthy", sh.ID, h)
		}
	}
	unhealthy := func(tag string, want int) {
		t.Helper()
		if f.unhealthy != want || gShardsUnhealthy.Value() != float64(want) {
			t.Fatalf("%s: unhealthy=%d, gauge %g, want %d", tag, f.unhealthy, gShardsUnhealthy.Value(), want)
		}
	}
	if !f.move(s0, ShardHealthy, ShardPartitioned) {
		t.Fatal("partition from healthy rejected")
	}
	if f.move(s0, ShardHealthy, ShardPartitioned) {
		t.Fatal("partition from partitioned accepted")
	}
	if s0.health != ShardPartitioned {
		t.Fatalf("after partition: %s", s0.health)
	}
	unhealthy("after partition", 1)
	if s0.routable() || s0.reachable() {
		t.Error("partitioned shard is routable or reachable")
	}
	// A crash absorbs the ongoing partition.
	if !f.move(s0, ShardPartitioned, ShardDown) {
		t.Fatal("crash from partitioned rejected")
	}
	if f.move(s0, ShardHealthy, ShardDown) || f.move(s0, ShardPartitioned, ShardDown) ||
		f.move(s0, ShardHealthy, ShardPartitioned) || f.move(s0, ShardPartitioned, ShardHealthy) ||
		f.move(s0, ShardRejoining, ShardHealthy) {
		t.Error("transition out of down other than recover accepted")
	}
	if s0.health != ShardDown {
		t.Fatalf("after crash: %s", s0.health)
	}
	unhealthy("after crash", 1)
	if !f.move(s0, ShardDown, ShardRejoining) {
		t.Fatal("recover from down rejected")
	}
	if f.move(s0, ShardDown, ShardRejoining) || f.move(s0, ShardHealthy, ShardDown) ||
		f.move(s0, ShardHealthy, ShardPartitioned) || f.move(s0, ShardPartitioned, ShardHealthy) {
		t.Error("transition out of rejoining other than rejoin accepted")
	}
	if !s0.reachable() {
		t.Error("rejoining shard is not reachable")
	}
	if s0.routable() {
		t.Error("rejoining shard is routable")
	}
	unhealthy("after recover", 1)
	if !f.move(s0, ShardRejoining, ShardHealthy) {
		t.Fatal("rejoin from rejoining rejected")
	}
	if s0.health != ShardHealthy {
		t.Fatalf("after rejoin: %s", s0.health)
	}
	unhealthy("after rejoin", 0)
	// Heal only applies to partitioned shards.
	if f.move(s1, ShardPartitioned, ShardHealthy) || f.move(s1, ShardRejoining, ShardHealthy) || f.move(s1, ShardDown, ShardRejoining) {
		t.Error("stale transition on a healthy shard accepted")
	}
	if !f.move(s1, ShardHealthy, ShardPartitioned) || !f.move(s1, ShardPartitioned, ShardHealthy) {
		t.Error("partition/heal round trip rejected")
	}
	unhealthy("after heal", 0)
	if downs, parts := f.ShardFaultStats(); s0.downs != 1 || s0.partitions != 1 || s1.partitions != 1 || downs != 1 || parts != 2 {
		t.Errorf("tallies downs=%d/%d partitions=%d/%d, totals %d and %d",
			s0.downs, s1.downs, s0.partitions, s1.partitions, downs, parts)
	}
}

// TestRecallBackoffSchedule: the probe schedule grows exponentially to
// the cap, carries bounded jitter, and is a pure function of
// (seed, lease, attempt).
func TestRecallBackoffSchedule(t *testing.T) {
	f, err := New(Config{Shards: shardCfg(1, 4, 800, jobsched.FCFS), ShardFaults: &ShardScenario{Seed: 9, CrashMTBF: 100}})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 8; attempt++ {
		d := f.recallDelay(5, attempt)
		want := math.Min(recallBackoff*math.Pow(2, float64(attempt-1)), recallCap)
		if d < want || d > want*(1+recallJitter) {
			t.Errorf("attempt %d: delay %.3f outside [%.3f, %.3f]",
				attempt, d, want, want*(1+recallJitter))
		}
		if again := f.recallDelay(5, attempt); again != d {
			t.Errorf("attempt %d: backoff not deterministic (%.9f vs %.9f)", attempt, d, again)
		}
	}
	if d := f.recallDelay(5, 40); d > recallCap*(1+recallJitter) {
		t.Errorf("attempt 40: delay %.3f escaped the cap", d)
	}
	if f.recallDelay(1, 1) == f.recallDelay(2, 1) {
		t.Error("distinct leases drew identical jitter")
	}
}

// chaosConfig builds a 4-shard federation config with the given lending
// switch and shard-fault spec.
func chaosConfig(t *testing.T, lend bool, spec string) Config {
	t.Helper()
	sf, err := ParseShardScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Shards:      shardCfg(4, 4, 500, jobsched.AggressiveBackfill),
		Routing:     LeastLoaded,
		ShardFaults: sf,
	}
	if lend {
		cfg.Lending = Lending{Enabled: true, AggregateCapW: 1700, TTL: 90, QuantumW: 50}
	}
	return cfg
}

// chaosInvariants asserts the degraded-mode acceptance criteria on a
// finished chaos run: zero jobs lost, every lease terminal, no audit
// violation, and evacuated jobs accounted exactly once.
func chaosInvariants(t *testing.T, tag string, f *Federation, jobs int) {
	t.Helper()
	if audits, violations := f.AuditStats(); violations != 0 {
		t.Errorf("%s: %d violations in %d audits: %v", tag, violations, audits, f.Violations())
	}
	got := routedJobs(t, f)
	if len(got) != jobs {
		t.Errorf("%s: %d terminal jobs, want %d (jobs lost)", tag, len(got), jobs)
	}
	for _, js := range got {
		if !js.State.Terminal() {
			t.Errorf("%s: job %s ended non-terminal (%s)", tag, js.ID, js.State)
		}
	}
	for _, l := range f.Leases() {
		if l.State == LeaseActive || l.State == LeaseOrphaned {
			t.Errorf("%s: lease %d ended non-terminal (%s)", tag, l.ID, l.State)
		}
		if l.State == LeaseReclaimed && l.SettledAt < l.OrphanedAt {
			t.Errorf("%s: lease %d reclaimed at %.3f before orphaned at %.3f",
				tag, l.ID, l.SettledAt, l.OrphanedAt)
		}
	}
	if len(f.OrphanedLeases()) != 0 {
		t.Errorf("%s: %d leases still in the reclaim protocol", tag, len(f.OrphanedLeases()))
	}
	// Exactly-once placement: every routing and evacuation incremented
	// exactly one shard's submitted counter.
	sub := 0
	for _, sh := range f.Shards() {
		sub += sh.submitted
	}
	if sub != jobs+f.Evacuated() {
		t.Errorf("%s: Σ submitted %d != %d routed + %d evacuated", tag, sub, jobs, f.Evacuated())
	}
}

// TestChaosByteIdentity is the shard-fault property suite: for every
// fault class mix × lending switch, the serial run satisfies the
// degraded-mode invariants and RunParallel emits byte-identical output
// for workers 1, 2 and 4 — with repeat serial runs identical too.
func TestChaosByteIdentity(t *testing.T) {
	scenarios := []string{
		"crash-mtbf=500,mttr=120,seed=3",
		"part-mtbf=400,part-dur=80,seed=5",
		"crash-mtbf=600,mttr=100,part-mtbf=500,part-dur=60,seed=8",
	}
	const jobs = 48
	engaged := 0
	for _, lend := range []bool{false, true} {
		for _, spec := range scenarios {
			tag := fmt.Sprintf("lend=%v spec=%q", lend, spec)
			serial := func() (*Federation, string) {
				f, err := New(chaosConfig(t, lend, spec))
				if err != nil {
					t.Fatal(err)
				}
				scheduleTrace(t, f, 21, jobs, 12)
				if err := f.Run(); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				return f, renderRun(t, f)
			}
			f, want := serial()
			chaosInvariants(t, tag, f, jobs)
			downs, parts := f.ShardFaultStats()
			engaged += downs + parts
			if _, again := serial(); again != want {
				t.Errorf("%s: repeat serial run diverged", tag)
			}
			for _, w := range []int{1, 2, 4} {
				fp, err := New(chaosConfig(t, lend, spec))
				if err != nil {
					t.Fatal(err)
				}
				scheduleTrace(t, fp, 21, jobs, 12)
				if err := fp.RunParallel(w); err != nil {
					t.Fatalf("%s workers=%d: %v", tag, w, err)
				}
				if got := renderRun(t, fp); got != want {
					t.Errorf("%s: workers=%d diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s",
						tag, w, want, got)
				}
			}
		}
	}
	if engaged == 0 {
		t.Error("no scenario injected a single shard fault; the suite tested nothing")
	}
}

// lendingTrio builds a three-shard lending federation under the shard
// fault spec: a small shard 0 takes a burst of 12 jobs, so it borrows
// from the two idle shards.
func lendingTrio(t *testing.T, spec string) *Federation {
	t.Helper()
	sf, err := ParseShardScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Shards: []ShardConfig{
			{Nodes: 4, BudgetW: 320, Sigma: 0.02, Seed: 100, Policy: jobsched.Backfill, Reallocate: true},
			{Nodes: 4, BudgetW: 1200, Sigma: 0.02, Seed: 101, Policy: jobsched.Backfill, Reallocate: true},
			{Nodes: 4, BudgetW: 1200, Sigma: 0.02, Seed: 102, Policy: jobsched.Backfill, Reallocate: true},
		},
		Routing:     Locality,
		Lending:     Lending{Enabled: true, TTL: 500, QuantumW: 60},
		ShardFaults: sf,
	})
	if err != nil {
		t.Fatal(err)
	}
	key0, _ := localityKeys(t, 3)
	mix := apps()
	for i := 0; i < 12; i++ {
		if err := f.ScheduleArrivalPri(float64(i)*15, fmt.Sprintf("j%02d", i), mix[i%len(mix)], key0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestChaosOrphanReclaim: with lending hot and crashes frequent, leases
// orphan and every one of them ends reclaimed with its watts returned —
// shards sit back at entitlement after the drain.
func TestChaosOrphanReclaim(t *testing.T) {
	var orphaned int
	for seed := uint64(1); seed <= 6 && orphaned == 0; seed++ {
		f := lendingTrio(t, fmt.Sprintf("crash-mtbf=220,mttr=80,seed=%d", seed))
		if err := f.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		chaosInvariants(t, fmt.Sprintf("seed=%d", seed), f, 12)
		for _, l := range f.Leases() {
			if l.OrphanedAt > 0 {
				orphaned++
				if l.State != LeaseReclaimed {
					t.Errorf("seed %d: orphaned lease %d ended %s, want reclaimed", seed, l.ID, l.State)
				}
			}
		}
		for _, sh := range f.Shards() {
			if math.Abs(sh.Online.Bound()-sh.entitlement) > 1e-9 {
				t.Errorf("seed %d: shard %d bound %.3f != entitlement %.3f after drain",
					seed, sh.ID, sh.Online.Bound(), sh.entitlement)
			}
		}
	}
	if orphaned == 0 {
		t.Error("no lease was ever orphaned across the seeds; reclaim path untested")
	}
}

// TestForcedReclaimSchedule pins the forced-reclaim path: with outages
// far longer than the probe schedule, every orphaned lease fails
// recallRetries probes and the next one force-reclaims it, at exactly
// graceTTL plus the recallDelay of each failed probe after it was
// orphaned.
func TestForcedReclaimSchedule(t *testing.T) {
	orphaned := 0
	for seed := uint64(1); seed <= 6; seed++ {
		f := lendingTrio(t, fmt.Sprintf("crash-mtbf=220,mttr=5000,seed=%d", seed))
		if err := f.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		chaosInvariants(t, fmt.Sprintf("seed=%d", seed), f, 12)
		for _, l := range f.Leases() {
			if l.State != LeaseReclaimed {
				continue
			}
			orphaned++
			if !l.Forced || l.Attempts != recallRetries+1 {
				t.Errorf("seed %d: lease %d reclaimed after %d probes, forced %v; want forced after %d",
					seed, l.ID, l.Attempts, l.Forced, recallRetries+1)
			}
			want := l.OrphanedAt + graceTTL
			for k := 1; k <= recallRetries; k++ {
				want += f.recallDelay(l.ID, k)
			}
			if l.SettledAt != want {
				t.Errorf("seed %d: lease %d orphaned at %.9f settled at %.9f, want %.9f",
					seed, l.ID, l.OrphanedAt, l.SettledAt, want)
			}
		}
	}
	if orphaned == 0 {
		t.Error("no lease was ever orphaned across the seeds; forced reclaim untested")
	}
}

// TestOnePendingEventRule: a lease holds one pending event — its
// expiry while active, its next recall probe while orphaned, none once
// settled — and a shard holds only its own pending crash and partition
// start, or its heal while partitioned. The engine recycles fired and
// cancelled events, so a handle kept past its event would cancel some
// other component's event. Conversely no federation event outlives its
// owner: while no shard is down or rejoining (their recover and rejoin
// events have no handle), the engine's next event is the earliest of
// the next arrival and the held events. The rule is checked after every
// step and after the drain.
func TestOnePendingEventRule(t *testing.T) {
	for _, spec := range []string{
		"crash-mtbf=300,mttr=120,part-mtbf=400,part-dur=80,seed=9",
		"crash-mtbf=200,mttr=300,seed=4",
		"part-mtbf=150,part-dur=100,seed=6",
	} {
		f, err := New(chaosConfig(t, true, spec))
		if err != nil {
			t.Fatal(err)
		}
		trace := scheduleTrace(t, f, 13, 64, 5)
		check := func(when string) {
			t.Helper()
			owned := func(what string, ev *des.Event, kind uint16) {
				t.Helper()
				if ev == nil || !ev.Pending() || ev.Kind != kind {
					t.Fatalf("%s %s: %s does not hold its pending event of kind %d", spec, when, what, kind)
				}
			}
			for _, l := range f.Leases() {
				switch l.State {
				case LeaseActive:
					owned(fmt.Sprintf("active lease %d", l.ID), l.next, fevLeaseExpiry)
					if l.next.Time != l.ExpiresAt {
						t.Fatalf("%s %s: lease %d expires at %g, its event is at %g", spec, when, l.ID, l.ExpiresAt, l.next.Time)
					}
				case LeaseOrphaned:
					owned(fmt.Sprintf("orphaned lease %d", l.ID), l.next, fevLeaseRecall)
				default:
					if l.next != nil {
						t.Fatalf("%s %s: %s lease %d still holds an event", spec, when, l.State, l.ID)
					}
				}
			}
			unhealthy, recovering := 0, false
			held := math.Inf(1)
			if n := f.ArrivalsPending(); n > 0 {
				held = trace[len(trace)-n].arrival
			}
			for _, l := range f.Leases() {
				if l.next != nil {
					held = math.Min(held, l.next.Time)
				}
			}
			for _, sh := range f.Shards() {
				for _, ev := range []*des.Event{sh.crashEv, sh.partEv} {
					if ev != nil {
						held = math.Min(held, ev.Time)
					}
				}
				recovering = recovering || sh.health == ShardDown || sh.health == ShardRejoining
				what := fmt.Sprintf("%s shard %d", sh.health, sh.ID)
				if sh.crashEv != nil {
					owned(what+"'s crash", sh.crashEv, fevShardCrash)
				}
				switch sh.health {
				case ShardDown, ShardRejoining:
					if sh.crashEv != nil || sh.partEv != nil {
						t.Fatalf("%s %s: %s holds a crash or partition event", spec, when, what)
					}
				case ShardPartitioned:
					owned(what+"'s heal", sh.partEv, fevShardHeal)
				default:
					if sh.partEv != nil {
						owned(what+"'s partition", sh.partEv, fevShardPartition)
					}
				}
				if sh.health != ShardHealthy {
					unhealthy++
				}
			}
			if f.unhealthy != unhealthy {
				t.Fatalf("%s %s: unhealthy count %d, %d shards are not healthy", spec, when, f.unhealthy, unhealthy)
			}
			next, _, ok := f.nextOwn()
			if !ok {
				next = math.Inf(1)
			}
			if !recovering && next != held {
				t.Fatalf("%s %s: the next federation event is at %g, the earliest held one at %g", spec, when, next, held)
			}
		}
		for steps := 0; ; steps++ {
			ok, err := f.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			check(fmt.Sprintf("step %d", steps))
		}
		if err := f.Drain(); err != nil {
			t.Fatal(err)
		}
		check("after Drain")
		chaosInvariants(t, spec, f, 64)
		orphaned := 0
		for _, l := range f.Leases() {
			if l.State == LeaseReclaimed {
				orphaned++
			}
		}
		if downs, parts := f.ShardFaultStats(); downs+parts == 0 || orphaned == 0 {
			t.Errorf("%s: %d crashes, %d partitions, %d orphaned leases; the shape tests nothing", spec, downs, parts, orphaned)
		}
	}
}

// TestChaosEvacuation: a crash with queued work migrates the queue to
// survivors and the run still loses nothing.
func TestChaosEvacuation(t *testing.T) {
	var evacuated int
	for seed := uint64(1); seed <= 8 && evacuated == 0; seed++ {
		spec := fmt.Sprintf("crash-mtbf=260,mttr=150,seed=%d", seed)
		f, err := New(chaosConfig(t, false, spec))
		if err != nil {
			t.Fatal(err)
		}
		// Short gaps pile up queues so a crash catches queued work.
		scheduleTrace(t, f, seed, 64, 4)
		if err := f.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		chaosInvariants(t, fmt.Sprintf("seed=%d", seed), f, 64)
		evacuated += f.Evacuated()
	}
	if evacuated == 0 {
		t.Error("no job was ever evacuated across the seeds; evacuation path untested")
	}
}

// TestViolationRing: the audit records the first occurrence of each
// distinct violation kind (bounded), while Err still latches the first.
func TestViolationRing(t *testing.T) {
	f, err := New(Config{Shards: shardCfg(2, 4, 800, jobsched.FCFS)})
	if err != nil {
		t.Fatal(err)
	}
	f.now = 42
	f.violation("cap-exceeded", "first")
	f.now = 43
	f.violation("cap-exceeded", "second of same kind")
	f.violation("mirror-drift", "different kind")
	for i := 0; i < 20; i++ {
		f.violation(fmt.Sprintf("kind-%d", i), "filler")
	}
	vs := f.Violations()
	if len(vs) != maxViolationLog {
		t.Fatalf("ring holds %d entries, want %d", len(vs), maxViolationLog)
	}
	if vs[0].Kind != "cap-exceeded" || vs[0].T != 42 || vs[0].Msg != "first" {
		t.Errorf("ring[0] = %+v, want the first cap-exceeded at t=42", vs[0])
	}
	if vs[1].Kind != "mirror-drift" {
		t.Errorf("ring[1] = %+v, want mirror-drift", vs[1])
	}
	if f.Err() == nil || !strings.Contains(f.Err().Error(), "first") {
		t.Errorf("Err() = %v, want the first violation latched", f.Err())
	}
	if f.violations != 23 {
		t.Errorf("violation count %d, want 23", f.violations)
	}
}

// TestRoutingAvoidsUnhealthyShards: pickShard skips unhealthy shards
// under every policy, and falls back to health-blind placement when
// nothing is routable.
func TestRoutingAvoidsUnhealthyShards(t *testing.T) {
	sf, err := ParseShardScenario("crash-mtbf=1e12,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Shards:      shardCfg(3, 4, 800, jobsched.FCFS),
		ShardFaults: sf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// setHealth puts the shards in the given states, keeping the
	// unhealthy count pickShard reads.
	setHealth := func(hs ...ShardHealth) {
		f.unhealthy = 0
		for i, h := range hs {
			f.shards[i].health = h
			if h != ShardHealthy {
				f.unhealthy++
			}
		}
	}
	for _, pol := range []Policy{LeastLoaded, PowerHeadroom} {
		f.cfg.Routing = pol
		setHealth(ShardDown, ShardHealthy, ShardHealthy)
		if got := f.pickShard(&fedArrival{id: "x"}); got == 0 {
			t.Errorf("%s routed to the down shard", pol)
		}
	}
	f.cfg.Routing = Locality
	// Find a key homed on shard 1, take shard 1 down: the probe must
	// land on shard 2 (home+1), then on shard 0 when 2 is down too.
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("k%d", i); shardFor(k, 3) == 1 {
			key = k
		}
	}
	setHealth(ShardHealthy, ShardDown, ShardHealthy)
	if got := f.pickShard(&fedArrival{id: "x", key: key}); got != 2 {
		t.Errorf("locality probe picked %d, want 2", got)
	}
	setHealth(ShardHealthy, ShardDown, ShardPartitioned)
	if got := f.pickShard(&fedArrival{id: "x", key: key}); got != 0 {
		t.Errorf("locality probe picked %d, want 0", got)
	}
	// Nothing routable: fall back to the health-blind home shard.
	setHealth(ShardRejoining, ShardDown, ShardPartitioned)
	if got := f.pickShard(&fedArrival{id: "x", key: key}); got != 1 {
		t.Errorf("all-unhealthy fallback picked %d, want home shard 1", got)
	}
}

// TestInterruptDrains: Interrupt stops a run early under both Run and
// RunParallel — no arrival is routed after it — and the drain still
// settles every lease and makes every routed job terminal. The
// locality shape with lending off is the one RunParallel would
// otherwise replay partitioned.
func TestInterruptDrains(t *testing.T) {
	shapes := []struct {
		name string
		cfg  Config
		jobs int
	}{
		{"least-loaded", Config{Shards: shardCfg(2, 4, 800, jobsched.Backfill)}, 24},
		{"locality", Config{Shards: shardCfg(4, 4, 800, jobsched.Backfill), Routing: Locality}, 48},
	}
	runners := []struct {
		name string
		run  func(*Federation) error
	}{
		{"Run", (*Federation).Run},
		{"RunParallel(2)", func(f *Federation) error { return f.RunParallel(2) }},
	}
	for _, sh := range shapes {
		for _, r := range runners {
			f, err := New(sh.cfg)
			if err != nil {
				t.Fatal(err)
			}
			scheduleTrace(t, f, 7, sh.jobs, 30)
			// Step a few events, then interrupt.
			for i := 0; i < 5; i++ {
				if ok, err := f.Step(); err != nil || !ok {
					t.Fatalf("%s/%s step %d: ok=%v err=%v", sh.name, r.name, i, ok, err)
				}
			}
			pending := f.ArrivalsPending()
			f.Interrupt()
			if err := r.run(f); err != nil {
				t.Fatalf("%s/%s: %v", sh.name, r.name, err)
			}
			if !f.Interrupted() {
				t.Errorf("%s/%s: Interrupted() false after Interrupt", sh.name, r.name)
			}
			if pending == 0 {
				t.Errorf("%s/%s: interrupting after 5 events left no pending arrivals; test is vacuous", sh.name, r.name)
			}
			if got := f.ArrivalsPending(); got != pending {
				t.Errorf("%s/%s: %d arrivals pending after the interrupted run, want %d (none routed)",
					sh.name, r.name, got, pending)
			}
			for _, js := range routedJobs(t, f) {
				if !js.State.Terminal() {
					t.Errorf("%s/%s: job %s non-terminal after interrupted drain", sh.name, r.name, js.ID)
				}
			}
			if len(f.ActiveLeases()) != 0 || len(f.OrphanedLeases()) != 0 {
				t.Errorf("%s/%s: leases outstanding after interrupted drain", sh.name, r.name)
			}
		}
	}
}

// TestEvacuationAllocs pins the evacuation path's allocation diet. Two
// shards hand one queue of n jobs back and forth, one crash at a time.
// Once a first crash has sized the federation's buffers and each
// shard's queue, record arena and id map, a crash allocates nothing,
// for n = 64 as for n = 512.
func TestEvacuationAllocs(t *testing.T) {
	for _, n := range []int{64, 512} {
		f, err := New(Config{Shards: shardCfg(2, 4, 400, jobsched.FCFS)})
		if err != nil {
			t.Fatal(err)
		}
		app := workload.CoMD()
		// One job occupies each shard, so every evacuee queues.
		for i := 0; i < n+2; i++ {
			id, sh := fmt.Sprintf("j%04d", i), f.shards[0]
			if i == n+1 {
				sh = f.shards[1]
			}
			if _, err := sh.Online.SubmitPri(id, app, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, sh := range f.shards {
			if sh.Online.RunningLen() != 1 {
				t.Fatalf("shard %d runs %d jobs, want 1", sh.ID, sh.Online.RunningLen())
			}
		}
		from := 0
		crash := func() {
			f.evacuateShard(from)
			from = 1 - from
		}
		crash() // the warm-up crash: the first the receiving shard sees
		allocs := testing.AllocsPerRun(10, crash)
		if err := f.Err(); err != nil {
			t.Fatal(err)
		}
		if f.evacuated != 12*n || f.shards[from].Online.QueueLen() != n {
			t.Fatalf("n=%d: %d evacuations, %d queued, want %d and %d",
				n, f.evacuated, f.shards[from].Online.QueueLen(), 12*n, n)
		}
		if allocs != 0 {
			t.Errorf("n=%d: a crash allocates %.0f objects, want 0", n, allocs)
		}
	}
}

// conservationJobs is the trace length of conservationFed.
const conservationJobs = 96

// conservationFed builds a 4-shard chaos federation with shard crashes
// and partitions, lending and 20% preemptive high priority, and
// schedules conservationJobs arrivals on it.
func conservationFed(t *testing.T) *Federation {
	t.Helper()
	cfg := chaosConfig(t, true, "crash-mtbf=300,mttr=120,part-mtbf=400,part-dur=80,seed=9")
	for i := range cfg.Shards {
		cfg.Shards[i].Preempt = true
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix := apps()
	r, pr := rng.New(5), rng.New(12)
	now := 0.0
	for i := 0; i < conservationJobs; i++ {
		now += r.Range(0, 6)
		pri := 0
		if pr.Float64() < 0.2 {
			pri = 5
		}
		id := fmt.Sprintf("c%03d", i)
		if err := f.ScheduleArrivalPri(now, id, mix[i%len(mix)], id, pri); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestSubmissionConservation checks by meaning, with no golden, that a
// chaos run neither loses nor duplicates a submission: shard crashes
// and partitions, lending and 20% preemptive high priority, under Run
// and RunParallel(2). Every routing and every evacuation submits to
// exactly one shard, so Σ shard submissions = jobs routed + evacuations,
// and each job id is listed by exactly one shard's session.
func TestSubmissionConservation(t *testing.T) {
	const jobs = conservationJobs
	for _, mode := range []struct {
		name string
		run  func(*Federation) error
	}{
		{"Run", (*Federation).Run},
		{"RunParallel(2)", func(f *Federation) error { return f.RunParallel(2) }},
	} {
		f := conservationFed(t)
		if err := mode.run(f); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		downs, parts := f.ShardFaultStats()
		if downs == 0 || parts == 0 || f.Evacuated() == 0 || len(f.Leases()) == 0 {
			t.Fatalf("%s: %d crashes, %d partitions, %d evacuations, %d leases; the shape must have all four",
				mode.name, downs, parts, f.Evacuated(), len(f.Leases()))
		}
		sub := 0
		for _, sh := range f.Shards() {
			sub += sh.submitted
		}
		if sub != jobs+f.Evacuated() {
			t.Errorf("%s: Σ shard submissions %d != %d routed + %d evacuated", mode.name, sub, jobs, f.Evacuated())
		}
		// routedJobs fails on an id listed by two shards; every trace id
		// must be listed, and nothing else.
		listed := routedJobs(t, f)
		if len(listed) != jobs {
			t.Errorf("%s: shards list %d jobs, want %d", mode.name, len(listed), jobs)
		}
		for i, js := range listed {
			if id := fmt.Sprintf("c%03d", i); js.ID != id {
				t.Errorf("%s: listed job %d is %s, want %s", mode.name, i, js.ID, id)
				break
			}
		}
	}
}

// TestShardFaultTelemetry: in one chaos run the shard-fault counters
// add exactly the federation's own tallies — crashes and partitions
// (ShardFaultStats) and evacuations (Evacuated) — and the
// unhealthy-shard gauge counts the shards not healthy after every
// step and reads zero once Run returns.
func TestShardFaultTelemetry(t *testing.T) {
	f := conservationFed(t)
	downs0, parts0, evac0 := mShardDowns.Value(), mShardPartitions.Value(), mJobsEvacuated.Value()
	degraded := false
	for {
		ok, err := f.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		unhealthy := 0
		for _, sh := range f.Shards() {
			if f.ShardHealthOf(sh.ID) != ShardHealthy {
				unhealthy++
			}
		}
		if v := gShardsUnhealthy.Value(); v != float64(unhealthy) {
			t.Fatalf("at %.3f s clip_fed_shards_unhealthy reads %g, %d shards are not healthy",
				f.Now(), v, unhealthy)
		}
		degraded = degraded || unhealthy > 0
	}
	if !degraded {
		t.Fatal("no shard was ever unhealthy")
	}
	// Every event is stepped; Run finishes the run with the drain.
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	downs, parts := f.ShardFaultStats()
	if downs == 0 || parts == 0 || f.Evacuated() == 0 {
		t.Fatalf("%d crashes, %d partitions, %d evacuations; the shape must have all three",
			downs, parts, f.Evacuated())
	}
	if got := mShardDowns.Value() - downs0; got != uint64(downs) {
		t.Errorf("clip_fed_shard_down_total rose %d, ShardFaultStats has %d crashes", got, downs)
	}
	if got := mShardPartitions.Value() - parts0; got != uint64(parts) {
		t.Errorf("clip_fed_shard_partitions_total rose %d, ShardFaultStats has %d partitions", got, parts)
	}
	if got := mJobsEvacuated.Value() - evac0; got != uint64(f.Evacuated()) {
		t.Errorf("clip_fed_jobs_evacuated_total rose %d, Evacuated is %d", got, f.Evacuated())
	}
	if v := gShardsUnhealthy.Value(); v != 0 {
		t.Errorf("clip_fed_shards_unhealthy reads %g after Run, want 0", v)
	}
}
