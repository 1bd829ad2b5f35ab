package fed

// Shard-level failure model: a deterministic, seeded fault stream that
// injects whole-shard crashes and broker-link partitions as
// federation-owned events, plus the health machine the broker and
// router consult:
//
//	            partition                 crash
//	 healthy ───────────────▶ partitioned ──────┐
//	    ▲ ▲        heal            │            │
//	    │ └────────────────────────┘            ▼
//	    │          rejoin                      down
//	    └──────────────── rejoining ◀───────────┘
//	                                  recover
//
// A partitioned shard keeps running its resident jobs but the broker
// link is gone: no leases are granted to or from it, and the router
// steers arrivals away. A down shard additionally loses its control
// plane — its queued (not-yet-running) jobs are evacuated to surviving
// shards and every lease it touches is orphaned into the reclaim
// protocol (grace TTL, then capped retry/backoff probes; see broker.go).
// A recovered shard re-enters through rejoining: its orphaned leases
// settle so its bound is clean, but it re-earns entitlement — the
// router and broker keep excluding it — until the rejoin delay elapses.
//
// Every draw flows through internal/rng with a seed derived from
// (scenario seed, stream salt, shard id), the same discipline as
// internal/faults: shard 3's second crash time does not depend on
// whether shard 5 ever partitioned, so a scenario replays
// byte-identically regardless of event interleaving — the property the
// parallel executor's byte-identity guarantee rests on.

import (
	"math"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/rng"
)

// ShardHealth is a shard's position in the failure state machine.
type ShardHealth uint8

const (
	// ShardHealthy shards accept arrivals and participate in lending.
	ShardHealthy ShardHealth = iota
	// ShardPartitioned shards lost the broker link: excluded from
	// routing and lending, resident work keeps running, queued work
	// stays put.
	ShardPartitioned
	// ShardDown shards lost their control plane: queued jobs are
	// evacuated to survivors and their leases enter the orphan reclaim
	// protocol.
	ShardDown
	// ShardRejoining shards recovered from an outage but are still
	// re-earning entitlement: excluded from routing and lending, but
	// reachable — orphan reclaim probes against them succeed.
	ShardRejoining
)

// String implements fmt.Stringer.
func (h ShardHealth) String() string {
	switch h {
	case ShardPartitioned:
		return "partitioned"
	case ShardDown:
		return "down"
	case ShardRejoining:
		return "rejoining"
	default:
		return "healthy"
	}
}

// ShardScenario describes one shard-level fault campaign. A zero MTBF
// disables the corresponding fault class; all times are simulated
// seconds.
type ShardScenario struct {
	// Seed roots every stream of the scenario.
	Seed uint64
	// CrashMTBF is the per-shard mean time between whole-shard crashes
	// (exponential inter-arrivals); 0 disables crashes.
	CrashMTBF float64
	// MTTR is the mean outage duration of a crashed shard.
	MTTR float64
	// PartitionMTBF is the per-shard mean time between broker-link
	// partitions; 0 disables partitions.
	PartitionMTBF float64
	// PartitionDur is the mean partition duration.
	PartitionDur float64
	// RejoinDelay is the mean delay a recovered shard spends rejoining
	// (excluded from routing and lending) before it is healthy again.
	RejoinDelay float64
	// GraceTTL is the delay from orphaning a lease to its first recall
	// probe — the window in which a quick recovery settles the lease
	// without any probe failing.
	GraceTTL float64
	// RecallRetries bounds the recall probes per orphaned lease; after
	// the last failed probe the broker force-reclaims. 0 means the
	// default, negative means force-reclaim at the first probe.
	RecallRetries int
	// RecallBackoff is the first inter-probe delay; doubles per probe.
	RecallBackoff float64
	// RecallCap caps the exponential inter-probe delay.
	RecallCap float64
	// RecallJitter adds a deterministic per-(lease, attempt) jitter of
	// up to this fraction on top of each probe delay; 0 means the
	// default, negative means no jitter.
	RecallJitter float64
}

// Enabled reports whether any shard fault class is active.
func (sc *ShardScenario) Enabled() bool {
	return sc.CrashMTBF > 0 || sc.PartitionMTBF > 0
}

// ShardGrammar is the shard fault grammar: one row per key, in String
// order. ParseShardScenario, Normalized, Validate and String all read it.
var ShardGrammar = faults.Grammar[ShardScenario]{Prefix: "fed: shard-faults", Params: []faults.Param[ShardScenario]{
	{Key: "crash-mtbf", Float: func(s *ShardScenario) *float64 { return &s.CrashMTBF }, Hi: inf},
	{Key: "mttr", Float: func(s *ShardScenario) *float64 { return &s.MTTR }, Rule: faults.DefaultAtLo, Def: 120, Hi: inf},
	{Key: "rejoin-delay", Float: func(s *ShardScenario) *float64 { return &s.RejoinDelay }, Rule: faults.DefaultAtLo, Def: 30, Hi: inf},
	{Key: "part-mtbf", Float: func(s *ShardScenario) *float64 { return &s.PartitionMTBF }, Hi: inf},
	{Key: "part-dur", Float: func(s *ShardScenario) *float64 { return &s.PartitionDur }, Rule: faults.DefaultAtLo, Def: 60, Hi: inf},
	{Key: "grace-ttl", Float: func(s *ShardScenario) *float64 { return &s.GraceTTL }, Rule: faults.DefaultAtLo, Def: 45, Hi: inf},
	{Key: "recall-retries", Int: func(s *ShardScenario) *int { return &s.RecallRetries }, Rule: faults.NegativeIsNone, Def: 3, Lo: -1, Hi: 64},
	{Key: "recall-backoff", Float: func(s *ShardScenario) *float64 { return &s.RecallBackoff }, Rule: faults.DefaultAtLo, Def: 20, Hi: inf},
	{Key: "recall-cap", Float: func(s *ShardScenario) *float64 { return &s.RecallCap }, Rule: faults.DefaultAtLo, Def: 120, Hi: inf},
	{Key: "recall-jitter", Float: func(s *ShardScenario) *float64 { return &s.RecallJitter }, Rule: faults.NegativeIsNone, Def: 0.25, Lo: -1, Hi: 10},
	{Key: "seed", Uint: func(s *ShardScenario) *uint64 { return &s.Seed }, Hi: inf},
}}

var inf = math.Inf(1)

// Normalized returns a copy with each key's zero/negative rule applied.
func (sc *ShardScenario) Normalized() ShardScenario { return ShardGrammar.Normalized(*sc) }

// Validate rejects a scenario with a value that is not finite or out of
// range.
func (sc *ShardScenario) Validate() error { return ShardGrammar.Validate(sc) }

// String renders every key at its value, a spec ParseShardScenario reads
// back to sc.
func (sc *ShardScenario) String() string { return ShardGrammar.String(sc) }

// ParseShardScenario builds a ShardScenario from a comma-separated
// key=value spec, e.g. "crash-mtbf=400,mttr=120,part-mtbf=600,seed=7".
// Unset parameters get their defaults (Normalized); the result is
// validated.
func ParseShardScenario(spec string) (*ShardScenario, error) { return ShardGrammar.Parse(spec) }

// Stream salts: one independent SplitMix64 stream per (class, shard),
// disjoint from the internal/faults node-level salts.
const (
	saltShardCrash  = 0x534844435253_0011 // "SHDCRS"
	saltShardPart   = 0x534844505254_0012
	saltShardRecall = 0x534844524343_0013
)

// shardInjector draws shard-fault events and tracks shard health for
// one run. Not safe for concurrent use; the federation drives it from
// the serial event loop (shard-fault events are federation events, so
// the parallel executor never touches it from a worker).
type shardInjector struct {
	sc         ShardScenario
	crash      []*rng.Source // per-shard crash stream: delay, outage, rejoin draws
	part       []*rng.Source // per-shard partition stream: delay, duration draws
	health     []ShardHealth
	downs      []int // crashes per shard
	partitions []int // partitions per shard
	unhealthy  int   // shards currently not Healthy
}

// newShardInjector builds an injector for shards shards under the
// normalized scenario sc.
func newShardInjector(sc ShardScenario, shards int) *shardInjector {
	return &shardInjector{
		sc:         sc,
		crash:      faults.Streams(sc.Seed, saltShardCrash, shards),
		part:       faults.Streams(sc.Seed, saltShardPart, shards),
		health:     make([]ShardHealth, shards),
		downs:      make([]int, shards),
		partitions: make([]int, shards),
	}
}

// nextCrash draws the delay to shard's next crash; ok is false when
// crashes are disabled.
func (in *shardInjector) nextCrash(shard int) (dt float64, ok bool) {
	if in.sc.CrashMTBF <= 0 {
		return 0, false
	}
	return in.crash[shard].Exp(in.sc.CrashMTBF), true
}

// outageDuration draws shard's outage length for its current crash (the
// crash stream alternates delay / outage / rejoin draws, so a shard's
// schedule is independent of every other shard's).
func (in *shardInjector) outageDuration(shard int) float64 {
	return in.crash[shard].Exp(in.sc.MTTR)
}

// rejoinDelay draws how long shard spends rejoining after its current
// outage ends.
func (in *shardInjector) rejoinDelay(shard int) float64 {
	return in.crash[shard].Exp(in.sc.RejoinDelay)
}

// nextPartition draws the delay to shard's next broker-link partition;
// ok is false when partitions are disabled.
func (in *shardInjector) nextPartition(shard int) (dt float64, ok bool) {
	if in.sc.PartitionMTBF <= 0 {
		return 0, false
	}
	return in.part[shard].Exp(in.sc.PartitionMTBF), true
}

// partitionDuration draws shard's current partition length.
func (in *shardInjector) partitionDuration(shard int) float64 {
	return in.part[shard].Exp(in.sc.PartitionDur)
}

// healthOf returns shard's current health.
func (in *shardInjector) healthOf(shard int) ShardHealth { return in.health[shard] }

// routable reports whether the router may place new arrivals on shard.
func (in *shardInjector) routable(shard int) bool { return in.health[shard] == ShardHealthy }

// reachable reports whether the broker can talk to shard: healthy and
// rejoining shards answer recall probes; partitioned and down shards do
// not.
func (in *shardInjector) reachable(shard int) bool {
	h := in.health[shard]
	return h == ShardHealthy || h == ShardRejoining
}

// move transitions shard from health from to health to, keeping the
// unhealthy count and the crash and partition tallies. It reports false,
// and does nothing, when shard is not in from: a stale timer (a heal
// after a crash absorbed the partition, a crash of a shard already down
// or rejoining) is ignored.
func (in *shardInjector) move(shard int, from, to ShardHealth) bool {
	if in.health[shard] != from {
		return false
	}
	in.health[shard] = to
	if from == ShardHealthy {
		in.unhealthy++
	} else if to == ShardHealthy {
		in.unhealthy--
	}
	switch to {
	case ShardDown:
		in.downs[shard]++
	case ShardPartitioned:
		in.partitions[shard]++
	}
	return true
}

// crashShard takes shard down from healthy or partitioned (a crash
// absorbs an ongoing partition); it reports false for shards already
// down or rejoining.
func (in *shardInjector) crashShard(shard int) bool {
	return in.move(shard, ShardHealthy, ShardDown) || in.move(shard, ShardPartitioned, ShardDown)
}

// recallBackoff returns the delay before probe attempt (1-based) of an
// orphaned lease: capped exponential growth from RecallBackoff with a
// deterministic jitter derived from (seed, lease, attempt) — stateless,
// so the reclaim schedule replays byte-identically regardless of how
// probes interleave with other events. A negative RecallJitter adds
// none.
func (in *shardInjector) recallBackoff(leaseID, attempt int) float64 {
	return rng.Backoff(in.sc.Seed^(uint64(leaseID)+1)*0x94d049bb133111eb, saltShardRecall, attempt,
		in.sc.RecallBackoff, in.sc.RecallCap, math.Max(0, in.sc.RecallJitter))
}

// --- federation-side wiring -----------------------------------------
//
// Everything below runs inside the federation's serial event regime:
// an armed shard-fault stream keeps RunParallel off the partitioned
// replay, so shard-fault events never execute on a worker.

// ShardFaultsArmed reports whether a shard-fault stream is armed.
func (f *Federation) ShardFaultsArmed() bool { return f.sfaults != nil }

// ShardHealthOf returns a shard's current health (always healthy when
// no shard-fault stream is armed).
func (f *Federation) ShardHealthOf(id int) ShardHealth {
	if f.sfaults == nil {
		return ShardHealthy
	}
	return f.sfaults.healthOf(id)
}

// ShardFaultStats reports the totals of injected shard crashes and
// broker-link partitions.
func (f *Federation) ShardFaultStats() (downs, partitions int) {
	if f.sfaults == nil {
		return 0, 0
	}
	for i := range f.shards {
		downs += f.sfaults.downs[i]
		partitions += f.sfaults.partitions[i]
	}
	return downs, partitions
}

// Evacuated reports how many queued jobs were migrated off crashed
// shards onto survivors.
func (f *Federation) Evacuated() int { return f.evacuated }

// routable reports whether the router and broker may use shard id (it
// is healthy, or no fault stream is armed).
func (f *Federation) routable(id int) bool {
	return f.sfaults == nil || f.sfaults.routable(id)
}

// armShardFaults schedules every shard's first crash and partition
// draw; called once from New when a scenario is configured.
func (f *Federation) armShardFaults() error {
	f.pendingCrash = make([]*des.Event, len(f.shards))
	f.pendingPartition = make([]*des.Event, len(f.shards))
	for i := range f.shards {
		if err := f.scheduleNextCrash(i); err != nil {
			return err
		}
		if err := f.scheduleNextPartition(i); err != nil {
			return err
		}
	}
	return nil
}

// scheduleNextCrash arms shard id's next whole-shard crash.
func (f *Federation) scheduleNextCrash(id int) error {
	dt, ok := f.sfaults.nextCrash(id)
	if !ok {
		return nil
	}
	ev, err := f.eng.AtHandler(f.now+dt, f, fevShardCrash, uint64(id))
	if err != nil {
		return err
	}
	f.pendingCrash[id] = ev
	return nil
}

// scheduleNextPartition arms shard id's next broker-link partition.
func (f *Federation) scheduleNextPartition(id int) error {
	dt, ok := f.sfaults.nextPartition(id)
	if !ok {
		return nil
	}
	ev, err := f.eng.AtHandler(f.now+dt, f, fevShardPartition, uint64(id))
	if err != nil {
		return err
	}
	f.pendingPartition[id] = ev
	return nil
}

// handleShardCrash takes shard id down: an ongoing partition is
// absorbed (its pending heal is cancelled), every lease the shard
// touches is orphaned into the reclaim protocol, its queued jobs are
// evacuated to survivors, and the recovery timer starts. Jobs already
// running on the shard ride out the outage — the region's compute
// keeps executing resident work; it is the control plane that is gone.
func (f *Federation) handleShardCrash(id int) {
	f.pendingCrash[id] = nil
	if !f.sfaults.crashShard(id) {
		return // stale: already down or rejoining
	}
	if f.pendingPartition[id] != nil {
		f.pendingPartition[id].Cancel()
		f.pendingPartition[id] = nil
	}
	mShardDowns.Inc()
	gShardsUnhealthy.Set(float64(f.sfaults.unhealthy))
	f.orphanShardLeases(id)
	f.evacuateShard(id)
	if _, err := f.eng.AtHandler(f.now+f.sfaults.outageDuration(id), f, fevShardRecover, uint64(id)); err != nil {
		f.fail(err)
	}
}

// handleShardRecover ends shard id's outage: the shard becomes
// reachable (rejoining) — recall probes against it now succeed — but
// stays out of routing and lending until its rejoin delay elapses.
func (f *Federation) handleShardRecover(id int) {
	if !f.sfaults.move(id, ShardDown, ShardRejoining) {
		return
	}
	if _, err := f.eng.AtHandler(f.now+f.sfaults.rejoinDelay(id), f, fevShardRejoin, uint64(id)); err != nil {
		f.fail(err)
	}
}

// handleShardRejoin returns shard id to full health: its remaining
// orphaned leases settle (clean bound — eff is back to entitlement ±
// leases touching still-unreachable partners), and the shard re-earns
// entitlement: it is routable and lendable again, with its next crash
// and partition draws re-armed.
func (f *Federation) handleShardRejoin(id int) {
	if !f.sfaults.move(id, ShardRejoining, ShardHealthy) {
		return
	}
	gShardsUnhealthy.Set(float64(f.sfaults.unhealthy))
	f.settleShardOrphans(id)
	// Reconcile the rejoined shard at the shared clock: recovered
	// capacity is re-covered by one bounded dispatch/preemption pass
	// instead of waiting for the shard's next organic scheduler event.
	// The handler fires identically in the serial and parallel
	// executors, so replay output stays byte-identical.
	sh := f.shards[id]
	f.touch(sh)
	if err := sh.Online.Advance(f.now); err != nil {
		f.fail(err)
	} else if err := sh.Online.Reconcile(); err != nil {
		f.fail(err)
	}
	if !f.sfStopped {
		if err := f.scheduleNextCrash(id); err != nil {
			f.fail(err)
		}
		if err := f.scheduleNextPartition(id); err != nil {
			f.fail(err)
		}
	}
}

// handleShardPartition cuts shard id's broker link: the router and
// broker exclude it and its leases are orphaned (the broker must
// assume the worst — the grace TTL means a quick heal settles them
// without a single failed probe), but its queue stays put and its
// resident jobs keep running.
func (f *Federation) handleShardPartition(id int) {
	f.pendingPartition[id] = nil
	if !f.sfaults.move(id, ShardHealthy, ShardPartitioned) {
		return // stale: crash won the race
	}
	mShardPartitions.Inc()
	gShardsUnhealthy.Set(float64(f.sfaults.unhealthy))
	f.orphanShardLeases(id)
	ev, err := f.eng.AtHandler(f.now+f.sfaults.partitionDuration(id), f, fevShardHeal, uint64(id))
	if err != nil {
		f.fail(err)
		return
	}
	f.pendingPartition[id] = ev
}

// handleShardHeal restores shard id's broker link after a partition:
// its remaining orphans settle and the partition stream re-arms.
func (f *Federation) handleShardHeal(id int) {
	f.pendingPartition[id] = nil
	if !f.sfaults.move(id, ShardPartitioned, ShardHealthy) {
		return // stale: a crash absorbed the partition
	}
	gShardsUnhealthy.Set(float64(f.sfaults.unhealthy))
	f.settleShardOrphans(id)
	if !f.sfStopped {
		if err := f.scheduleNextPartition(id); err != nil {
			f.fail(err)
		}
	}
}

// evacuateShard migrates the crashed shard's queued (not-yet-running)
// jobs to surviving shards: each job is extracted via the scheduler's
// evacuation primitive and re-submitted least-loaded-first among
// routable shards (its locality home is down anyway, so the emergency
// path optimizes for drain time; ties go to the lower id, keeping the
// placement deterministic). With no routable survivor the queue stays
// put — the autonomous region runs it when power allows — so no job is
// ever lost either way. Each job lands on exactly one shard: the
// extraction removes it from the source's accounting before the
// re-submit enters it on the destination's, and jobShard repoints in
// the same step.
//
// The survivors' loads sit in a min-heap built once per crash. Inside
// this handler only the destination's load moves, so after each
// re-submit re-reading the root's load and sifting it down keeps the
// heap exact: every pick is the one a full least-loaded scan would make.
func (f *Federation) evacuateShard(id int) {
	var h loadHeap
	for _, sh := range f.shards {
		if sh.ID != id && f.routable(sh.ID) {
			h = append(h, loadOf(sh))
		}
	}
	if len(h) == 0 {
		return // no routable survivor: leave the queue in place
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	src := f.shards[id]
	jobs := src.Online.EvacuateQueued()
	if len(jobs) == 0 {
		return
	}
	f.touch(src)
	for _, j := range jobs {
		dst := f.shards[h[0].id]
		f.touch(dst)
		if err := dst.Online.Advance(f.now); err != nil {
			f.fail(err)
			return
		}
		if _, err := dst.Online.SubmitPri(j.ID, j.App, j.Priority); err != nil {
			f.fail(err)
			return
		}
		h[0] = loadOf(dst)
		h.down(0)
		f.jobShard[j.ID] = dst.ID
		dst.submitted++
		f.evacuated++
		mJobsEvacuated.Inc()
	}
}

// loadHeap is a binary min-heap of shard loads in least-loaded order.
type loadHeap []shardLoad

// down restores the heap property from slot i towards the leaves.
func (h loadHeap) down(i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[c].less(h[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// maybeStopShardFaults shuts the stream generators down once every
// scheduled arrival has routed and every routed job is terminal: the
// fault stream would otherwise regenerate forever and the run would
// never quiesce. In-flight recovery chains (recover → rejoin, pending
// heals, recall probes) still fire — they are finite — so health and
// lease state finish settling on the virtual timeline.
func (f *Federation) maybeStopShardFaults() {
	if f.sfaults == nil || f.sfStopped || f.arrivalsLeft > 0 {
		return
	}
	for _, sh := range f.shards {
		if sh.Online.Pending() > 0 {
			return
		}
	}
	f.stopShardFaults()
}

// stopShardFaults cancels the pending crash and partition-start
// generator events. A pending heal (the shard is currently
// partitioned) is not a generator and still fires.
func (f *Federation) stopShardFaults() {
	f.sfStopped = true
	if f.pendingCrash == nil {
		return
	}
	for i := range f.shards {
		if f.pendingCrash[i] != nil {
			f.pendingCrash[i].Cancel()
			f.pendingCrash[i] = nil
		}
		if f.pendingPartition[i] != nil && f.sfaults.healthOf(i) != ShardPartitioned {
			f.pendingPartition[i].Cancel()
			f.pendingPartition[i] = nil
		}
	}
}
