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
// protocol (graceTTL, then capped retry/backoff probes; see broker.go).
// A recovered shard re-enters through rejoining: its orphaned leases
// settle so its bound is clean, but it re-earns entitlement — the
// router and broker keep excluding it — until a rejoin delay of mean
// rejoinDelay elapses. The scenario sets the crash and partition rates
// and durations; the rejoin and reclaim schedule is fixed.
//
// A shard's fault state lives on its Shard: its health, its crash and
// partition streams, its tallies and its one pending crash and one
// pending partition-start or heal event. Every health change goes
// through Federation.move.
//
// Every draw flows through internal/rng with a seed derived from
// (scenario seed, stream salt, shard id), the same discipline as
// internal/faults: shard 3's second crash time does not depend on
// whether shard 5 ever partitioned, so a scenario replays
// byte-identically regardless of event interleaving — the property the
// parallel executor's byte-identity guarantee rests on.

import (
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
}

// Enabled reports whether any shard fault class is active.
func (sc *ShardScenario) Enabled() bool {
	return sc.CrashMTBF > 0 || sc.PartitionMTBF > 0
}

// ShardGrammar is the shard fault grammar: one row per key, in String
// order. ParseShardScenario, Normalized, Validate and String all read it.
var ShardGrammar = faults.Grammar[ShardScenario]{Prefix: "fed: shard-faults", Params: []faults.Param[ShardScenario]{
	{Key: "crash-mtbf", Float: func(s *ShardScenario) *float64 { return &s.CrashMTBF }},
	{Key: "mttr", Float: func(s *ShardScenario) *float64 { return &s.MTTR }, Def: 120},
	{Key: "part-mtbf", Float: func(s *ShardScenario) *float64 { return &s.PartitionMTBF }},
	{Key: "part-dur", Float: func(s *ShardScenario) *float64 { return &s.PartitionDur }, Def: 60},
	{Key: "seed", Uint: func(s *ShardScenario) *uint64 { return &s.Seed }},
}}

// Normalized returns a copy with an MTTR or partition duration at or
// below 0 replaced by its default.
func (sc *ShardScenario) Normalized() ShardScenario { return ShardGrammar.Normalized(*sc) }

// Validate rejects a scenario with a value that is not finite or is
// negative.
func (sc *ShardScenario) Validate() error { return ShardGrammar.Validate(sc) }

// String renders every key at its value, a spec ParseShardScenario reads
// back to sc.
func (sc *ShardScenario) String() string { return ShardGrammar.String(sc) }

// ParseShardScenario builds a ShardScenario from a comma-separated
// key=value spec, e.g. "crash-mtbf=400,mttr=120,part-mtbf=600,seed=7".
// Unset parameters get their defaults (Normalized); the result is
// validated.
func ParseShardScenario(spec string) (*ShardScenario, error) { return ShardGrammar.Parse(spec) }

// The fixed rejoin and orphan-reclaim schedule, in simulated seconds.
const (
	// rejoinDelay is the mean time a recovered shard spends rejoining
	// (excluded from routing and lending) before it is healthy again.
	rejoinDelay = 30
	// graceTTL is the delay from orphaning a lease to its first recall
	// probe: the window in which a quick recovery settles the lease
	// without any probe failing.
	graceTTL = 45
	// recallRetries is how many recall probes may fail; the probe after
	// the last of them force-reclaims.
	recallRetries = 3
	// recallBackoff is the delay after the first failed probe; it
	// doubles per failed probe up to recallCap.
	recallBackoff = 20
	recallCap     = 120
	// recallJitter is the largest fraction a probe delay's
	// deterministic per-(lease, attempt) jitter adds.
	recallJitter = 0.25
)

// Stream salts: one independent SplitMix64 stream per (class, shard),
// disjoint from the internal/faults node-level salts.
const (
	saltShardCrash  = 0x534844435253_0011 // "SHDCRS"
	saltShardPart   = 0x534844505254_0012
	saltShardRecall = 0x534844524343_0013
)

// recallDelay returns the delay before probe attempt+1 of orphaned
// lease leaseID, after attempt (1-based) failed probes: capped
// exponential growth from recallBackoff with a deterministic jitter
// derived from (seed, lease, attempt) — stateless, so the reclaim
// schedule replays byte-identically regardless of how probes
// interleave with other events.
func (f *Federation) recallDelay(leaseID, attempt int) float64 {
	return rng.Backoff(f.sf.Seed^(uint64(leaseID)+1)*0x94d049bb133111eb, saltShardRecall, attempt,
		recallBackoff, recallCap, recallJitter)
}

// routable reports whether the router and broker may use the shard: it
// is healthy (always, when no fault stream is armed).
func (sh *Shard) routable() bool { return sh.health == ShardHealthy }

// reachable reports whether the broker can talk to the shard: healthy
// and rejoining shards answer recall probes; partitioned and down
// shards do not.
func (sh *Shard) reachable() bool {
	return sh.health == ShardHealthy || sh.health == ShardRejoining
}

// move transitions sh from health from to health to, keeping the
// unhealthy count, its gauge and the crash and partition tallies. It
// reports false, and does nothing, when sh is not in from: a stale
// timer is ignored.
func (f *Federation) move(sh *Shard, from, to ShardHealth) bool {
	if sh.health != from {
		return false
	}
	sh.health = to
	if from == ShardHealthy {
		f.unhealthy++
	} else if to == ShardHealthy {
		f.unhealthy--
	}
	gShardsUnhealthy.Set(float64(f.unhealthy))
	switch to {
	case ShardDown:
		sh.downs++
	case ShardPartitioned:
		sh.partitions++
	}
	return true
}

// --- federation-side wiring -----------------------------------------
//
// Everything below runs inside the federation's serial event regime:
// an armed shard-fault stream keeps RunParallel off the partitioned
// replay, so shard-fault events never execute on a worker.

// ShardFaultsArmed reports whether a shard-fault stream is armed.
func (f *Federation) ShardFaultsArmed() bool { return f.sf != nil }

// ShardHealthOf returns a shard's current health (always healthy when
// no shard-fault stream is armed).
func (f *Federation) ShardHealthOf(id int) ShardHealth { return f.shards[id].health }

// ShardFaultStats reports the totals of injected shard crashes and
// broker-link partitions.
func (f *Federation) ShardFaultStats() (downs, partitions int) {
	for _, sh := range f.shards {
		downs += sh.downs
		partitions += sh.partitions
	}
	return downs, partitions
}

// Evacuated reports how many queued jobs were migrated off crashed
// shards onto survivors.
func (f *Federation) Evacuated() int { return f.evacuated }

// armShardFaults gives every shard its crash and partition streams and
// schedules its first crash and partition draw; called once from New
// when a scenario is configured.
func (f *Federation) armShardFaults(sc ShardScenario) error {
	f.sf = &sc
	crash := faults.Streams(sc.Seed, saltShardCrash, len(f.shards))
	part := faults.Streams(sc.Seed, saltShardPart, len(f.shards))
	for i, sh := range f.shards {
		sh.crashRNG, sh.partRNG = crash[i], part[i]
		if err := f.scheduleNextCrash(sh); err != nil {
			return err
		}
		if err := f.scheduleNextPartition(sh); err != nil {
			return err
		}
	}
	return nil
}

// scheduleNextCrash arms sh's next whole-shard crash.
func (f *Federation) scheduleNextCrash(sh *Shard) error {
	if f.sf.CrashMTBF <= 0 {
		return nil
	}
	ev, err := f.eng.At(f.now+sh.crashRNG.Exp(f.sf.CrashMTBF), f, fevShardCrash, uint64(sh.ID))
	sh.crashEv = ev
	return err
}

// scheduleNextPartition arms sh's next broker-link partition.
func (f *Federation) scheduleNextPartition(sh *Shard) error {
	if f.sf.PartitionMTBF <= 0 {
		return nil
	}
	ev, err := f.eng.At(f.now+sh.partRNG.Exp(f.sf.PartitionMTBF), f, fevShardPartition, uint64(sh.ID))
	sh.partEv = ev
	return err
}

// handleShardCrash takes sh down: an ongoing partition is absorbed
// (its pending heal is cancelled), every lease the shard touches is
// orphaned into the reclaim protocol, its queued jobs are evacuated to
// survivors, and the recovery timer starts. Jobs already running on
// the shard ride out the outage — the region's compute keeps executing
// resident work; it is the control plane that is gone.
func (f *Federation) handleShardCrash(sh *Shard) {
	sh.crashEv = nil
	if !f.move(sh, ShardHealthy, ShardDown) && !f.move(sh, ShardPartitioned, ShardDown) {
		return // stale: already down or rejoining
	}
	if sh.partEv != nil {
		sh.partEv.Cancel()
		sh.partEv = nil
	}
	mShardDowns.Inc()
	f.orphanShardLeases(sh.ID)
	f.evacuateShard(sh.ID)
	// The crash stream alternates delay / outage / rejoin draws, so a
	// shard's schedule is independent of every other shard's.
	if _, err := f.eng.At(f.now+sh.crashRNG.Exp(f.sf.MTTR), f, fevShardRecover, uint64(sh.ID)); err != nil {
		f.fail(err)
	}
}

// handleShardRecover ends sh's outage: the shard becomes reachable
// (rejoining) — recall probes against it now succeed — but stays out
// of routing and lending until its rejoin delay elapses.
func (f *Federation) handleShardRecover(sh *Shard) {
	if !f.move(sh, ShardDown, ShardRejoining) {
		return
	}
	if _, err := f.eng.At(f.now+sh.crashRNG.Exp(rejoinDelay), f, fevShardRejoin, uint64(sh.ID)); err != nil {
		f.fail(err)
	}
}

// handleShardRejoin returns sh to full health: its remaining orphaned
// leases settle (clean bound — eff is back to entitlement ± leases
// touching still-unreachable partners), and the shard re-earns
// entitlement: it is routable and lendable again, with its next crash
// and partition draws re-armed.
func (f *Federation) handleShardRejoin(sh *Shard) {
	if !f.move(sh, ShardRejoining, ShardHealthy) {
		return
	}
	f.settleShardOrphans(sh.ID)
	// Reconcile the rejoined shard at the shared clock: recovered
	// capacity is re-covered by one bounded dispatch/preemption pass
	// instead of waiting for the shard's next organic scheduler event.
	// The handler fires identically in the serial and parallel
	// executors, so replay output stays byte-identical.
	f.touch(sh)
	if err := sh.Online.Advance(f.now); err != nil {
		f.fail(err)
	} else if err := sh.Online.Reconcile(); err != nil {
		f.fail(err)
	}
	if !f.sfStopped {
		if err := f.scheduleNextCrash(sh); err != nil {
			f.fail(err)
		}
		if err := f.scheduleNextPartition(sh); err != nil {
			f.fail(err)
		}
	}
}

// handleShardPartition cuts sh's broker link: the router and broker
// exclude it and its leases are orphaned (the broker must assume the
// worst — the grace TTL means a quick heal settles them without a
// single failed probe), but its queue stays put and its resident jobs
// keep running.
func (f *Federation) handleShardPartition(sh *Shard) {
	sh.partEv = nil
	if !f.move(sh, ShardHealthy, ShardPartitioned) {
		return // stale: crash won the race
	}
	mShardPartitions.Inc()
	f.orphanShardLeases(sh.ID)
	ev, err := f.eng.At(f.now+sh.partRNG.Exp(f.sf.PartitionDur), f, fevShardHeal, uint64(sh.ID))
	if err != nil {
		f.fail(err)
		return
	}
	sh.partEv = ev
}

// handleShardHeal restores sh's broker link after a partition: its
// remaining orphans settle and the partition stream re-arms.
func (f *Federation) handleShardHeal(sh *Shard) {
	sh.partEv = nil
	if !f.move(sh, ShardPartitioned, ShardHealthy) {
		return // stale: a crash absorbed the partition
	}
	f.settleShardOrphans(sh.ID)
	if !f.sfStopped {
		if err := f.scheduleNextPartition(sh); err != nil {
			f.fail(err)
		}
	}
}

// evacuateShard migrates the crashed shard's queued (not-yet-running)
// jobs to surviving shards: each job is extracted via the scheduler's
// evacuation primitive and re-admitted least-loaded-first among
// routable shards (its locality home is down anyway, so the emergency
// path optimizes for drain time; ties go to the lower id, keeping the
// placement deterministic). With no routable survivor the queue stays
// put — the autonomous region runs it when power allows — so no job is
// ever lost either way. Each job lands on exactly one shard: the
// extraction removes it from the source's accounting before the
// re-admission enters it on the destination's.
//
// The survivors' loads sit in a min-heap built once per crash. Inside
// this handler only the destination's load moves, so after each
// re-admission re-reading the root's load and sifting it down keeps the
// heap exact: every pick is the one a full least-loaded scan would make.
// Jobs move one at a time because each pick depends on whether the
// previous job started or queued. The heap and the job buffer are the
// federation's, reused across crashes.
func (f *Federation) evacuateShard(id int) {
	h := f.evacHeap[:0]
	for _, sh := range f.shards {
		if sh.ID != id && sh.routable() {
			h = append(h, loadOf(sh))
		}
	}
	f.evacHeap = h
	if len(h) == 0 {
		return // no routable survivor: leave the queue in place
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	src := f.shards[id]
	jobs := src.Online.EvacuateQueued(f.evacJobs[:0])
	f.evacJobs = jobs
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
	if f.sf == nil || f.sfStopped || len(f.pending) > 0 {
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
	for _, sh := range f.shards {
		if sh.crashEv != nil {
			sh.crashEv.Cancel()
			sh.crashEv = nil
		}
		if sh.partEv != nil && sh.health != ShardPartitioned {
			sh.partEv.Cancel()
			sh.partEv = nil
		}
	}
}
