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
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/des"
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

// Default shard-fault scenario parameters, applied by Normalized for
// fields left zero. Exported so CLI help and docs can quote them.
const (
	// DefaultShardMTTR is the mean shard outage duration in seconds.
	DefaultShardMTTR = 120.0
	// DefaultPartitionDur is the mean broker-link partition duration.
	DefaultPartitionDur = 60.0
	// DefaultRejoinDelay is the mean entitlement re-earn delay after an
	// outage ends.
	DefaultRejoinDelay = 30.0
	// DefaultGraceTTL is how long the broker waits after a shard
	// becomes unreachable before the first orphan-lease recall probe.
	DefaultGraceTTL = 45.0
	// DefaultRecallRetries bounds the recall probes per orphaned lease
	// before the broker force-reclaims the watts.
	DefaultRecallRetries = 3
	// DefaultRecallBackoff is the first inter-probe delay in seconds.
	DefaultRecallBackoff = 20.0
	// DefaultRecallCap caps the exponential inter-probe delay.
	DefaultRecallCap = 120.0
	// DefaultRecallJitter is the relative jitter added per probe delay.
	DefaultRecallJitter = 0.25
)

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
	// the last failed probe the broker force-reclaims. 0 means
	// DefaultRecallRetries, negative means force-reclaim at the first
	// probe.
	RecallRetries int
	// RecallBackoff is the first inter-probe delay; doubles per probe.
	RecallBackoff float64
	// RecallCap caps the exponential inter-probe delay.
	RecallCap float64
	// RecallJitter adds a deterministic per-(lease, attempt) jitter of
	// up to this fraction on top of each probe delay.
	RecallJitter float64
}

// Enabled reports whether any shard fault class is active.
func (sc *ShardScenario) Enabled() bool {
	return sc.CrashMTBF > 0 || sc.PartitionMTBF > 0
}

// Normalized returns a copy with defaults applied to zero-valued
// parameters (outage shape, partition shape, reclaim protocol).
func (sc *ShardScenario) Normalized() ShardScenario {
	out := *sc
	if out.MTTR <= 0 {
		out.MTTR = DefaultShardMTTR
	}
	if out.PartitionDur <= 0 {
		out.PartitionDur = DefaultPartitionDur
	}
	if out.RejoinDelay <= 0 {
		out.RejoinDelay = DefaultRejoinDelay
	}
	if out.GraceTTL <= 0 {
		out.GraceTTL = DefaultGraceTTL
	}
	if out.RecallRetries == 0 {
		out.RecallRetries = DefaultRecallRetries
	}
	if out.RecallBackoff <= 0 {
		out.RecallBackoff = DefaultRecallBackoff
	}
	if out.RecallCap <= 0 {
		out.RecallCap = DefaultRecallCap
	}
	if out.RecallJitter < 0 {
		out.RecallJitter = 0
	} else if out.RecallJitter == 0 {
		out.RecallJitter = DefaultRecallJitter
	}
	return out
}

// Validate rejects scenarios whose parameters are out of range. It
// validates the raw values; callers normally Normalized() first.
func (sc *ShardScenario) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"crash-mtbf", sc.CrashMTBF}, {"mttr", sc.MTTR},
		{"part-mtbf", sc.PartitionMTBF}, {"part-dur", sc.PartitionDur},
		{"rejoin-delay", sc.RejoinDelay}, {"grace-ttl", sc.GraceTTL},
		{"recall-backoff", sc.RecallBackoff}, {"recall-cap", sc.RecallCap},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fed: shard-faults: %s must be a finite non-negative duration, got %g", f.name, f.v)
		}
	}
	if sc.RecallJitter < 0 || sc.RecallJitter > 10 {
		return fmt.Errorf("fed: shard-faults: recall-jitter must be in [0, 10], got %g", sc.RecallJitter)
	}
	if sc.RecallRetries > 64 {
		return fmt.Errorf("fed: shard-faults: recall-retries must be <= 64, got %d", sc.RecallRetries)
	}
	return nil
}

// String renders the scenario as a canonical ParseShardScenario-able
// spec (active fault classes first, then the reclaim protocol).
func (sc *ShardScenario) String() string {
	var parts []string
	add := func(k string, v float64) { parts = append(parts, fmt.Sprintf("%s=%g", k, v)) }
	if sc.CrashMTBF > 0 {
		add("crash-mtbf", sc.CrashMTBF)
		add("mttr", sc.MTTR)
		add("rejoin-delay", sc.RejoinDelay)
	}
	if sc.PartitionMTBF > 0 {
		add("part-mtbf", sc.PartitionMTBF)
		add("part-dur", sc.PartitionDur)
	}
	add("grace-ttl", sc.GraceTTL)
	parts = append(parts, fmt.Sprintf("recall-retries=%d", sc.RecallRetries),
		fmt.Sprintf("seed=%d", sc.Seed))
	return strings.Join(parts, ",")
}

// ParseShardScenario builds a ShardScenario from a comma-separated
// key=value spec, e.g. "crash-mtbf=400,mttr=120,part-mtbf=600,seed=7".
// Unset parameters get their defaults (Normalized); the result is
// validated.
func ParseShardScenario(spec string) (*ShardScenario, error) {
	sc := ShardScenario{}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("fed: shard-faults: %q is not key=value", kv)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		var err error
		switch k {
		case "seed":
			sc.Seed, err = strconv.ParseUint(v, 10, 64)
		case "crash-mtbf":
			sc.CrashMTBF, err = strconv.ParseFloat(v, 64)
		case "mttr":
			sc.MTTR, err = strconv.ParseFloat(v, 64)
		case "part-mtbf":
			sc.PartitionMTBF, err = strconv.ParseFloat(v, 64)
		case "part-dur":
			sc.PartitionDur, err = strconv.ParseFloat(v, 64)
		case "rejoin-delay":
			sc.RejoinDelay, err = strconv.ParseFloat(v, 64)
		case "grace-ttl":
			sc.GraceTTL, err = strconv.ParseFloat(v, 64)
		case "recall-retries":
			sc.RecallRetries, err = strconv.Atoi(v)
		case "recall-backoff":
			sc.RecallBackoff, err = strconv.ParseFloat(v, 64)
		case "recall-cap":
			sc.RecallCap, err = strconv.ParseFloat(v, 64)
		case "recall-jitter":
			sc.RecallJitter, err = strconv.ParseFloat(v, 64)
		default:
			keys := []string{"seed", "crash-mtbf", "mttr", "part-mtbf", "part-dur",
				"rejoin-delay", "grace-ttl", "recall-retries", "recall-backoff",
				"recall-cap", "recall-jitter"}
			sort.Strings(keys)
			return nil, fmt.Errorf("fed: shard-faults: unknown key %q (known: %s)", k, strings.Join(keys, ", "))
		}
		if err != nil {
			return nil, fmt.Errorf("fed: shard-faults: bad value for %s: %v", k, err)
		}
	}
	norm := sc.Normalized()
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	return &norm, nil
}

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
	in := &shardInjector{
		sc:         sc,
		crash:      make([]*rng.Source, shards),
		part:       make([]*rng.Source, shards),
		health:     make([]ShardHealth, shards),
		downs:      make([]int, shards),
		partitions: make([]int, shards),
	}
	for i := 0; i < shards; i++ {
		in.crash[i] = rng.New(rng.Derive(sc.Seed, saltShardCrash, i))
		in.part[i] = rng.New(rng.Derive(sc.Seed, saltShardPart, i))
	}
	return in
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

// setHealth moves shard to h, maintaining the unhealthy count.
func (in *shardInjector) setHealth(shard int, h ShardHealth) {
	was, is := in.health[shard] != ShardHealthy, h != ShardHealthy
	in.health[shard] = h
	if !was && is {
		in.unhealthy++
	} else if was && !is {
		in.unhealthy--
	}
}

// crashShard transitions shard to down (legal from healthy or
// partitioned — a crash absorbs an ongoing partition); it reports false
// for shards already down or rejoining.
func (in *shardInjector) crashShard(shard int) bool {
	switch in.health[shard] {
	case ShardHealthy, ShardPartitioned:
		in.setHealth(shard, ShardDown)
		in.downs[shard]++
		return true
	}
	return false
}

// recoverShard transitions shard from down to rejoining.
func (in *shardInjector) recoverShard(shard int) bool {
	if in.health[shard] != ShardDown {
		return false
	}
	in.setHealth(shard, ShardRejoining)
	return true
}

// rejoinShard transitions shard from rejoining back to healthy.
func (in *shardInjector) rejoinShard(shard int) bool {
	if in.health[shard] != ShardRejoining {
		return false
	}
	in.setHealth(shard, ShardHealthy)
	return true
}

// partitionShard transitions shard from healthy to partitioned; it
// reports false in any other state (a down shard's broker link is
// already gone).
func (in *shardInjector) partitionShard(shard int) bool {
	if in.health[shard] != ShardHealthy {
		return false
	}
	in.setHealth(shard, ShardPartitioned)
	in.partitions[shard]++
	return true
}

// healShard transitions shard from partitioned back to healthy; it
// reports false in any other state (stale heal events after a crash
// absorbed the partition are ignored).
func (in *shardInjector) healShard(shard int) bool {
	if in.health[shard] != ShardPartitioned {
		return false
	}
	in.setHealth(shard, ShardHealthy)
	return true
}

// recallBackoff returns the delay before probe attempt (1-based) of an
// orphaned lease: capped exponential growth from RecallBackoff with a
// deterministic jitter derived from (seed, lease, attempt) — stateless,
// so the reclaim schedule replays byte-identically regardless of how
// probes interleave with other events.
func (in *shardInjector) recallBackoff(leaseID, attempt int) float64 {
	return rng.Backoff(in.sc.Seed^(uint64(leaseID)+1)*0x94d049bb133111eb, saltShardRecall, attempt,
		in.sc.RecallBackoff, in.sc.RecallCap, in.sc.RecallJitter)
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
	if !f.sfaults.recoverShard(id) {
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
	if !f.sfaults.rejoinShard(id) {
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
	if !f.sfaults.partitionShard(id) {
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
	if !f.sfaults.healShard(id) {
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
