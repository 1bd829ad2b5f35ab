// Package fed federates N independent power-bounded scheduler shards
// behind one shared virtual clock — the planet-scale layer above
// jobsched: each shard is a jobsched.Online session over its own
// cluster, and the Federation always advances whichever shard owns the
// earliest pending event, so cross-shard causality is deterministic by
// construction (the ClusterSimulator decomposition: peek every member,
// step only the earliest).
//
// On top of the shared clock the federation runs a cross-shard
// power-lending broker in the Budget/Reservation/Lease shape: shards
// publish envelope headroom (free watts beyond a configured reserve),
// shards with starved queues borrow watts in quanta under an aggregate
// federation cap, and every loan is a Lease that expires after a TTL,
// is recalled early when the lender's own queue needs the watts back,
// or is released early when the borrower no longer needs them. Bound
// changes land through jobsched's demand-response machinery, so a
// recall that undercuts a borrower's allocation throttles its running
// jobs (the excursion-derate safety net) instead of breaking the bound
// invariant.
//
// A routing policy places incoming jobs onto shards (least-loaded,
// power-headroom or locality); cmd/clipfed drives 16–128 shards from
// one clock with per-shard and aggregate telemetry.
package fed

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/hw"
	"repro/internal/idindex"
	"repro/internal/jobsched"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Telemetry handles of the federation layer.
var (
	mFedEvents = telemetry.Default.Counter("clip_fed_events_total",
		"events processed across all federated shards")
	mFedJobsRouted = telemetry.Default.Counter("clip_fed_jobs_routed_total",
		"jobs routed onto a shard by the federation")
	mLeases = telemetry.Default.Counter("clip_fed_leases_total",
		"cross-shard power leases granted")
	mLeaseExpiries = telemetry.Default.Counter("clip_fed_lease_expiries_total",
		"leases that reached their TTL and returned their watts")
	mLeaseRecalls = telemetry.Default.Counter("clip_fed_lease_recalls_total",
		"leases recalled early because the lender's queue needed the watts")
	mLeaseReleases = telemetry.Default.Counter("clip_fed_lease_releases_total",
		"leases released early because the borrower no longer needed them")
	gWattsLent = telemetry.Default.Gauge("clip_fed_watts_lent",
		"cumulative watts granted across all leases")
	gWattsOnLoan = telemetry.Default.Gauge("clip_fed_watts_on_loan",
		"watts currently moved between shards by active leases")
	gAggBound = telemetry.Default.Gauge("clip_fed_aggregate_bound_watts",
		"sum of the shards' effective power bounds")
	mShardDowns = telemetry.Default.Counter("clip_fed_shard_down_total",
		"whole-shard crashes injected by the shard-fault stream")
	mShardPartitions = telemetry.Default.Counter("clip_fed_shard_partitions_total",
		"broker-link partitions injected by the shard-fault stream")
	mLeasesOrphaned = telemetry.Default.Counter("clip_fed_leases_orphaned_total",
		"leases orphaned because an endpoint shard became unreachable")
	mLeaseReclaims = telemetry.Default.Counter("clip_fed_lease_reclaims_total",
		"orphaned leases settled by the reclaim protocol")
	mJobsEvacuated = telemetry.Default.Counter("clip_fed_jobs_evacuated_total",
		"queued jobs migrated off a crashed shard onto survivors")
	gShardsUnhealthy = telemetry.Default.Gauge("clip_fed_shards_unhealthy",
		"shards currently partitioned, down or rejoining")
)

// fed-level des handler event kinds (the shards' own engines use the
// jobsched kinds; this engine only carries federation events).
const (
	fevArrival uint16 = 1 + iota
	fevLeaseExpiry
	// Shard-fault stream events (arg = shard id). They are
	// federation-owned interaction points, so an armed stream keeps
	// RunParallel off the partitioned replay: health transitions,
	// evacuations and orphan settlements only ever happen while
	// stepping serially — in both Run and RunParallel.
	fevShardCrash
	fevShardRecover
	fevShardRejoin
	fevShardPartition
	fevShardHeal
	// fevLeaseRecall is an orphan reclaim probe (arg = lease id).
	fevLeaseRecall
)

// ShardConfig describes one regional scheduler shard.
type ShardConfig struct {
	// Nodes is the shard's cluster size.
	Nodes int
	// BudgetW is the shard's nameplate power bound in watts.
	BudgetW float64
	// Sigma is the manufacturing-variability sigma of the shard's
	// cluster.
	Sigma float64
	// Seed seeds the shard's hardware variability (distinct seeds give
	// shards distinct silicon).
	Seed int64
	// Policy is the shard's queueing discipline.
	Policy jobsched.Policy
	// Reallocate enables POWsched-style power sharing inside the shard.
	Reallocate bool
	// Preempt enables priority preemption inside the shard: a blocked
	// higher-priority job may evict running lower-priority jobs.
	Preempt bool
}

// Lending configures the cross-shard power broker. The zero value
// disables lending.
type Lending struct {
	// Enabled turns the broker on.
	Enabled bool
	// AggregateCapW caps the sum of effective shard bounds; 0 means the
	// sum of nameplate budgets. A cap below the nameplate sum scales
	// every shard's entitlement proportionally (the federation is
	// itself power-bounded).
	AggregateCapW float64
	// QuantumW is the watts moved per lease. Default 60.
	QuantumW float64
	// TTL is a lease's virtual lifetime in seconds. Default 240.
	TTL float64
}

// Fixed broker limits.
const (
	// reserveFrac is the envelope headroom a lender keeps for itself:
	// only free watts beyond reserveFrac × entitlement are lendable.
	reserveFrac = 0.1
	// minBoundFrac floors a lender's effective bound at minBoundFrac ×
	// entitlement.
	minBoundFrac = 0.5
	// maxBorrowed caps one shard's concurrently held leases.
	maxBorrowed = 4
)

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// withDefaults fills the zero-valued knobs.
func (l Lending) withDefaults() Lending {
	if l.QuantumW <= 0 {
		l.QuantumW = 60
	}
	if l.TTL <= 0 {
		l.TTL = 240
	}
	return l
}

// Config configures a Federation.
type Config struct {
	// Shards lists the member shards (at least one).
	Shards []ShardConfig
	// Routing selects the job-placement policy across shards.
	Routing Policy
	// Lending configures the cross-shard power broker.
	Lending Lending
	// ShardFaults optionally arms the deterministic shard-level fault
	// stream (crashes, broker-link partitions, timed recoveries). Nil
	// or a scenario with no active class leaves the federation
	// failure-free.
	ShardFaults *ShardScenario
}

// Shard is one federated scheduler: an Online session over its own
// cluster, plus the broker's view of its power position.
type Shard struct {
	// ID is the shard's index in the federation.
	ID int
	// Cluster is the shard's hardware.
	Cluster *hw.Cluster
	// CLIP is the shard's scheduler façade; every shard's instance
	// holds the federation's one trained NP regression.
	CLIP *core.CLIP
	// Online is the shard's incremental scheduler session.
	Online *jobsched.Online

	// entitlement is the shard's share of the aggregate cap (nameplate
	// budget, scaled down when the cap is below the nameplate sum).
	entitlement float64
	// eff mirrors the shard's current effective bound (entitlement −
	// lent + borrowed); the audit cross-checks it against the scheduler.
	eff float64
	// lentW / borrowedW are the shard's current outgoing / incoming
	// active lease watts.
	lentW, borrowedW float64
	// submitted counts jobs routed to this shard.
	submitted int
	// queueGauge is the shard's clip_fed_shard_queue{shard=ID} handle
	// on telemetry.Default.
	queueGauge *telemetry.Gauge
}

// fedArrival is one pre-scheduled submission.
type fedArrival struct {
	id  string
	app *workload.Spec
	key string  // locality key (Locality routing)
	t   float64 // scheduled arrival time (partitioned replay)
	pri int     // scheduling priority (0 inherits the app default)
}

// The arrival arena's blocks hold arrivalBlock arrivals each, a power
// of two, so an arena index splits into block and offset with a shift
// and a mask.
const (
	arrivalShift = 12
	arrivalBlock = 1 << arrivalShift
)

// Federation drives N shards from one shared clock. Not safe for
// concurrent use.
type Federation struct {
	cfg    Config
	shards []*Shard
	// eng holds the federation's own events (arrivals, lease expiries);
	// shard events live in the shards' engines.
	eng *des.Engine
	// now is the shared clock: the timestamp of the last processed
	// event anywhere in the federation.
	now float64
	// arrivals is the arrival arena: a fevArrival event's argument and
	// a partitioned replay's per-shard lists are indices into it, read
	// through arrival. It lives in fixed blocks of arrivalBlock, so it
	// grows a block at a time and never copies an arrival or moves one;
	// narrivals counts the arrivals ScheduleArrivalPri has written.
	arrivals  []*[arrivalBlock]fedArrival
	narrivals int32
	// scheduled indexes every id ScheduleArrivalPri accepted by its
	// place in arrivals, so a duplicate is rejected federation-wide. It
	// is the only per-job index the federation keeps: a routed job's
	// shard is the shard whose session lists it.
	scheduled idindex.Index
	// broker state
	leases  []*Lease // every lease ever granted, by ID
	active  []*Lease // active leases, ascending ID
	orphans []*Lease // leases in the orphan reclaim protocol, by orphan order
	// shard-fault state
	sfaults *shardInjector // nil when no shard-fault stream is armed
	// pendingCrash / pendingPartition track each shard's next scheduled
	// crash / partition-start so the stream generators can be cancelled
	// when the last job turns terminal (in-flight recover/rejoin/heal
	// events always fire, so a run ends on a finite event set).
	pendingCrash     []*des.Event
	pendingPartition []*des.Event
	sfStopped        bool
	arrivalsLeft     int // scheduled arrivals not yet routed (or handed to a replay)
	evacuated        int // queued jobs migrated off crashed shards
	// evacuateShard's buffers, reused across crashes: the survivors'
	// load heap and the evacuated jobs.
	evacHeap loadHeap
	evacJobs []jobsched.Job
	// audit state
	audits       int
	violations   int
	violationLog []AuditViolation
	failure      error
	// interrupted asks Run/RunParallel to stop stepping and drain; it is
	// the only federation state safe to touch from another goroutine
	// (cmd/clipfed's signal handler).
	interrupted atomic.Bool
	// events counts processed events (shard + federation).
	events uint64

	// heap indexes shard next-event times (built lazily on the first
	// step); touched/touchedMark collect the shards whose timelines
	// moved since the last re-key, so only those are re-peeked.
	heap        *shardHeap
	touched     []int
	touchedMark []bool
}

// New builds a federation of len(cfg.Shards) shards. Shard clusters and
// CLIP instances are constructed per shard, so distinct seeds give
// distinct silicon; the aggregate cap (when below the nameplate sum)
// scales every shard's starting bound proportionally. Every shard is
// built from one node spec, so all shards' CLIP instances share one
// knowledge table: the NP regression is trained once, and each
// application is profiled and fitted, and each node-level configuration
// question searched, once per federation. The table fills as jobs
// arrive; New profiles nothing.
func New(cfg Config) (*Federation, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("fed: no shards configured")
	}
	if l := cfg.Lending; !finite(l.AggregateCapW) || !finite(l.QuantumW) || !finite(l.TTL) {
		return nil, fmt.Errorf("fed: lending cap %g W, quantum %g W and TTL %g s must be finite",
			l.AggregateCapW, l.QuantumW, l.TTL)
	}
	cfg.Lending = cfg.Lending.withDefaults()
	var nameplate float64
	for i, sc := range cfg.Shards {
		if sc.Nodes <= 0 || sc.BudgetW <= 0 || !finite(sc.BudgetW) {
			return nil, fmt.Errorf("fed: shard %d: need positive nodes and a positive, finite budget", i)
		}
		if err := hw.CheckSigma(sc.Sigma); err != nil {
			return nil, fmt.Errorf("fed: shard %d: %w", i, err)
		}
		nameplate += sc.BudgetW
	}
	cap := cfg.Lending.AggregateCapW
	if cap <= 0 || !cfg.Lending.Enabled {
		cap = nameplate
	}
	if cap > nameplate {
		cap = nameplate
	}
	cfg.Lending.AggregateCapW = cap
	scale := cap / nameplate

	f := &Federation{cfg: cfg, eng: des.NewEngine()}
	spec := hw.HaswellSpec()
	model, err := core.TrainNPModel(spec)
	if err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	know := core.NewKnowledge(spec, model)
	for i, sc := range cfg.Shards {
		cl := hw.NewCluster(sc.Nodes, spec, sc.Sigma, sc.Seed)
		clip, err := core.New(cl, core.Options{Knowledge: know})
		if err != nil {
			return nil, fmt.Errorf("fed: shard %d: %w", i, err)
		}
		ent := sc.BudgetW * scale
		s, err := jobsched.New(cl, clip, jobsched.Config{
			Bound: ent, Policy: sc.Policy, Reallocate: sc.Reallocate,
			Preempt: sc.Preempt,
		})
		if err != nil {
			return nil, fmt.Errorf("fed: shard %d: %w", i, err)
		}
		on, err := s.Online()
		if err != nil {
			return nil, fmt.Errorf("fed: shard %d: %w", i, err)
		}
		f.shards = append(f.shards, &Shard{
			ID: i, Cluster: cl, CLIP: clip, Online: on, entitlement: ent, eff: ent,
			queueGauge: telemetry.Default.Gauge(
				telemetry.Label("clip_fed_shard_queue", "shard", strconv.Itoa(i)),
				"queued jobs on the shard after its most recent event"),
		})
	}
	if cfg.ShardFaults != nil && cfg.ShardFaults.Enabled() {
		sc := cfg.ShardFaults.Normalized()
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		f.sfaults = newShardInjector(sc, len(f.shards))
		if err := f.armShardFaults(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Shards returns the member shards (read-only use).
func (f *Federation) Shards() []*Shard { return f.shards }

// Now returns the shared virtual clock in seconds.
func (f *Federation) Now() float64 { return f.now }

// Routing returns the federation's configured routing policy.
func (f *Federation) Routing() Policy { return f.cfg.Routing }

// Events returns the number of events processed so far.
func (f *Federation) Events() uint64 { return f.events }

// Err returns the first internal failure (a shard scheduler error or an
// aggregate-cap audit violation), if any.
func (f *Federation) Err() error { return f.failure }

// HandleEvent implements des.Handler for the federation's own events.
func (f *Federation) HandleEvent(kind uint16, arg uint64) {
	// The engine clock is already at the firing event's time, but Step
	// only assigns f.now after StepNext returns; sync it here so
	// handlers that timestamp state or schedule follow-ups (recovery
	// timers, recall probes at now+GraceTTL) never work from the
	// previous event's clock — with sparse traces a stale clock could
	// even put a follow-up in the engine's past.
	f.now = f.eng.Now()
	switch kind {
	case fevArrival:
		f.arrivalsLeft--
		f.routeArrival(f.arrival(int32(arg)))
	case fevLeaseExpiry:
		f.expireLease(f.leases[arg])
	case fevShardCrash:
		f.handleShardCrash(int(arg))
	case fevShardRecover:
		f.handleShardRecover(int(arg))
	case fevShardRejoin:
		f.handleShardRejoin(int(arg))
	case fevShardPartition:
		f.handleShardPartition(int(arg))
	case fevShardHeal:
		f.handleShardHeal(int(arg))
	case fevLeaseRecall:
		f.recallProbe(f.leases[arg])
	}
}

// ScheduleArrivalPri pre-schedules a job submission at virtual time t:
// the job is routed to a shard by the federation's policy when the
// clock reaches t. Job ids must be unique federation-wide; key is the
// locality key used by the Locality policy (the job id when empty);
// pri is the scheduling priority (0 inherits the application default).
func (f *Federation) ScheduleArrivalPri(t float64, id string, app *workload.Spec, key string, pri int) error {
	if id == "" {
		return fmt.Errorf("fed: empty job id")
	}
	if app == nil {
		return fmt.Errorf("fed: job %q has no application", id)
	}
	_, slot, dup := f.scheduled.Find(id, f.arrivalID)
	if dup {
		return fmt.Errorf("fed: duplicate job id %q", id)
	}
	// Schedule first: a time the engine rejects (NaN, ±Inf, the past)
	// must leave the id free and the arrival arena untouched.
	i := f.narrivals
	if _, err := f.eng.At(t, f, fevArrival, uint64(i)); err != nil {
		return err
	}
	if int(i>>arrivalShift) == len(f.arrivals) {
		f.arrivals = append(f.arrivals, new([arrivalBlock]fedArrival))
	}
	*f.arrival(i) = fedArrival{id: id, app: app, key: key, t: t, pri: pri}
	f.narrivals++
	f.scheduled.Fill(slot, i)
	f.arrivalsLeft++
	return nil
}

// arrival returns arrival i of the arena.
func (f *Federation) arrival(i int32) *fedArrival {
	return &f.arrivals[i>>arrivalShift][i&(arrivalBlock-1)]
}

// arrivalID is the scheduled index's key: the id of arrival i.
func (f *Federation) arrivalID(i int32) string { return f.arrival(i).id }

// routeArrival places one due arrival onto a shard.
func (f *Federation) routeArrival(a *fedArrival) {
	sh := f.shards[f.pickShard(a)]
	f.touch(sh)
	if err := sh.Online.Advance(f.eng.Now()); err != nil {
		f.fail(err)
		return
	}
	if _, err := sh.Online.SubmitPri(a.id, a.app, a.pri); err != nil {
		f.fail(err)
		return
	}
	sh.submitted++
	mFedJobsRouted.Inc()
}

// ensureHeap builds the shard next-event index on the first step. The
// federation owns its shards' timelines from then on: every operation
// that can move a shard's earliest event marks the shard touched, and
// rekeyTouched re-peeks exactly those before the next decision.
func (f *Federation) ensureHeap() {
	if f.heap != nil {
		return
	}
	f.heap = newShardHeap(len(f.shards))
	f.touchedMark = make([]bool, len(f.shards))
	for _, sh := range f.shards {
		f.rekeyShard(sh.ID)
	}
}

// touch marks a shard whose timeline may have moved (an event fired,
// a job was routed to it, its bound changed) for lazy re-key.
func (f *Federation) touch(sh *Shard) {
	if f.heap == nil || f.touchedMark[sh.ID] {
		return
	}
	f.touchedMark[sh.ID] = true
	f.touched = append(f.touched, sh.ID)
}

// rekeyShard re-peeks one shard's earliest event into the heap.
func (f *Federation) rekeyShard(id int) {
	t, ok := f.shards[id].Online.Next()
	f.heap.update(id, t, ok)
}

// rekeyTouched re-keys every shard touched since the last call.
func (f *Federation) rekeyTouched() {
	for _, id := range f.touched {
		f.touchedMark[id] = false
		f.rekeyShard(id)
	}
	f.touched = f.touched[:0]
}

// fail latches the federation's first failure.
func (f *Federation) fail(err error) {
	if f.failure == nil {
		f.failure = err
	}
}

// Step processes the single earliest pending event across the whole
// federation — a shard's scheduler event, an arrival, or a lease
// expiry — then runs a broker pass and the aggregate-cap audit. It
// reports whether an event was processed (false means the federation
// is quiescent: drain or stop).
func (f *Federation) Step() (bool, error) {
	if f.failure != nil {
		return false, f.failure
	}
	f.ensureHeap()
	// The federation's own events win ties, then lower shard ids (the
	// heap's ordering); any fixed rule keeps repeat runs byte-identical.
	t, ok := f.eng.Next()
	sid, st, sok := f.heap.min()
	if !ok && !sok {
		return false, nil
	}
	if ok && (!sok || t <= st) {
		if _, err := f.eng.StepNext(); err != nil {
			f.rekeyTouched()
			return false, f.latch(err)
		}
	} else {
		t = st
		sh := f.shards[sid]
		f.touch(sh)
		if err := sh.Online.ProcessNextEvent(); err != nil {
			f.rekeyTouched()
			return false, f.latch(err)
		}
		sh.queueGauge.Set(float64(sh.Online.QueueLen()))
	}
	f.now = t
	f.events++
	mFedEvents.Inc()
	if f.failure == nil {
		f.brokerPass()
	}
	f.audit()
	f.maybeStopShardFaults()
	f.rekeyTouched()
	return true, f.failure
}

// latch records err (or any failure a handler latched) and returns it.
func (f *Federation) latch(err error) error {
	f.fail(err)
	return f.failure
}

// Run processes events until the federation is quiescent (all arrivals
// routed, all shard queues empty or blocked forever, no pending lease
// expiries), then drains every shard. An armed shard-fault stream
// shuts itself down when the last routed job turns terminal, so the
// event set stays finite. Interrupt stops stepping early and goes
// straight to Drain.
func (f *Federation) Run() error {
	if err := f.stepAll(); err != nil {
		return err
	}
	return f.Drain()
}

// stepAll steps until the federation is quiescent, fails or is
// interrupted — the event loop of Run and of RunParallel's serial
// regime.
func (f *Federation) stepAll() error {
	for !f.interrupted.Load() {
		ok, err := f.Step()
		if err != nil || !ok {
			return err
		}
	}
	return nil
}

// Interrupt asks a running Run or RunParallel to stop stepping at the
// next event boundary and drain. A partitioned replay (RunParallel with
// no interaction points) does not step: once it has started it runs to
// completion, and an Interrupt before it starts makes RunParallel drain
// at once instead. Safe to call from another goroutine (the signal
// handler); everything else on Federation is not.
func (f *Federation) Interrupt() { f.interrupted.Store(true) }

// Interrupted reports whether the run was cut short by Interrupt.
func (f *Federation) Interrupted() bool { return f.interrupted.Load() }

// ArrivalsPending reports how many scheduled arrivals have not been
// routed yet (non-zero after an interrupted run).
func (f *Federation) ArrivalsPending() int { return f.arrivalsLeft }

// Drain ends the run: the shard-fault stream is stopped, every orphaned
// lease is force-settled and every active lease recalled (shards return
// to their entitlements, so queued work drains under the bounds it was
// admitted for), then each shard drains its resident and queued jobs in
// virtual time. After Drain every submitted job is terminal and every
// lease ever granted is in a terminal state.
func (f *Federation) Drain() error {
	f.ensureHeap()
	return f.drainParallel(1)
}

// AuditStats reports how many per-event aggregate audits ran and how
// many found a violation (always zero unless Err is set).
func (f *Federation) AuditStats() (audits, violations int) {
	return f.audits, f.violations
}

// audit asserts the federation's power invariants at the current event
// boundary: the sum of effective shard bounds never exceeds the
// aggregate cap, every shard's scheduler agrees with the broker's
// mirror of its bound (through partitions too — the mirror moves only
// when the scheduler's bound does), and lease accounting balances
// (Σ lent = Σ borrowed = Σ active + orphaned lease watts). With a
// shard-fault stream armed it additionally asserts the degraded-mode
// invariant that every orphaned lease still touches an unhealthy shard
// — an orphan both of whose endpoints returned to full health should
// have settled.
func (f *Federation) audit() {
	f.audits++
	f.auditCheck()
}

// auditCheck performs the audit's invariant checks without counting an
// audit. The partitioned replay calls it once at its barrier after
// crediting f.audits with the replay's event count: with the broker
// inert no bound or lease can change, so the serial run's per-event
// audits and that one physical check see exactly the same state.
func (f *Federation) auditCheck() {
	const eps = 1e-6
	var sum, lent, borrowed float64
	for _, sh := range f.shards {
		b := sh.Online.Bound()
		if b != sh.eff {
			f.violation("mirror-drift", fmt.Sprintf("shard %d bound %.9f drifted from broker mirror %.9f", sh.ID, b, sh.eff))
		}
		sum += b
		lent += sh.lentW
		borrowed += sh.borrowedW
	}
	if sum > f.cfg.Lending.AggregateCapW+eps {
		f.violation("cap-exceeded", fmt.Sprintf("aggregate bound %.9f exceeds cap %.9f", sum, f.cfg.Lending.AggregateCapW))
	}
	var onLoan float64
	for _, l := range f.active {
		onLoan += l.Watts
	}
	for _, l := range f.orphans {
		onLoan += l.Watts
	}
	if diff := lent - onLoan; diff > eps || diff < -eps {
		f.violation("lent-imbalance", fmt.Sprintf("lent watts %.9f != outstanding lease watts %.9f", lent, onLoan))
	}
	if diff := borrowed - onLoan; diff > eps || diff < -eps {
		f.violation("borrowed-imbalance", fmt.Sprintf("borrowed watts %.9f != outstanding lease watts %.9f", borrowed, onLoan))
	}
	if f.sfaults != nil {
		for _, l := range f.orphans {
			if f.sfaults.healthOf(l.Lender) == ShardHealthy && f.sfaults.healthOf(l.Borrower) == ShardHealthy {
				f.violation("orphan-healthy", fmt.Sprintf("lease %d orphaned with both endpoints healthy (%d->%d)", l.ID, l.Lender, l.Borrower))
			}
		}
	}
	gAggBound.Set(sum)
	gWattsOnLoan.Set(onLoan)
}

// AuditViolation is one recorded audit failure: the virtual time of the
// violating event, the violation class, and the full message.
type AuditViolation struct {
	// T is the shared-clock timestamp of the event whose audit failed.
	T float64
	// Kind is the violation class (mirror-drift, cap-exceeded,
	// lent-imbalance, borrowed-imbalance, orphan-healthy).
	Kind string
	// Msg is the full violation description.
	Msg string
}

// maxViolationLog bounds the violation ring: the first occurrence of up
// to this many distinct violation kinds is kept.
const maxViolationLog = 8

// Violations returns the recorded ring of audit violations: the first
// occurrence of each distinct violation kind, up to eight, with event
// timestamps — so a chaos run's failure modes are all visible from one
// run instead of only the first (which is still what Err reports).
func (f *Federation) Violations() []AuditViolation { return f.violationLog }

// violation records one audit failure — counted always, ringed if its
// kind is new and the ring has room — and latches the first as the
// federation's failure.
func (f *Federation) violation(kind, msg string) {
	f.violations++
	if len(f.violationLog) < maxViolationLog {
		seen := false
		for _, v := range f.violationLog {
			if v.Kind == kind {
				seen = true
				break
			}
		}
		if !seen {
			f.violationLog = append(f.violationLog, AuditViolation{T: f.now, Kind: kind, Msg: msg})
		}
	}
	f.fail(fmt.Errorf("fed: audit: %s", msg))
}
