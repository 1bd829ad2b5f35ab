// Package jobsched is a power-bounded multi-job runtime scheduler — the
// runtime system the paper names as future work ("develop a runtime
// system to ... accommodate the needs"), combined with dynamic power
// sharing across concurrent jobs in the spirit of POWsched (paper
// reference [11], Ellsworth et al., SC'15).
//
// Jobs arrive over time; the scheduler places each one with CLIP's
// cluster-level coordination restricted to the currently free nodes and
// the currently free power, optionally backfills shorter jobs past a
// blocked queue head, and optionally re-distributes freed power to
// running jobs (which then finish earlier). The timeline is event
// driven (internal/des engine), with job runtimes supplied by the
// analytic simulator.
//
// Hot-path discipline: the run state is pooled and recycled across
// Runs, each job's state lives in one record taken from an arena, a
// running job's placement lives in a slot arena with a freelist, DES
// events dispatch through a handler interface (no closure per event),
// and placement decisions are memoized per application against the
// free set and free watts they were computed for — a steady-state
// schedule event performs zero heap allocations.
package jobsched

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/idindex"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/recommend"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Metrics is the scheduler's telemetry handle set, resolved once per
// registry cell: job throughput and queue pressure, handler latency,
// the fault layer's and the priority pipeline's counters and cumulative
// reclaimed watts, the fault events, and the handle set of the
// session's coordinators. Every run state publishes to the set of one
// cell of telemetry.Default, fixed when the state is built.
type Metrics struct {
	jobsStarted, jobsFinished        *telemetry.Counter
	queueDepth, queuePeak, freeWatts *telemetry.Gauge
	eventSeconds                     *telemetry.Histogram
	faultsInjected, jobsRetried      *telemetry.Counter
	quarantined                      *telemetry.Gauge
	reschedSeconds                   *telemetry.Histogram
	jobsPreempted, reconcilePasses   *telemetry.Counter
	wattsReclaimed, preemptWatts     *telemetry.Gauge
	events                           *telemetry.EventLog
	coord                            *coordinator.Metrics
}

// NewMetrics resolves the scheduler's handle set from a registry cell.
func NewMetrics(r telemetry.Cell) *Metrics {
	return &Metrics{
		jobsStarted: r.Counter("clip_jobsched_jobs_started_total",
			"jobs placed on the cluster"),
		jobsFinished: r.Counter("clip_jobsched_jobs_finished_total",
			"jobs run to completion"),
		queueDepth: r.Gauge("clip_jobsched_queue_depth",
			"queued jobs after the most recent scheduler event"),
		queuePeak: r.Gauge("clip_jobsched_queue_depth_peak",
			"highest queue depth observed"),
		freeWatts: r.Gauge("clip_jobsched_free_watts",
			"unallocated power after the most recent scheduler event"),
		eventSeconds: r.Histogram("clip_jobsched_event_seconds",
			"wall-clock latency of scheduler event handlers (arrivals, completions, bound changes)", nil),
		faultsInjected: r.Counter("clip_faults_injected_total",
			"fault events injected into the runtime (crashes, power excursions, stragglers)"),
		jobsRetried: r.Counter("clip_jobs_retried_total",
			"jobs killed by a fault and re-enqueued for retry"),
		quarantined: r.Gauge("clip_node_quarantined",
			"nodes currently out of service (quarantined or drained)"),
		reschedSeconds: r.Histogram("clip_fault_resched_seconds",
			"simulated seconds between a job being killed by a fault and its restart",
			[]float64{1, 2, 5, 10, 30, 60, 120, 300, 600}),
		jobsPreempted: r.Counter("clip_jobs_preempted_total",
			"running jobs evicted and re-enqueued in favour of a higher-priority job"),
		reconcilePasses: r.Counter("clip_reconcile_passes_total",
			"reconciler convergence passes after node-health or bound changes"),
		wattsReclaimed: r.Gauge("clip_watts_reclaimed_total",
			"cumulative watts reclaimed from killed or re-capped jobs and returned to the pool"),
		preemptWatts: r.Gauge("clip_preempt_watts_reclaimed_total",
			"cumulative watts reclaimed from preempted jobs"),
		events: r.Events(),
		coord:  coordinator.NewMetrics(r),
	}
}

// cellMetrics holds one handle set per cell of telemetry.Default; each
// run state publishes to the set of the cell it takes when it is built.
var cellMetrics = telemetry.PerCell(telemetry.Default, NewMetrics)

// des handler event kinds of the core scheduler (the fault layer owns
// 1..7; see faults.go). The argument encodes an index: into the job
// record arena (evkArrival, evkRequeue), the running slot arena
// (evkCompletion) or the bound schedule (evkBound).
const (
	evkArrival uint16 = 32 + iota
	evkCompletion
	evkBound
)

// Job is one unit of work submitted to the scheduler.
type Job struct {
	// ID identifies the job in reports.
	ID string
	// App is the application to run (profiled by CLIP on first sight).
	App *workload.Spec
	// Arrival is the submission time in seconds.
	Arrival float64
	// Priority orders dispatch: higher values are scanned first and,
	// when Config.Preempt is set, may evict running lower-priority
	// jobs. Zero inherits the application's default priority; jobs of
	// equal priority dispatch in arrival (FIFO) order.
	Priority int
}

// Policy selects the queueing discipline.
type Policy int

const (
	// FCFS starts jobs strictly in arrival order; a job that does not
	// fit blocks the queue.
	FCFS Policy = iota
	// Backfill lets later jobs start when the queue head does not fit,
	// EASY-style: a backfilled job must complete before the next
	// resource release, so it can never delay the head (runtimes are
	// deterministic here, making the guarantee exact).
	Backfill
	// AggressiveBackfill starts any queued job that fits, accepting
	// that the queue head may be delayed; it can beat EASY when a long
	// backfilled job overlaps several releases, and lose when it
	// starves a wide head job.
	AggressiveBackfill
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Backfill:
		return "backfill"
	case AggressiveBackfill:
		return "aggressive-backfill"
	default:
		return "fcfs"
	}
}

// ParsePolicy is the inverse of Policy.String: it maps "fcfs",
// "backfill" or "aggressive-backfill" to its Policy.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range []Policy{FCFS, Backfill, AggressiveBackfill} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

// Config configures a scheduling run.
type Config struct {
	// Bound is the cluster-wide power budget over the managed domains
	// (CPU+DRAM of all nodes), in watts.
	Bound float64
	// Policy is the queueing discipline.
	Policy Policy
	// Reallocate enables POWsched-style dynamic power sharing: when a
	// job finishes and nothing can start, its power is offered to the
	// running jobs, which re-plan their splits and speed up.
	Reallocate bool
	// BoundSchedule optionally varies the bound over time (demand
	// response): at each change's time the cluster bound becomes its
	// watts. Running jobs are throttled when the bound drops below the
	// allocation and can be re-boosted when it recovers (requires
	// Reallocate for the recovery direction).
	BoundSchedule []BoundChange
	// Preempt enables power-aware preemption: when a higher-priority
	// queued job cannot be placed within the bound, the cheapest set of
	// strictly-lower-priority running jobs whose reclaimed watts (and
	// nodes) make it feasible is evicted and re-enqueued. It has no
	// effect while every job carries the same priority.
	Preempt bool
	// Faults, when non-nil and enabled, injects the scenario's node
	// crashes, power-cap excursions and straggler episodes into the run
	// and activates degraded-mode scheduling: affected jobs are killed
	// and retried with capped exponential backoff, crashed nodes are
	// quarantined out of placement until recovery, and excursions
	// emergency-re-cap resident jobs. An MTTR at or below 0 takes its
	// default (faults.Scenario.Normalized).
	Faults *faults.Scenario
}

// BoundChange is one step of a time-varying power bound.
type BoundChange struct {
	// Time is when the change takes effect (seconds).
	Time float64
	// Watts is the new cluster-wide bound.
	Watts float64
}

// JobResult reports one job's lifecycle.
type JobResult struct {
	ID       string
	Arrival  float64
	Start    float64
	Finish   float64
	Nodes    int
	Cores    int
	PerNodeW float64 // per-node budget at start
	Boosted  bool    // received reallocated power mid-run
	// NodeIDs are the global node ids of the final placement (recorded
	// under fault injection, for quarantine audits).
	NodeIDs []int
	// Retries counts how many times the job was killed by a fault and
	// re-enqueued before this successful run.
	Retries int
	// Priority is the job's effective scheduling priority (submission
	// override or the application default).
	Priority int
	// Preemptions counts how many times the job was evicted for a
	// higher-priority job and re-enqueued before this successful run.
	Preemptions int
}

// Wait returns the queueing delay.
func (r *JobResult) Wait() float64 { return r.Start - r.Arrival }

// Turnaround returns submission-to-completion time.
func (r *JobResult) Turnaround() float64 { return r.Finish - r.Arrival }

// Stats summarises a workload run.
type Stats struct {
	Makespan      float64
	AvgWait       float64
	AvgTurnaround float64
	// AvgPowerUse is the time-averaged fraction of the bound allocated
	// to running jobs.
	AvgPowerUse float64
	// Jobs lists a batch Run's completed jobs by start time. An online
	// session leaves it empty; its callers read Online.Jobs.
	Jobs []JobResult
	// Failed lists jobs that exhausted their retries (or had no node
	// left) under fault injection; every submitted job ends up in Jobs
	// or Failed.
	Failed []FailedJob
	// Faults aggregates the run's fault activity (zero without fault
	// injection).
	Faults FaultStats
	// FaultLog is the ordered fault / degraded-mode event log; its
	// rendered lines are byte-stable for a fixed scenario seed.
	FaultLog []FaultEvent
	// PeakAllocW is the highest allocated+reserved power observed at
	// any event timestamp; the bound invariant keeps it at or below the
	// bound or the run fails.
	PeakAllocW float64
	// Preemptions counts evictions of running lower-priority jobs in
	// favour of a blocked higher-priority job.
	Preemptions int
	// idArena holds completed jobs' node ids: one growable block owned
	// by the run's Stats instead of one allocation per finished job.
	// Records locate theirs by offset; a NodeIDs slice handed out before
	// a growth keeps pointing at the retired block, which stays valid —
	// nothing mutates interned ids.
	idArena []int
}

// internNodeIDs copies ids into the stats-owned arena and returns
// their offset and length there, so a terminal record holds stable node
// ids without a per-job allocation or a pointer.
func (s *Stats) internNodeIDs(ids []int) (off, n int32) {
	off = int32(len(s.idArena))
	s.idArena = append(s.idArena, ids...)
	return off, int32(len(ids))
}

// nodeIDs returns the interned node ids at (off, n), capped so an
// append cannot reach the arena; nil when n is 0.
func (s *Stats) nodeIDs(off, n int32) []int {
	if n == 0 {
		return nil
	}
	return s.idArena[off : off+n : off+n]
}

// Scheduler places jobs on a power-bounded cluster.
type Scheduler struct {
	Cluster *hw.Cluster
	CLIP    *core.CLIP
	Config  Config

	// pool recycles one fully warmed run state — arenas, scratch
	// buffers, DES engine, placement cache — across Run calls, so a
	// steady-state Run allocates only its result Stats.
	pool atomic.Pointer[schedState]
}

// New builds a scheduler sharing CLIP's knowledge database and trained
// regression.
func New(cl *hw.Cluster, clip *core.CLIP, cfg Config) (*Scheduler, error) {
	if !validBound(cfg.Bound) {
		return nil, fmt.Errorf("jobsched: bound %g W is not positive and finite", cfg.Bound)
	}
	if clip == nil {
		var err error
		clip, err = core.New(cl)
		if err != nil {
			return nil, err
		}
	}
	return &Scheduler{Cluster: cl, CLIP: clip, Config: cfg}, nil
}

// validBound reports whether watts is a usable power bound: positive
// and finite (NaN and ±Inf are not).
func validBound(watts float64) bool { return watts > 0 && watts < math.Inf(1) }

// jobRecord is the one account of a submitted job, shared by Run and
// Online: its lifecycle state, where it physically is (a running slot
// or a pending backoff event), its fault and preemption counters, and
// its terminal snapshot. Records live by value in the run state's
// record arena and hold no Go pointer, so the collector never scans
// them: the id lives beside the arena (schedState.ids), the application
// is an index into the state's application table, the running slot an
// index into the slot arena, a terminal job's node ids an (offset,
// length) pair into the Stats node-id arena, and the rare backoff event
// and failure reason sit in side tables keyed by record index. Queue
// entries and running slots refer to their record by index, so no step
// of dispatch looks a job up by id. Job, JobResult and JobStatus are
// built from a record only at the API edge.
//
// Online keeps a record for every job it was sent, so the record's size
// is a per-job memory cost: the int32 fields keep it at 104 bytes.
type jobRecord struct {
	arrival float64
	pri     int
	state   JobState
	// killedAt is the time of the last fault kill while killed is set:
	// from the kill until the job restarts or leaves the system.
	killedAt float64
	// The result, set at start: the start time, per-node budget, node
	// count and cores, and whether reallocated power reached the job
	// mid-run. nodeOff and nodeLen locate a completed job's node ids in
	// the Stats node-id arena (nodeLen 0 when none were recorded).
	start, perNodeW  float64
	nodes, cores     int32
	nodeOff, nodeLen int32
	// finishedAt is the completion, failure or cancellation time,
	// reclaimedW the watts a cancellation returned.
	finishedAt float64
	reclaimedW float64
	idx        int32 // index in schedState.recs, the arrival and requeue event argument
	app        int32 // index in schedState.apps
	run        int32 // running slot while running, noSlot otherwise
	// retries counts fault kills that were re-tried, preempts evictions
	// for a higher-priority job.
	retries, preempts int32
	killed, boosted   bool
}

// noSlot is jobRecord.run and runningJob.rec when they refer to nothing.
const noSlot int32 = -1

// appEntry is one row of the state's application table: the
// application and its dispatch-cache entry. A record and its queue
// entries carry the row's index, so enqueueing looks nothing up.
type appEntry struct {
	spec *workload.Spec
	dc   dispatchEntry
}

// runningJob is the placement of an executing job. Slots live in the
// run state's slot arena: a slot keeps its index for the lifetime of
// the state and is recycled through a freelist, so completion events
// can reference the job by slot and the node id buffer is reused
// across occupants.
type runningJob struct {
	rec  int32 // index in schedState.recs, noSlot while the slot is free
	slot int32 // index in schedState.slots, stable across recycles
	// live marks a slot in the running set: walks over running jobs
	// range the slot arena and skip dead slots.
	live bool
	// nodeIDs is the slot-owned node id buffer (ascending).
	nodeIDs  []int
	cores    int
	affinity workload.Affinity
	perNode  power.Budget
	iterTime float64
	// baseIterTime is the straggler-free iteration time of the current
	// budget; iterTime = baseIterTime × the worst active straggler
	// factor across the job's nodes (equal without fault injection).
	baseIterTime float64
	itersLeft    float64
	lastUpdate   float64
	completion   *des.Event
	finishAt     float64 // scheduled completion time
	powerUsed    float64 // total managed watts held by this job
}

// queueEntry is one slot of a priority level's FIFO: started entries
// are tombstoned in place so dispatch scans never revisit them, instead
// of shifting the whole tail on every start.
type queueEntry struct {
	rec, app int32  // indices in schedState.recs and schedState.apps
	seq      uint64 // enqueue order across all levels
	started  bool
}

// priLevel is the FIFO of one priority level: live counts the
// untombstoned entries of q[head:]. Between queue operations head
// indexes the first live entry (len(q) when the level is empty).
type priLevel struct {
	pri  int
	q    []queueEntry
	head int
	live int
}

// Dispatch-cache entry lifecycle for the free set and free watts the
// entry was computed for: infeasible (placement failed), placed
// (placement known, time not yet simulated) or evaluated (placement and
// runtime known).
const (
	entryInfeasible uint8 = iota
	entryPlaced
	entryEvaled
)

// dispatchEntry memoizes one application's placement decision against
// the free set and free watts it was computed for. The placement is a
// pure function of (application, free nodes, free watts), so a dispatch
// scan over a deep queue of repeated applications, repeated scans
// between resource changes, and a free set that returns to a state it
// held before all reuse one decision, byte-identical by construction.
// freeVer is only the fast path of the freshness check (see fresh);
// free is the content key behind it. live counts the application's
// queued, unstarted entries, so a pass can tell when every queued
// application has been refused. pl is the coordinator's placement
// itself: Place refills its node ids (the scheduler's cluster node ids,
// ascending unless the application prefers nodes) and budgets in the
// entry's own arrays, and its phase plan aliases the coordinator
// scratch's memo (immutable once built).
type dispatchEntry struct {
	freeVer uint64
	wBits   uint64 // math.Float64bits of the free watts
	free    []int  // owned copy of the free ids; empty when no decision is held
	state   uint8
	refused uint64 // last dispatch pass that failed to start the application
	live    int    // queued, unstarted entries of the application
	pl      coordinator.Placement
	eval    sim.Eval
}

// fresh reports whether e holds the decision for the current free set
// and free watts. An entry stamped with another freeVer is still fresh
// when its watts and its free ids equal the current ones: feasible
// and Place read only the free ids and the immutable base nodes, so the
// decision is the one a recompute would make. Such an entry adopts
// the current freeVer, and the next check takes the fast path.
func (st *schedState) fresh(e *dispatchEntry) bool {
	if e.wBits != math.Float64bits(st.freeW) {
		return false
	}
	if e.freeVer == st.freeVer {
		return true
	}
	if len(e.free) == 0 || !slices.Equal(e.free, st.free) {
		return false
	}
	e.freeVer = st.freeVer
	st.adopted++
	return true
}

// schedState is the mutable state of one Run.
//
// The free-node set and free-watts accumulator are maintained
// incrementally on job start/finish (sorted-slice merge and subtract)
// and the blocked head's shadow time is cached until a completion
// event invalidates it — so a dispatch attempt costs no per-event
// cluster rescan.
type schedState struct {
	s   *Scheduler
	eng *des.Engine
	// m is the state's telemetry handle set, fixed when it is built.
	m *Metrics
	// levels is the queue: one FIFO per priority, highest first, so the
	// level walk is the dispatch order (priority descending, then
	// enqueue order) and an all-equal-priority run is a single FIFO.
	levels  []priLevel
	qseq    uint64 // last enqueue sequence number handed out
	pass    uint64 // dispatch passes that read the queue, never reset (dispatchEntry.refused)
	full    uint64 // dispatch passes that found nothing free and read no entry, never reset
	qlive   int    // queued jobs not yet started, over all levels
	qapps   int    // applications with queued jobs (dispatchEntry.live > 0)
	adopted uint64 // dispatch-cache entries served by a content match, never reset
	free    []int  // free global node ids, ascending
	freeW   float64
	bound   float64 // current (possibly time-varying) bound
	stats   *Stats
	// job-record arena: every record handed out, by value (recs[i].idx
	// == i), with its id beside it in ids; jobs indexes the live ones by
	// id over the arena (recID is its key), and freeRecs is the stack of
	// forgotten ones, which the arena hands out again. A *jobRecord is
	// only ever a local: register may move the arena.
	recs     []jobRecord
	ids      []string
	freeRecs []int32
	jobs     idindex.Index
	// announced counts the submissions grow announced that are not
	// made yet (enqueue).
	announced int
	// side tables of the fault and failure paths, by record index: a
	// retrying job's pending requeue event and a failed job's reason.
	backoff map[int32]*des.Event
	reasons map[int32]string
	// running-slot arena: slots[i].slot == i; freeSlots is the stack of
	// recyclable indices; nrunning counts the live slots.
	slots     []*runningJob
	freeSlots []int32
	nrunning  int
	// placement machinery, persistent across events and runs.
	coord coordinator.Coordinator
	csc   coordinator.Scratch
	// apps is the application table, appIdx its index by application:
	// one row per application the state has seen, kept across runs.
	apps   []appEntry
	appIdx map[*workload.Spec]int32
	// byID is the deterministic-iteration scratch of reallocate and
	// shedPower: running slot indices.
	byID []int32
	// cached derived state
	freeVer  uint64 // bumped on every free-set change, never reset
	shadow   float64
	shadowOK bool
	// shadowEpoch counts invalidateShadow calls and stamped the passes
	// preemptPass answered at failedPlan, both never reset.
	shadowEpoch uint64
	failedPlan  planStamp
	stamped     uint64
	// priority pipeline state: feasIDs backs the constraint-filtered
	// pool; preIDs, prePl and preVictims back preemption planning, so a
	// plan never clobbers the free set or a dispatch-cache entry.
	feasIDs    []int
	preIDs     []int
	prePl      coordinator.Placement
	preVictims []*runningJob
	// take is takeQueued's result buffer.
	take []queueEntry
	// power-use integral
	lastAccount  float64
	usedIntegral float64
	failure      error
	// online marks an incrementally driven run (Scheduler.Online): the
	// fault streams outlive idle periods instead of stopping when the
	// in-flight job count touches zero, and drain is explicit.
	online bool
	// fault injection (nil / unused without Config.Faults): the
	// normalized scenario, one fault record per node, and how many
	// nodes are out of service (quarantined or drained) and drained.
	fsc                *faults.Scenario
	nodes              []nodeFault // by node id; nil means no faults
	unhealthy, drained int
	faultsStopped      bool
	jobsLeft           int // submitted jobs not yet finished or failed
}

// jobsByStart orders final results by start time.
type jobsByStart []JobResult

func (x jobsByStart) Len() int           { return len(x) }
func (x jobsByStart) Less(i, j int) bool { return x[i].Start < x[j].Start }
func (x jobsByStart) Swap(i, j int)      { x[i], x[j] = x[j], x[i] }

// epoch anchors event timing: handlers are timed as time.Since(epoch)
// at both ends, which reads only the monotonic clock, where time.Now
// also reads the wall clock.
var epoch = time.Now()

// HandleEvent implements des.Handler: every scheduler event dispatches
// through the state object and is timed once here.
func (st *schedState) HandleEvent(kind uint16, arg uint64) {
	start := time.Since(epoch)
	switch kind {
	case evkArrival:
		st.admit(&st.recs[arg])
		st.publishState()
	case evkCompletion:
		st.finish(st.slots[arg])
	case evkBound:
		st.applyBoundChange(st.s.Config.BoundSchedule[arg].Watts)
	case evkRequeue:
		st.requeue(&st.recs[arg])
	default:
		st.handleFault(kind, int(arg))
	}
	st.m.eventSeconds.Observe((time.Since(epoch) - start).Seconds())
}

// newState builds the mutable run state shared by the batch Run and
// the incremental Online driver: free-node and free-watts accumulators,
// the node fault records, and the bound-schedule events. States are
// pooled on the Scheduler: a recycled state keeps its arenas, engine
// freelist and placement cache warm.
func (s *Scheduler) newState(online bool) (*schedState, error) {
	st := s.pool.Swap(nil)
	if st == nil {
		st = &schedState{
			s:       s,
			eng:     des.NewEngine(),
			m:       cellMetrics[telemetry.NextCell()],
			appIdx:  make(map[*workload.Spec]int32),
			backoff: make(map[int32]*des.Event),
			reasons: make(map[int32]string),
		}
	}
	st.reset(online)
	if s.Config.Faults != nil && s.Config.Faults.Enabled() {
		sc := s.Config.Faults.Normalized()
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		st.initFaults(sc, len(s.Cluster.Nodes))
		if st.failure != nil {
			return nil, st.failure
		}
	}
	for i, bc := range s.Config.BoundSchedule {
		if bc.Time < 0 || !validBound(bc.Watts) {
			return nil, fmt.Errorf("jobsched: invalid bound change at t=%g to %g W", bc.Time, bc.Watts)
		}
		if _, err := st.eng.At(bc.Time, st, evkBound, uint64(i)); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// reset rewinds a (possibly recycled) state to time zero. The free-set
// version deliberately keeps counting instead of restarting, and every
// dispatch-cache entry drops its free-set copy: a decision from an
// earlier run must never be served to this one, even for a free set
// that matches. Queue seqs restart, so failedPlan is cleared.
func (st *schedState) reset(online bool) {
	s := st.s
	st.eng.Reset()
	for i := range st.levels {
		l := &st.levels[i]
		l.q, l.head, l.live = l.q[:0], 0, 0
	}
	st.qseq, st.qlive, st.qapps, st.announced = 0, 0, 0, 0
	for i := range st.apps {
		dc := &st.apps[i].dc
		dc.free, dc.live = dc.free[:0], 0
	}
	clear(st.ids)
	st.recs, st.ids, st.freeRecs = st.recs[:0], st.ids[:0], st.freeRecs[:0]
	st.jobs.Reset()
	clear(st.backoff)
	clear(st.reasons)
	st.freeSlots = st.freeSlots[:0]
	for i, rj := range st.slots {
		rj.live = false // a Run that ended in error leaves slots live
		st.freeSlots = append(st.freeSlots, int32(i))
	}
	st.nrunning = 0
	st.free = st.free[:0]
	for i := range s.Cluster.Nodes {
		st.free = append(st.free, i)
	}
	st.freeW = s.Config.Bound
	st.bound = s.Config.Bound
	st.stats = &Stats{}
	st.coord = coordinator.Coordinator{Cluster: s.Cluster, Metrics: st.m.coord}
	st.freeVer++
	st.shadow, st.shadowOK = 0, false
	st.failedPlan = planStamp{}
	st.preVictims = st.preVictims[:0]
	st.lastAccount, st.usedIntegral = 0, 0
	st.failure = nil
	st.online = online
	st.fsc, st.nodes = nil, nil
	st.unhealthy, st.drained = 0, 0
	st.faultsStopped = false
	st.jobsLeft = 0
}

// recID is the id index's key: the id of record i.
func (st *schedState) recID(i int32) string { return st.ids[i] }

// job builds the API-edge Job of record i.
func (st *schedState) job(i int32) Job {
	rec := &st.recs[i]
	return Job{ID: st.ids[i], App: st.apps[rec.app].spec, Arrival: rec.arrival, Priority: rec.pri}
}

// appIndex returns app's row in the application table, adding the row
// on the application's first sight.
func (st *schedState) appIndex(app *workload.Spec) int32 {
	if i, ok := st.appIdx[app]; ok {
		return i
	}
	i := int32(len(st.apps))
	st.apps = append(st.apps, appEntry{spec: app})
	st.appIdx[app] = i
	return i
}

// register is the one way a job enters a run state, batch or online:
// it runs the id, application, duplicate and sticky-failure checks,
// applies the application's default priority to priority 0, takes a
// queued record for j from the record arena and indexes it, and returns
// the record's index. The arena may move, so no *jobRecord survives the
// call.
func (st *schedState) register(j Job) (int32, error) {
	if j.ID == "" {
		return 0, fmt.Errorf("jobsched: empty job id")
	}
	if j.App == nil {
		return 0, fmt.Errorf("jobsched: job %q has no application", j.ID)
	}
	_, slot, dup := st.jobs.Find(j.ID, st.recID)
	if dup {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateJob, j.ID)
	}
	if st.failure != nil {
		return 0, st.failure
	}
	if j.Priority == 0 {
		j.Priority = j.App.Priority
	}
	var idx int32
	if n := len(st.freeRecs); n > 0 {
		idx, st.freeRecs = st.freeRecs[n-1], st.freeRecs[:n-1]
	} else {
		idx = int32(len(st.recs))
		st.recs = append(st.recs, jobRecord{})
		st.ids = append(st.ids, "")
	}
	st.recs[idx] = jobRecord{arrival: j.Arrival, pri: j.Priority, idx: idx, app: st.appIndex(j.App), run: noSlot}
	st.ids[idx] = j.ID
	st.jobs.Fill(slot, idx)
	st.jobsLeft++
	st.announced = max(st.announced-1, 0)
	return idx, nil
}

// grow makes room for n more jobs: the id index reserves room for
// them beside the live ones, and the arena and its id column grow once
// to hold the records the free stack cannot hand out, so neither moves
// while the n jobs arrive. A pooled state that has run as many jobs
// before allocates nothing. Priority levels are made on demand, so
// grow only announces the n jobs to the queue (enqueue).
func (st *schedState) grow(n int) {
	st.announced += n
	st.jobs.Reserve(n)
	if short := n - len(st.freeRecs); short > 0 {
		st.recs = slices.Grow(st.recs, short)
		st.ids = slices.Grow(st.ids, short)
	}
}

// forget drops record i, which no queue entry, slot or event refers
// to: its id may be submitted again, and the arena hands the record
// out again.
func (st *schedState) forget(i int32) {
	st.jobs.Remove(st.ids[i], i)
	st.ids[i] = ""
	delete(st.backoff, i)
	delete(st.reasons, i)
	st.freeRecs = append(st.freeRecs, i)
}

// retire makes a record terminal at the current time and retires its
// job (jobDone).
func (st *schedState) retire(rec *jobRecord, s JobState) {
	rec.state, rec.finishedAt, rec.killed = s, st.eng.Now(), false
	st.jobDone()
}

// acquireSlot takes a running slot from the slot arena.
func (st *schedState) acquireSlot() *runningJob {
	if n := len(st.freeSlots); n > 0 {
		slot := st.freeSlots[n-1]
		st.freeSlots = st.freeSlots[:n-1]
		rj := st.slots[slot]
		ids := rj.nodeIDs[:0]
		*rj = runningJob{rec: noSlot, slot: slot, nodeIDs: ids}
		return rj
	}
	rj := &runningJob{rec: noSlot, slot: int32(len(st.slots))}
	st.slots = append(st.slots, rj)
	return rj
}

// teardown takes a running job off the cluster, the one exit path of
// completion, fault kill, preemption and cancellation: its pending
// completion is withdrawn, it leaves the running set, its watts return
// to the pool, its nodes are released and its slot is recycled. The
// caller must not touch rj afterwards: the next start may reuse the
// slot (and its buffers) immediately. Returns the reclaimed watts.
func (st *schedState) teardown(rj *runningJob) float64 {
	if rj.completion != nil {
		rj.completion.Cancel() // a no-op when the completion has fired
	}
	st.nrunning--
	st.invalidateShadow()
	reclaimed := rj.powerUsed
	st.freeW += reclaimed
	st.releaseNodes(rj.nodeIDs)
	st.recs[rj.rec].run = noSlot
	rj.rec, rj.completion, rj.live = noSlot, nil, false
	st.freeSlots = append(st.freeSlots, rj.slot)
	return reclaimed
}

// Run schedules the job list to completion and returns statistics.
// The caller's slice is read but never reordered or mutated. Every job
// needs a non-empty id and an application, and ids must be unique: a
// bad job or a repeated id (an error wrapping ErrDuplicateJob) fails
// the run before anything is simulated.
func (s *Scheduler) Run(jobs []Job) (*Stats, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("jobsched: empty job list")
	}
	for _, j := range jobs {
		if j.Arrival < 0 {
			return nil, fmt.Errorf("jobsched: job %q arrives before time zero", j.ID)
		}
	}
	st, err := s.newState(false)
	if err != nil {
		return nil, err
	}
	defer s.pool.Store(st)
	st.grow(len(jobs))
	// Arrival events fire in (time, schedule order), so scheduling them
	// in list order starts equal arrivals in list order without a sort.
	for _, j := range jobs {
		idx, err := st.register(j)
		if err != nil {
			return nil, err
		}
		if _, err := st.eng.At(j.Arrival, st, evkArrival, uint64(idx)); err != nil {
			return nil, err
		}
	}
	if err := st.eng.Run(); err != nil {
		return nil, err
	}
	if st.failure != nil {
		return nil, st.failure
	}
	if st.qlive > 0 || st.nrunning > 0 {
		return nil, fmt.Errorf("jobsched: %d queued and %d running jobs never finished",
			st.qlive, st.nrunning)
	}

	st.accountPower()
	res := st.stats
	res.Makespan = st.eng.Now()
	var wait, turn float64
	for _, jr := range res.Jobs {
		wait += jr.Wait()
		turn += jr.Turnaround()
	}
	if n := float64(len(res.Jobs)); n > 0 {
		res.AvgWait = wait / n
		res.AvgTurnaround = turn / n
	}
	if res.Makespan > 0 {
		res.AvgPowerUse = st.usedIntegral / (res.Makespan * s.Config.Bound)
	}
	sort.Sort(jobsByStart(res.Jobs))
	return res, nil
}

// accountPower integrates allocated power over time.
func (st *schedState) accountPower() {
	now := st.eng.Now()
	dt := now - st.lastAccount
	if dt > 0 {
		used := st.bound - st.freeW
		st.usedIntegral += used * dt
		st.lastAccount = now
	}
}

// admit enqueues a job and tries to dispatch: the arrival core shared
// by a batch Run's arrival event and Online.SubmitPri. A job arriving
// after the entire cluster has drained fails immediately — there is no
// node it could ever run on.
func (st *schedState) admit(rec *jobRecord) {
	if st.allDrained() {
		st.failJob(rec, "no nodes left: entire cluster drained")
		return
	}
	app := st.apps[rec.app].spec
	if !app.Constraint.Zero() && !st.constraintSatisfiable(app) {
		st.failJob(rec, "node constraint matches no cluster node")
		return
	}
	st.enqueue(rec)
	st.dispatch()
	st.assertBound("arrive")
}

// enqueue appends a job at the tail of its priority level: the one
// enqueue path of arrivals, fault requeues and preemption re-enqueues.
// A level that has to grow also makes room for the submissions grow
// announced that are still to come, so a replayed shard's level grows
// once.
func (st *schedState) enqueue(rec *jobRecord) {
	dc := &st.apps[rec.app].dc
	rec.state = JobQueued
	l := st.level(rec.pri, true)
	if len(l.q) == cap(l.q) {
		l.q = slices.Grow(l.q, 1+st.announced)
	}
	st.qseq++
	l.q = append(l.q, queueEntry{rec: rec.idx, app: rec.app, seq: st.qseq})
	l.live++
	st.qlive++
	if dc.live++; dc.live == 1 {
		st.qapps++
	}
	st.m.queuePeak.SetMax(float64(st.qlive))
}

// unqueue accounts for one queued entry leaving the queue (started,
// cancelled or taken): the caller tombstones or drops the entry itself.
func (st *schedState) unqueue(l *priLevel, e *queueEntry) {
	l.live--
	st.qlive--
	dc := &st.apps[e.app].dc
	if dc.live--; dc.live == 0 {
		st.qapps--
	}
}

// level returns the FIFO of priority pri, or nil when there is none and
// create is false. A new level reuses an empty level's slot and buffer
// when there is one and is moved into priority order, so the level
// count stays bounded by the distinct priorities queued at once and
// steady-state enqueues allocate nothing.
func (st *schedState) level(pri int, create bool) *priLevel {
	k := -1
	for i := range st.levels {
		if st.levels[i].pri == pri {
			return &st.levels[i]
		}
		if k < 0 && st.levels[i].live == 0 {
			k = i
		}
	}
	if !create {
		return nil
	}
	if k < 0 {
		k = len(st.levels)
		st.levels = append(st.levels, priLevel{})
	}
	st.levels[k] = priLevel{pri: pri, q: st.levels[k].q[:0]}
	for ; k > 0 && st.levels[k-1].pri < pri; k-- {
		st.levels[k-1], st.levels[k] = st.levels[k], st.levels[k-1]
	}
	for ; k+1 < len(st.levels) && st.levels[k+1].pri > pri; k++ {
		st.levels[k+1], st.levels[k] = st.levels[k], st.levels[k+1]
	}
	return &st.levels[k]
}

// topQueued returns the dispatch head, the first live entry of the
// highest non-empty priority level, or nil when the queue is empty.
func (st *schedState) topQueued() *queueEntry {
	for li := range st.levels {
		if l := &st.levels[li]; l.live > 0 {
			return &l.q[l.head]
		}
	}
	return nil
}

// takeQueued empties the queue and returns its entries in enqueue (seq)
// order across all levels: the physical order in which evacuation and
// drain failures report queued jobs. The result is the state's scratch
// buffer, valid until the next call; the emptied level slots are
// cleared, so no level buffer keeps an entry it handed over.
func (st *schedState) takeQueued() []queueEntry {
	take := slices.Grow(st.take[:0], st.qlive)
	for li := range st.levels {
		l := &st.levels[li]
		for _, e := range l.q[l.head:] {
			if !e.started {
				take = append(take, e)
				st.apps[e.app].dc.live = 0
			}
		}
		clear(l.q)
		l.q, l.head, l.live = l.q[:0], 0, 0
	}
	st.qlive, st.qapps = 0, 0
	slices.SortFunc(take, func(a, b queueEntry) int { return cmp.Compare(a.seq, b.seq) })
	st.take = take
	return take
}

// dispatch starts as many queued jobs as the policy and resources
// allow, running the placement stage to a fixpoint. When a scan makes
// no progress and preemption is enabled, one preemption pass may evict
// lower-priority running jobs to admit the blocked head; the freed
// resources are consumed by the rescan that follows. Nothing is carried
// from one call to the next but the decision cache and preemptPass's
// failed-plan stamp.
func (st *schedState) dispatch() {
	for progress := true; progress; {
		progress = st.dispatchPass()
		st.compactQueue()
		if !progress && st.s.Config.Preempt {
			progress = st.preemptPass()
		}
	}
	// The queue and free-watts gauges are set by the event handlers
	// (publishState), once per event rather than per dispatch pass.
}

// dispatchPass walks the live queue entries in dispatch order —
// priority levels highest first, FIFO within a level — and starts at
// most one job (a start invalidates the shadow window and resource
// state, so the caller rescans). Started entries are tombstoned in
// place and skipped. A job is offered the resources only after every
// higher-priority job was, so dispatch cannot invert priorities.
//
// Until a job starts nothing tryStart reads changes, and the deadline
// only tightens after the head, so a pass skips the later entries of an
// application it has already refused. Once it has refused every queued
// application (st.qapps of them), every entry left would be skipped, so
// the pass ends without walking the rest of a deep queue.
//
// With no free node or no free watt nothing can start, so the pass
// ends before it reads an entry: on a power-bound cluster that is most
// passes, and the walk would be O(depth). Refusal stamps are read only
// within their pass, so skipping them leaves every later decision as
// it was; st.pass counts only the passes that read the queue.
func (st *schedState) dispatchPass() bool {
	if len(st.free) == 0 || st.freeW <= 0 {
		st.full++
		return false
	}
	st.pass++
	head := true // next live entry is the queue head
	refused := 0 // distinct applications refused this pass
	for li := range st.levels {
		l := &st.levels[li]
		for qi := l.head; qi < len(l.q); qi++ {
			e := &l.q[qi]
			dc := &st.apps[e.app].dc
			if e.started || dc.refused == st.pass {
				continue
			}
			if !head && st.s.Config.Policy == FCFS {
				return false // head of queue blocks
			}
			// The head may start whenever it fits. A backfilled job
			// must finish before the next resource release (shadow
			// time), so the head's earliest start is never delayed.
			deadline := math.Inf(1)
			if !head && st.s.Config.Policy == Backfill {
				deadline = st.shadowTime()
			}
			if st.tryStart(&st.recs[e.rec], dc, deadline) {
				st.m.jobsStarted.Inc()
				e.started = true
				st.unqueue(l, e)
				return true
			}
			dc.refused = st.pass
			if refused++; refused == st.qapps {
				return false
			}
			head = false
		}
	}
	return false
}

// compactQueue advances every level's head past tombstones and
// reclaims a dead prefix once it dominates the level's backing array.
func (st *schedState) compactQueue() {
	for li := range st.levels {
		l := &st.levels[li]
		for l.head < len(l.q) && l.q[l.head].started {
			l.head++
		}
		if l.head > 64 && l.head*2 >= len(l.q) {
			l.q = l.q[:copy(l.q, l.q[l.head:])]
			l.head = 0
		}
	}
}

// shadowTime returns the earliest scheduled completion among running
// jobs — the first moment the blocked queue head could acquire more
// resources. The value is cached until a completion is (re)scheduled
// or a job finishes, so a backfill pass over a deep queue computes it
// at most once.
func (st *schedState) shadowTime() float64 {
	if !st.shadowOK {
		st.shadow = math.Inf(1)
		for _, rj := range st.slots {
			if rj.live && rj.finishAt < st.shadow {
				st.shadow = rj.finishAt
			}
		}
		st.shadowOK = true
	}
	return st.shadow
}

// invalidateShadow drops the cached shadow time after a completion was
// (re)scheduled or a running job left. The epoch bump also voids the
// failed-plan stamp (planStamp): a re-cap moves a running job's watts.
func (st *schedState) invalidateShadow() {
	st.shadowOK = false
	st.shadowEpoch++
}

// takeFree removes ids (ascending) from the free list.
func (st *schedState) takeFree(ids []int) {
	st.freeVer++
	out := st.free[:0]
	j := 0
	for _, id := range st.free {
		if j < len(ids) && id == ids[j] {
			j++
			continue
		}
		out = append(out, id)
	}
	st.free = out
}

// returnFree merges ids (ascending) back into the free list.
func (st *schedState) returnFree(ids []int) {
	st.freeVer++
	old := len(st.free)
	st.free = append(st.free, ids...)
	i, j, k := old-1, len(ids)-1, len(st.free)-1
	for j >= 0 {
		if i >= 0 && st.free[i] > ids[j] {
			st.free[k] = st.free[i]
			i--
		} else {
			st.free[k] = ids[j]
			j--
		}
		k--
	}
}

// dutyBlocked is the acceptable-power-range gate: a placement below the
// range (duty-cycled) waits for more power while running jobs may free
// some; with nothing running, duty-cycling beats starvation.
func dutyBlocked(pl *coordinator.Placement, running int) bool {
	return !pl.NodeCfg.CapOK && running > 0
}

// tryStart attempts to place one job on the free nodes with the free
// power; returns true when the job started. The job is only started
// when it would complete by deadline (backfill safety window). Its one
// caller, dispatchPass, guarantees a free node and a free watt.
//
// The placement decision is served from e, the application's dispatch
// cache entry, when the free set and free watts equal the ones it was
// computed for (fresh), however often the free set changed in between;
// the simulator evaluation is memoized alongside it. Only a fresh fill
// publishes its placement (coordinator.Publish), whether or not the job
// starts. The duty-cycling (dutyBlocked) and deadline gates depend on
// per-call state (running-set size, shadow window) and are applied
// after the lookup.
func (st *schedState) tryStart(rec *jobRecord, e *dispatchEntry, deadline float64) bool {
	// Feasibility stage: the node pool offered to the coordinator is
	// the free set shrunk to the job's hard constraints (the free set
	// itself for unconstrained apps — the common case and the
	// allocation-free hot path). The pool is a pure function of the free
	// set per application, so the content-keyed cache check below stays
	// sound.
	app := st.apps[rec.app].spec
	pool := st.feasible(app, st.free)
	if len(pool) == 0 {
		return false
	}
	if !st.fresh(e) {
		e.freeVer, e.wBits = st.freeVer, math.Float64bits(st.freeW)
		e.free = append(e.free[:0], st.free...)
		e.state = entryInfeasible
		adv, err := st.s.CLIP.Advisor(app)
		if err != nil {
			st.failure = err
			return false
		}
		if st.coord.Place(app, adv, pool, st.freeW, &st.csc, &e.pl) != nil {
			return false // does not fit now; retry on the next completion
		}
		st.coord.Publish(app, st.freeW, &e.pl, &st.csc)
		e.state = entryPlaced
	}
	if e.state == entryInfeasible || dutyBlocked(&e.pl, st.nrunning) {
		return false
	}
	if e.state == entryPlaced {
		res, err := sim.EvalTime(st.s.Cluster, app, sim.Config{
			Nodes: len(e.pl.NodeIDs), NodeIDs: e.pl.NodeIDs,
			CoresPerNode: e.pl.Cores, Affinity: e.pl.Affinity,
			Capped: true, PerNode: e.pl.PerNode, PhaseCores: e.pl.PhaseCores,
		})
		if err != nil {
			st.failure = err
			return false
		}
		e.eval = res
		e.state = entryEvaled
	}
	if st.eng.Now()+e.eval.Time > deadline {
		return false // would delay the queue head past the shadow time
	}

	// The free-list subtract/merge needs the node ids ascending, as the
	// coordinator returns them unless the app prefers nodes (then they
	// come in preference order).
	rj := st.acquireSlot()
	rj.nodeIDs = append(rj.nodeIDs, e.pl.NodeIDs...)
	if len(app.Constraint.PreferNodes) > 0 {
		slices.Sort(rj.nodeIDs)
	}

	st.accountPower()
	var used float64
	for _, b := range e.pl.PerNode {
		used += b.Total()
	}
	st.freeW -= used
	st.takeFree(rj.nodeIDs)
	now := st.eng.Now()
	rj.rec, rec.run, rec.state = rec.idx, rj.slot, JobRunning
	rec.start, rec.boosted = now, false
	rec.nodes, rec.cores = int32(len(rj.nodeIDs)), int32(e.pl.Cores)
	rec.perNodeW = e.pl.PerNode[0].Total()
	rj.cores = e.pl.Cores
	rj.affinity = e.pl.Affinity
	rj.perNode = e.pl.PerNode[0]
	rj.iterTime = e.eval.IterTime
	rj.baseIterTime = e.eval.IterTime
	rj.itersLeft = float64(e.eval.Iterations)
	rj.lastUpdate = now
	rj.powerUsed = used
	rj.live = true
	st.nrunning++
	if st.nodes != nil {
		for _, g := range rj.nodeIDs {
			st.nodes[g].resident = rj
		}
		if f := st.jobFactor(rj); f > 1 {
			rj.iterTime = e.eval.IterTime * f
		}
		if rec.killed {
			st.m.reschedSeconds.Observe(st.eng.Now() - rec.killedAt)
			st.logFault("restart", -1, st.ids[rec.idx], 0,
				fmt.Sprintf("rescheduled %.2fs after kill", st.eng.Now()-rec.killedAt))
			rec.killed = false
		}
	}
	st.scheduleCompletion(rj)
	return true
}

// scheduleCompletion (re)schedules a running job's finish event. The
// event references the job by arena slot — no closure, no allocation
// beyond the engine's recycled event records.
func (st *schedState) scheduleCompletion(rj *runningJob) {
	if rj.completion != nil {
		rj.completion.Cancel()
	}
	ev, err := st.eng.After(rj.itersLeft*rj.iterTime, st, evkCompletion, uint64(rj.slot))
	if err != nil {
		st.failure = err
		return
	}
	rj.completion = ev
	rj.finishAt = st.eng.Now() + rj.itersLeft*rj.iterTime
	st.invalidateShadow()
}

// progressTo updates a running job's remaining iterations to time now.
func (rj *runningJob) progressTo(now float64) {
	if rj.iterTime > 0 {
		rj.itersLeft -= (now - rj.lastUpdate) / rj.iterTime
		if rj.itersLeft < 0 {
			rj.itersLeft = 0
		}
	}
	rj.lastUpdate = now
}

// finish completes a job, frees its resources and dispatches.
func (st *schedState) finish(rj *runningJob) {
	st.m.jobsFinished.Inc()
	st.accountPower()
	rec := &st.recs[rj.rec]
	if st.nodes != nil {
		// Under fault injection a completed job keeps its node ids, for
		// quarantine audits: interned in the stats arena, not the slot's
		// reusable buffer (no per-job allocation).
		rec.nodeOff, rec.nodeLen = st.stats.internNodeIDs(rj.nodeIDs)
	}
	st.teardown(rj)
	st.retire(rec, JobCompleted)
	if !st.online {
		// Only a batch Run reports Stats.Jobs; a session's callers read
		// the job records (Online.Jobs).
		st.stats.Jobs = append(st.stats.Jobs, st.result(rec))
	}
	st.dispatch()
	if st.s.Config.Reallocate {
		st.reallocate()
	}
	st.assertBound("finish")
	st.publishState()
}

// result builds a completed record's JobResult.
func (st *schedState) result(rec *jobRecord) JobResult {
	return JobResult{
		ID: st.ids[rec.idx], Arrival: rec.arrival, Start: rec.start, Finish: rec.finishedAt,
		Nodes: int(rec.nodes), Cores: int(rec.cores), PerNodeW: rec.perNodeW, Boosted: rec.boosted,
		NodeIDs: st.stats.nodeIDs(rec.nodeOff, rec.nodeLen),
		Retries: int(rec.retries), Priority: rec.pri, Preemptions: int(rec.preempts),
	}
}

// reallocate offers surplus power to running jobs (POWsched-style):
// each running job re-plans its CPU/DRAM split at its fixed node count
// and concurrency with a fatter per-node budget; jobs that speed up
// keep the extra power until they finish.
func (st *schedState) reallocate() {
	if st.freeW <= 1 || st.nrunning == 0 {
		return
	}
	live := st.liveByID()
	share := st.freeW / float64(len(live))
	for _, slot := range live {
		rj := st.slots[slot]
		adv, err := st.s.CLIP.Advisor(st.apps[st.recs[rj.rec].app].spec)
		if err != nil {
			st.failure = err
			return
		}
		newPerNode := rj.perNode.Total() + share/float64(len(rj.nodeIDs))
		cfg, ok := adv.Best(newPerNode, 0)
		if !ok || cfg.Cores != rj.cores {
			// Only power boosts that keep the execution configuration
			// are safe mid-run (cores/affinity cannot change without a
			// restart).
			var err error
			cfg, err = fixedConfigBoost(st.s.Cluster.Spec(), adv.Predictor(), rj, newPerNode)
			if err != nil {
				continue
			}
		}
		if cfg.Budget.Total() <= rj.perNode.Total()+1e-9 {
			continue // no useful boost
		}
		st.applyBoost(rj, cfg)
		st.assertBound("rebalance")
	}
}

// errNoBoost reports that a bigger budget cannot speed up a job's
// fixed configuration; reallocate treats it as "skip this job".
var errNoBoost = errors.New("jobsched: no boost available")

// fixedConfigBoost sizes a bigger budget for the job's existing
// (cores, affinity) configuration.
func fixedConfigBoost(spec *hw.NodeSpec, pd *perfmodel.Predictor, rj *runningJob, perNode float64) (recommend.NodeConfig, error) {
	sockets := sim.SocketsUsedFor(spec, rj.cores, rj.affinity)
	mem := math.Min(pd.MemDemandWatts(rj.cores)+recommend.MemHeadroomWatts,
		float64(sockets)*spec.MemMaxPower)
	cpu := perNode - mem
	if cpu <= rj.perNode.CPU {
		return recommend.NodeConfig{}, errNoBoost
	}
	f, _, ok := power.EffectiveFreq(spec, rj.cores, sockets, cpu, 1.0)
	return recommend.NodeConfig{
		Cores: rj.cores, Affinity: rj.affinity,
		Budget: power.Budget{CPU: cpu, Mem: mem},
		Freq:   f, CapOK: ok,
		PredIterTime: pd.Time(rj.cores, f, mem),
	}, nil
}

// applyBoost gives a running job a fatter budget and reschedules its
// completion from the remaining iterations at the new speed.
func (st *schedState) applyBoost(rj *runningJob, cfg recommend.NodeConfig) {
	res, err := st.previewRetune(rj, cfg.Budget)
	if err != nil {
		st.failure = err
		return
	}
	if res.IterTime >= rj.baseIterTime-1e-12 {
		return // not actually faster
	}
	extra := cfg.Budget.Total()*float64(len(rj.nodeIDs)) - rj.powerUsed
	if extra > st.freeW {
		return
	}
	st.commitRetune(rj, cfg.Budget, res.IterTime)
	st.recs[rj.rec].boosted = true
}

// previewRetune scores a running job's fixed configuration under a new
// per-node budget without committing, on the allocation-free fast path
// over the job's own nodes.
func (st *schedState) previewRetune(rj *runningJob, b power.Budget) (sim.Eval, error) {
	return sim.EvalTime(st.s.Cluster, st.apps[st.recs[rj.rec].app].spec, sim.Config{
		Nodes: len(rj.nodeIDs), NodeIDs: rj.nodeIDs, CoresPerNode: rj.cores, Affinity: rj.affinity,
		Capped: true, Budget: b,
	})
}

// commitRetune adjusts the job's allocation and reschedules completion
// from the remaining iterations at the new iteration time.
func (st *schedState) commitRetune(rj *runningJob, b power.Budget, iterTime float64) {
	st.accountPower()
	rj.progressTo(st.eng.Now())
	extra := b.Total()*float64(len(rj.nodeIDs)) - rj.powerUsed
	st.freeW -= extra
	rj.powerUsed += extra
	rj.perNode = b
	rj.baseIterTime = iterTime
	rj.iterTime = iterTime
	if f := st.jobFactor(rj); f > 1 {
		rj.iterTime = iterTime * f
	}
	st.scheduleCompletion(rj)
}

// applyBoundChange reacts to a demand-response step in the cluster
// bound: surplus is released to the queue (and running jobs under
// Reallocate); a deficit throttles running jobs proportionally until
// the allocation fits the new bound.
func (st *schedState) applyBoundChange(watts float64) {
	st.accountPower()
	delta := watts - st.bound
	st.bound = watts
	st.freeW += delta
	if st.freeW < -1e-9 {
		st.shedPower()
	}
	st.reconcile("bound-change", st.s.Config.Reallocate)
}

// shedPower shrinks running jobs' budgets proportionally until the
// total allocation fits the reduced bound. Jobs keep their node count
// and concurrency (a restart would cost more than a slowdown); the CPU
// domain absorbs the cut, with DRAM trimmed only when unavoidable.
func (st *schedState) shedPower() {
	if st.nrunning == 0 {
		// Nothing to shed from; the deficit resolves as queued work
		// stays queued until the bound recovers.
		return
	}
	live := st.liveByID()
	var totalAlloc float64
	for _, slot := range live {
		totalAlloc += st.slots[slot].powerUsed
	}
	target := totalAlloc + st.freeW // freeW < 0
	if target < 1 {
		target = 1
	}
	factor := target / totalAlloc
	spec := st.s.Cluster.Spec()
	for _, slot := range live {
		rj := st.slots[slot]
		perNode := rj.powerUsed * factor / float64(len(rj.nodeIDs))
		b := shrinkBudget(spec, rj, perNode)
		res, err := st.previewRetune(rj, b)
		if err != nil {
			st.failure = err
			return
		}
		st.commitRetune(rj, b, res.IterTime)
	}
}

// liveByID returns the running jobs' slots ordered by job id, in a
// reused scratch buffer: the walk order of reallocate and shedPower, so
// their float sums and retunes do not depend on slot order.
func (st *schedState) liveByID() []int32 {
	live := st.byID[:0]
	for _, rj := range st.slots {
		if rj.live {
			live = append(live, rj.slot)
		}
	}
	slices.SortFunc(live, func(a, b int32) int {
		return strings.Compare(st.ids[st.slots[a].rec], st.ids[st.slots[b].rec])
	})
	st.byID = live
	return live
}

// shrinkBudget splits a reduced per-node budget for a job's fixed
// configuration: DRAM keeps its allocation while possible, the CPU
// domain takes the cut.
func shrinkBudget(spec *hw.NodeSpec, rj *runningJob, perNode float64) power.Budget {
	sockets := sim.SocketsUsedFor(spec, rj.cores, rj.affinity)
	mem := math.Min(rj.perNode.Mem, perNode*0.5)
	base := float64(sockets) * spec.MemBasePower
	if mem < base {
		mem = math.Min(base, perNode*0.5)
	}
	cpu := perNode - mem
	if cpu < 1 {
		cpu = math.Max(perNode-mem, perNode*0.5)
	}
	return power.Budget{CPU: cpu, Mem: mem}
}
