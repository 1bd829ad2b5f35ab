package jobsched

// Online driver: the incremental interface of the multi-job scheduler
// that cmd/clipd serves over HTTP. Where Run executes a fixed job list
// to completion, Online keeps the same deterministic DES core open and
// lets a caller admit submissions and cancel jobs at the current
// virtual time, advance virtual time in steps (the wall-clock bridge
// maps real time onto these steps), query job and cluster state, and
// drain the resident work on shutdown. The driver itself is
// single-threaded — one virtual timeline, one event loop; concurrent
// callers must serialise access (internal/server holds one lock around
// it).

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/workload"
)

// Sentinel errors of the online driver, wrapped with job context;
// callers classify with errors.Is (the HTTP layer maps them to status
// codes).
var (
	// ErrUnknownJob: the job id was never submitted this session.
	ErrUnknownJob = errors.New("jobsched: unknown job")
	// ErrDuplicateJob: the job id was already submitted this session (or
	// appears twice in a Run's job list).
	ErrDuplicateJob = errors.New("jobsched: duplicate job id")
	// ErrJobTerminal: the operation needs a live job but the job already
	// completed, failed or was cancelled.
	ErrJobTerminal = errors.New("jobsched: job already terminal")
)

// JobState is a job's lifecycle phase.
type JobState int

// Job lifecycle states.
const (
	// JobQueued: admitted, waiting for nodes or power.
	JobQueued JobState = iota
	// JobRunning: placed on the cluster with a power budget.
	JobRunning
	// JobRetrying: killed by a fault, waiting out its retry backoff.
	JobRetrying
	// JobCompleted: ran to completion.
	JobCompleted
	// JobFailed: exhausted its retries or became unplaceable.
	JobFailed
	// JobCancelled: withdrawn by the caller; its power was reclaimed.
	JobCancelled
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobRetrying:
		return "retrying"
	case JobCompleted:
		return "completed"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Terminal reports whether the state is final (completed, failed or
// cancelled).
func (s JobState) Terminal() bool {
	return s == JobCompleted || s == JobFailed || s == JobCancelled
}

// JobStatus is the externally visible state of one submitted job.
type JobStatus struct {
	ID    string
	State JobState
	// Arrival, Start and Finish are virtual timestamps (seconds);
	// Start/Finish are zero until the respective transition. For a
	// cancelled job Finish is the cancellation time.
	Arrival float64
	Start   float64
	Finish  float64
	// QueuePos is the 0-based position among waiting jobs (queued only).
	QueuePos int
	// Nodes, Cores and PerNodeW describe the placement of a running or
	// completed job.
	Nodes    []int
	Cores    int
	PerNodeW float64
	// EstFinish is the scheduled completion time of a running job.
	EstFinish float64
	// Retries counts fault-kill → re-enqueue transitions so far.
	Retries int
	// Priority is the job's effective scheduling priority (submission
	// override or the application default).
	Priority int
	// Preemptions counts evictions in favour of a higher-priority job
	// so far.
	Preemptions int
	// ReclaimedW is the power returned to the pool by a cancellation.
	ReclaimedW float64
	// Reason explains a failure.
	Reason string
}

// NodeState is one node's row in a ClusterState.
type NodeState struct {
	ID int
	// Health is healthy, quarantined or drained (always healthy without
	// fault injection).
	Health string
	// Derated marks an active power-cap excursion on the node.
	Derated bool
	// Job is the resident job id, empty when idle.
	Job string
}

// ClusterState is a point-in-time view of the online cluster.
type ClusterState struct {
	Now float64
	// BoundW >= AllocW + ReservedW at every event boundary (the bound
	// invariant); FreeW is the unallocated remainder.
	BoundW    float64
	FreeW     float64
	AllocW    float64
	ReservedW float64
	Queued    int
	Running   int
	Nodes     []NodeState
}

// Online drives the scheduler incrementally. Not safe for concurrent
// use; callers serialise access. Each job's state lives in the run
// state's job record (jobRecord), the one the batch Run uses.
type Online struct {
	st *schedState
}

// Online opens an incremental scheduling session over the scheduler's
// cluster and configuration. Fault streams (Config.Faults) are armed on
// the virtual timeline immediately and keep running through idle
// periods; bound-schedule changes fire at their configured times.
func (s *Scheduler) Online() (*Online, error) {
	st, err := s.newState(true)
	if err != nil {
		return nil, err
	}
	return &Online{st: st}, nil
}

// Now returns the current virtual time in seconds.
func (o *Online) Now() float64 { return o.st.eng.Now() }

// Next returns the virtual time of the earliest pending event, if any,
// without firing it. The wall-clock bridge sleeps until that moment; a
// shared-clock orchestrator peeks every member and, with
// ProcessNextEvent, advances only the one owning the earliest event.
func (o *Online) Next() (float64, bool) { return o.st.eng.Next() }

// Err returns the first internal failure of the session (a
// bound-invariant violation, a model error inside an event handler), if
// any.
func (o *Online) Err() error { return o.st.failure }

// ProcessNextEvent fires exactly the earliest pending event and moves
// the session clock to its timestamp. It is a no-op when no event is
// pending.
func (o *Online) ProcessNextEvent() error {
	if _, err := o.st.eng.StepNext(); err != nil {
		return err
	}
	return o.st.failure
}

// ProcessEventsUntil fires every pending event with timestamp strictly
// before virtual time t (in order) and reports how many fired. The
// clock stops on the last fired event rather than advancing to t, so
// the session afterwards is indistinguishable from one whose events
// were processed one at a time by an external orchestrator — the run
// primitive of the federation's partitioned replay, where each shard
// advances through its events before its next arrival on its own
// worker. t may be +Inf (run to quiescence).
func (o *Online) ProcessEventsUntil(t float64) (int, error) {
	n, err := o.st.eng.RunBefore(t)
	if err != nil {
		return n, err
	}
	return n, o.st.failure
}

// SetBound changes the cluster power bound at the current virtual time,
// with full demand-response semantics (Config.BoundSchedule applied
// online): surplus is offered to the queue and, under Reallocate, to
// running jobs; a deficit throttles running jobs proportionally until
// the allocation fits (the excursion-derate machinery is the safety
// net). Events already due fire first so the change lands on a settled
// state.
func (o *Online) SetBound(watts float64) error {
	if !validBound(watts) {
		return fmt.Errorf("jobsched: bound %g W is not positive and finite", watts)
	}
	if o.st.failure != nil {
		return o.st.failure
	}
	if err := o.st.eng.RunUntil(o.st.eng.Now()); err != nil {
		return err
	}
	start := time.Since(epoch)
	o.st.applyBoundChange(watts)
	o.st.m.eventSeconds.Observe((time.Since(epoch) - start).Seconds())
	return o.st.failure
}

// Reconcile runs one reconciler pass at the current virtual
// time: desired placement (dispatch plus preemption under priorities)
// is converged against actual placement, surplus power is offered to
// running jobs when reallocation is enabled, and the coverage and
// Σ-bound invariants are asserted. The federation calls it after a
// shard rejoins so recovered capacity is re-covered in one pass
// instead of waiting for the next organic scheduler event. Events
// already due fire first so the pass lands on a settled state.
func (o *Online) Reconcile() error {
	if o.st.failure != nil {
		return o.st.failure
	}
	if err := o.st.eng.RunUntil(o.st.eng.Now()); err != nil {
		return err
	}
	o.st.reconcile("reconcile", o.st.s.Config.Reallocate)
	return o.st.failure
}

// Bound returns the session's current cluster power bound in watts.
func (o *Online) Bound() float64 { return o.st.bound }

// FreeWatts returns the currently unallocated power in watts.
func (o *Online) FreeWatts() float64 { return o.st.freeW }

// QueueLen returns the number of jobs waiting for nodes or power.
func (o *Online) QueueLen() int { return o.st.qlive }

// RunningLen returns the number of jobs currently placed.
func (o *Online) RunningLen() int { return o.st.nrunning }

// FreeNodes returns the number of unoccupied, non-quarantined nodes.
func (o *Online) FreeNodes() int { return len(o.st.free) }

// Advance fires every event due at or before virtual time t (in order)
// and moves the clock there; t must be at or after Now.
func (o *Online) Advance(t float64) error {
	if err := o.st.eng.RunUntil(t); err != nil {
		return err
	}
	return o.st.failure
}

// SubmitPri admits one job at the current virtual time with a
// scheduling priority; priority 0 inherits the application's default.
// Higher priorities dispatch first and, when Config.Preempt is enabled,
// may evict running lower-priority jobs. Events already due fire first,
// so the job is admitted on a settled state; the admission itself is
// not a DES event and is not timed. Events the admission leaves due
// fire before SubmitPri returns, so the returned status, built from the
// record the submission took, already reflects the placement decision:
// running (with its node set and budget) or queued. Job ids are unique
// among the jobs the session holds; an id EvacuateQueued handed back
// may be submitted again.
func (o *Online) SubmitPri(id string, app *workload.Spec, pri int) (JobStatus, error) {
	st := o.st
	now := st.eng.Now()
	if err := st.eng.RunUntil(now); err != nil {
		return JobStatus{}, err
	}
	idx, err := st.register(Job{ID: id, App: app, Arrival: now, Priority: pri})
	if err != nil {
		return JobStatus{}, err
	}
	st.admit(&st.recs[idx])
	st.publishState()
	if err := st.eng.RunUntil(now); err != nil {
		return JobStatus{}, err
	}
	if st.failure != nil {
		return JobStatus{}, st.failure
	}
	return st.status(idx, st.queuePos(idx)), nil
}

// Grow prepares the session for n more submissions: the id index
// reserves room for them, the record arena and its id column grow
// once to hold the records its free stack lacks, and the first time a
// priority level's queue has to grow while some of the n are still to
// come, it makes room for all of them. So the submissions neither grow
// the index nor move the arena, and a queue at one priority grows at
// most once. It changes no scheduling state.
func (o *Online) Grow(n int) { o.st.grow(n) }

// Submission is one entry of a SubmitBatch call.
type Submission struct {
	ID  string
	App *workload.Spec
	// Priority is the job's scheduling priority; 0 inherits the
	// application default.
	Priority int
}

// SubmitResult is one entry of SubmitBatch's response: the job's
// status after admission, or the per-entry error.
type SubmitResult struct {
	Status JobStatus
	Err    error
}

// SubmitBatch admits a batch of jobs at the current virtual time, in
// order. Each entry carries exactly the semantics of one SubmitPri call
// — the i-th result (status or error, including mid-batch duplicate
// and sticky-failure rejections) is identical to what the i-th of N
// serial SubmitPri calls would have returned — while letting callers amortise
// their own admission, locking and wakeup over the batch (the HTTP
// front takes one admission slot and one driver lock per batch instead
// of per job).
func (o *Online) SubmitBatch(subs []Submission) []SubmitResult {
	out := make([]SubmitResult, len(subs))
	for i, sub := range subs {
		out[i].Status, out[i].Err = o.SubmitPri(sub.ID, sub.App, sub.Priority)
	}
	return out
}

// Status reports the current state of a submitted job.
func (o *Online) Status(id string) (JobStatus, error) {
	idx, ok := o.st.jobs.Lookup(id, o.st.recID)
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return o.st.status(idx, o.st.queuePos(idx)), nil
}

// status builds the status of record i; queuePos is a queued job's
// position.
func (st *schedState) status(i int32, queuePos int) JobStatus {
	rec := &st.recs[i]
	js := JobStatus{
		ID: st.ids[i], State: rec.state, Arrival: rec.arrival, Retries: int(rec.retries),
		Priority: rec.pri, Preemptions: int(rec.preempts),
	}
	if rec.state.Terminal() {
		js.Finish = rec.finishedAt
	}
	switch rec.state {
	case JobQueued:
		js.QueuePos = queuePos
	case JobRunning:
		rj := st.slots[rec.run]
		js.Start = rec.start
		js.Nodes = append([]int(nil), rj.nodeIDs...)
		js.Cores = rj.cores
		js.PerNodeW = rj.perNode.Total()
		js.EstFinish = rj.finishAt
	case JobCompleted:
		js.Start = rec.start
		js.Nodes = st.stats.nodeIDs(rec.nodeOff, rec.nodeLen)
		js.Cores = int(rec.cores)
		js.PerNodeW = rec.perNodeW
	case JobFailed:
		js.Reason = st.reasons[i]
	case JobCancelled:
		js.ReclaimedW = rec.reclaimedW
	}
	return js
}

// queuePos returns a queued job's 0-based position in dispatch order
// (0 for a job that is not queued):
// the live jobs of every higher priority level plus the job's place in
// its own level's FIFO. Positions are dense and gap-free across cancel
// tombstones, queue compaction, evacuations and preemption re-enqueues.
func (st *schedState) queuePos(i int32) int {
	pri, pos := st.recs[i].pri, 0
	if st.recs[i].state != JobQueued {
		return 0
	}
	for li := range st.levels {
		l := &st.levels[li]
		if l.pri > pri {
			pos += l.live
			continue
		}
		if l.pri < pri {
			break
		}
		// Tail fast path: a job queried right after submission (every
		// SubmitPri returns through here) is the live tail of its level.
		// Without this, sustained submission into a saturated cluster
		// is quadratic in queue depth.
		for qi := len(l.q) - 1; qi >= l.head; qi-- {
			if e := &l.q[qi]; !e.started {
				if e.rec == i {
					return pos + l.live - 1
				}
				break
			}
		}
		for qi := l.head; qi < len(l.q); qi++ {
			if e := &l.q[qi]; !e.started {
				if e.rec == i {
					break
				}
				pos++
			}
		}
		break
	}
	return pos
}

// Jobs lists every submitted job's status, ordered by id. Queue
// positions come from one walk of the queue in dispatch order, not one
// walk per queued job.
func (o *Online) Jobs() []JobStatus {
	st := o.st
	pos := make([]int, len(st.recs)) // by arena index; read for queued jobs only
	n := 0
	for li := range st.levels {
		l := &st.levels[li]
		for qi := l.head; qi < len(l.q); qi++ {
			if e := &l.q[qi]; !e.started {
				pos[e.rec] = n
				n++
			}
		}
	}
	recs := make([]int32, 0, st.jobs.Len())
	st.jobs.Each(func(i int32) { recs = append(recs, i) })
	slices.SortFunc(recs, func(a, b int32) int { return strings.Compare(st.ids[a], st.ids[b]) })
	out := make([]JobStatus, len(recs))
	for k, i := range recs {
		out[k] = st.status(i, pos[i])
	}
	return out
}

// Cancel withdraws a job. A queued job leaves the queue and a running
// job is stopped with its power returned to the pool; either may start
// queued work immediately. A job waiting out a retry backoff has the
// retry withdrawn. Cancelling a terminal job is an error. Returns the
// watts reclaimed.
func (o *Online) Cancel(id string) (float64, error) {
	st := o.st
	idx, ok := st.jobs.Lookup(id, st.recID)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	rec := &st.recs[idx]
	if rec.state.Terminal() {
		return 0, fmt.Errorf("%w: job %q is %s", ErrJobTerminal, id, rec.state)
	}
	switch rec.state {
	case JobRunning:
		st.accountPower()
		rec.reclaimedW = st.teardown(st.slots[rec.run])
		st.retire(rec, JobCancelled)
		st.dispatch()
		if st.s.Config.Reallocate {
			st.reallocate()
		}
		st.assertBound("cancel")
	case JobRetrying:
		st.backoff[idx].Cancel()
		delete(st.backoff, idx)
		st.retire(rec, JobCancelled)
	default:
		// Queued: tombstone the entry in place. Only the job's own
		// priority level can hold it; the search runs from the tail,
		// where recently submitted jobs sit.
		l := st.level(rec.pri, false)
		found := false
		if l != nil {
			for qi := len(l.q) - 1; qi >= l.head && !found; qi-- {
				if e := &l.q[qi]; !e.started && e.rec == idx {
					e.started = true
					st.unqueue(l, e)
					found = true
				}
			}
		}
		if !found {
			return 0, fmt.Errorf("jobsched: job %q not cancellable (inconsistent state)", id)
		}
		st.retire(rec, JobCancelled)
		st.dispatch() // the removal can promote a startable entry to head
		st.assertBound("cancel")
	}
	st.publishState()
	return rec.reclaimedW, st.failure
}

// EvacuateQueued extracts every queued (not-yet-running) job from the
// session in enqueue order, appends them to dst and forgets them
// entirely — the jobs are handed back to the caller for re-submission
// elsewhere, as if they had never been submitted here. Running and
// retrying jobs are untouched (they hold nodes and watts on this
// cluster and must finish or fail here). This is the federation's
// shard-evacuation primitive: when a shard's control plane crashes, its
// queue migrates to surviving shards while its resident work rides out
// the outage. A caller that passes the previous call's buffer back,
// truncated, evacuates without allocating.
func (o *Online) EvacuateQueued(dst []Job) []Job {
	st := o.st
	if st.qlive == 0 {
		return dst
	}
	for _, e := range st.takeQueued() {
		dst = append(dst, st.job(e.rec))
		st.forget(e.rec)
		st.jobDone()
	}
	st.publishState()
	return dst
}

// Cluster snapshots the cluster's power decomposition, queue pressure
// and per-node health at the current virtual time.
func (o *Online) Cluster() ClusterState {
	st := o.st
	cs := ClusterState{
		Now:       st.eng.Now(),
		BoundW:    st.bound,
		FreeW:     st.freeW,
		AllocW:    st.allocatedW(),
		ReservedW: st.reservedW(),
		Queued:    st.qlive,
		Running:   st.nrunning,
		Nodes:     make([]NodeState, len(st.s.Cluster.Nodes)),
	}
	resident := make([]string, len(cs.Nodes))
	for _, rj := range st.slots {
		if rj.live {
			for _, g := range rj.nodeIDs {
				resident[g] = st.ids[rj.rec]
			}
		}
	}
	for i := range cs.Nodes {
		ns := NodeState{ID: i, Health: "healthy", Job: resident[i]}
		if st.nodes != nil {
			ns.Health = st.nodes[i].health.String()
			ns.Derated = st.nodes[i].derated
		}
		cs.Nodes[i] = ns
	}
	return cs
}

// Drain ends the session: the fault streams are stopped first (so every
// remaining event is finite), resident and retrying jobs run to
// completion in virtual time, and queued jobs that still cannot start
// once everything else has finished are failed. After Drain the event
// queue is empty and every submitted job is terminal.
func (o *Online) Drain() error {
	st := o.st
	if st.nodes != nil && !st.faultsStopped {
		st.stopFaults()
	}
	// Fast-forward: each completion releases power and may start queued
	// work, so keep firing until no event remains. Fault streams are
	// stopped, so the set of remaining events is finite (completions,
	// requeues, bound changes).
	for {
		next, ok := st.eng.Next()
		if !ok {
			break
		}
		if err := st.eng.RunUntil(next); err != nil {
			return err
		}
		if st.failure != nil {
			return st.failure
		}
	}
	if st.qlive > 0 {
		st.failQueued("daemon drained before the job could start")
		st.publishState()
	}
	if st.failure != nil {
		return st.failure
	}
	if st.jobsLeft != 0 || st.nrunning > 0 {
		return fmt.Errorf("jobsched: drain left %d jobs unaccounted (%d running)",
			st.jobsLeft, st.nrunning)
	}
	return nil
}

// Pending reports how many submitted jobs are not yet terminal.
func (o *Online) Pending() int { return o.st.jobsLeft }
