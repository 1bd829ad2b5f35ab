package jobsched

// Degraded-mode scheduling: this file wires internal/faults into the
// multi-job runtime. Crash, excursion and straggler events are drawn
// from the scenario's deterministic per-node streams and scheduled on
// the des timeline; their handlers kill and re-enqueue affected jobs
// (capped exponential backoff, MaxRetries), reclaim and redistribute
// the freed power, quarantine crashed nodes out of the free list until
// recovery, emergency-re-cap jobs hit by a power excursion (reserving
// the derated node's cut so it cannot be double-granted), and stretch
// iteration times on straggling nodes. A per-node circuit breaker
// drains nodes that crash repeatedly. Pending fault events are
// cancelled once the last job completes so the engine drains at the
// true makespan.

import (
	"fmt"
	"strings"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/power"
	"repro/internal/telemetry"
)

// des event kinds of the fault layer. The first six pair up into a
// node's three fault streams (crash and recovery, excursion and its
// end, straggler and its end); each stream holds at most one pending
// event, its next injection or the end of its active episode. A
// requeue carries the job's record index as its argument, every other
// kind the node id.
const (
	evkCrash uint16 = 1 + iota
	evkRecover
	evkExcursion
	evkExcursionEnd
	evkStraggler
	evkStragglerEnd
	evkRequeue
)

// FaultEvent is one entry of a run's fault log: every injection and
// every degraded-mode reaction, in event order. The rendered form is
// stable, so fixed-seed runs can assert byte-identical logs.
type FaultEvent struct {
	// T is the simulated time of the event.
	T float64
	// Kind names the event: crash, drain, recover, excursion,
	// excursion-end, straggler, straggler-end, kill, retry, requeue,
	// restart, recap, migrate, fail.
	Kind string
	// Node is the affected node id, or -1 for job-scoped events.
	Node int
	// Job is the affected job id, when any.
	Job string
	// Watts is the power reclaimed or released by the event, when any.
	Watts float64
	// Detail is a human-readable amplification.
	Detail string
}

// String renders the event as one stable log line.
func (e FaultEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%9.3f %-13s", e.T, e.Kind)
	if e.Node >= 0 {
		fmt.Fprintf(&b, " node=%d", e.Node)
	}
	if e.Job != "" {
		fmt.Fprintf(&b, " job=%s", e.Job)
	}
	if e.Watts != 0 {
		fmt.Fprintf(&b, " watts=%.1f", e.Watts)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

// FailedJob is a job that exhausted its retries (or had no node left to
// run on) and was removed from the system.
type FailedJob struct {
	ID       string
	Arrival  float64
	FailedAt float64
	// Retries is how many times the job was killed and re-tried before
	// failing.
	Retries int
	Reason  string
}

// FaultStats aggregates a run's fault activity.
type FaultStats struct {
	// Injected counts injected fault events (crashes + excursions +
	// stragglers).
	Injected   int
	Crashes    int
	Excursions int
	Stragglers int
	// Retries counts job kill → re-enqueue transitions.
	Retries int
	// Migrations counts jobs killed because an excursion re-cap was
	// infeasible on their fixed configuration.
	Migrations int
	// WattsReclaimed is the total power returned to the pool by kills
	// and re-caps.
	WattsReclaimed float64
}

// faultStreams is the number of fault streams per node.
const faultStreams = 3

// faultSlot returns the index in faultEv of node's stream for kind.
func faultSlot(kind uint16, node int) int { return node*faultStreams + int(kind-evkCrash)/2 }

// boundSlack absorbs floating-point rounding in the bound invariant.
const boundSlack = 1e-6

// initFaults arms the injector and schedules the first event of every
// per-node fault stream.
func (st *schedState) initFaults(sc faults.Scenario, nodes int) {
	st.inj = faults.NewInjector(sc, nodes)
	st.runningOn = make([]*runningJob, nodes)
	st.straggle = make([]float64, nodes)
	for i := range st.straggle {
		st.straggle[i] = 1
	}
	st.derated = make([]bool, nodes)
	st.reserved = make([]float64, nodes)
	st.faultEv = make([]*des.Event, nodes*faultStreams)
	st.excursion = make([]faults.Excursion, nodes)
	st.straggler = make([]faults.Straggler, nodes)
	for i := 0; i < nodes; i++ {
		st.scheduleNextCrash(i)
		st.scheduleNextExcursion(i)
		st.scheduleNextStraggler(i)
	}
}

// scheduleFault arms node's next event of kind dt seconds from now in
// the node's slot for that stream, which stopFaults cancels.
func (st *schedState) scheduleFault(dt float64, kind uint16, node int) {
	if st.faultsStopped {
		// The run is over (last job retired mid-handler); arming another
		// stream event would only delay the engine drain.
		return
	}
	ev, err := st.eng.After(dt, st, kind, uint64(node))
	if err != nil {
		st.failure = err
		return
	}
	st.faultEv[faultSlot(kind, node)] = ev
}

// handleFault dispatches a fault event of kind on node, first clearing
// its stream's slot.
func (st *schedState) handleFault(kind uint16, node int) {
	st.faultEv[faultSlot(kind, node)] = nil
	switch kind {
	case evkCrash:
		st.nodeCrash(node)
	case evkRecover:
		st.nodeRecover(node)
	case evkExcursion:
		st.excursionStart(node)
	case evkExcursionEnd:
		st.excursionEnd(node)
	case evkStraggler:
		st.stragglerStart(node)
	case evkStragglerEnd:
		st.stragglerEnd(node)
	}
}

// stopFaults cancels every pending fault event so the engine drains at
// the true makespan instead of simulating faults on an empty cluster
// forever.
func (st *schedState) stopFaults() {
	st.faultsStopped = true
	for i, ev := range st.faultEv {
		if ev != nil {
			ev.Cancel()
			st.faultEv[i] = nil
		}
	}
}

// jobDone retires one submitted job (finished, failed or cancelled).
// In a batch Run the fault streams stop with the last job so the engine
// drains at the true makespan; an online session idles between
// submissions, so its streams keep running until an explicit Drain.
func (st *schedState) jobDone() {
	st.jobsLeft--
	if st.jobsLeft == 0 && st.inj != nil && !st.faultsStopped && !st.online {
		st.stopFaults()
	}
}

// logFault appends to the run's fault log and mirrors the entry into
// the telemetry decision-event ring, which renders its detail line only
// when the ring is read.
func (st *schedState) logFault(kind string, node int, job string, watts float64, detail string) {
	fe := FaultEvent{T: st.eng.Now(), Kind: kind, Node: node, Job: job, Watts: watts, Detail: detail}
	st.stats.FaultLog = append(st.stats.FaultLog, fe)
	st.m.events.Append(telemetry.Event{
		Kind: telemetry.KindFault, TimeS: fe.T, App: job, Render: fe,
	})
}

// placeable reports whether a node may receive placements: healthy and
// not under an active power excursion. Without fault injection every
// node is placeable.
func (st *schedState) placeable(id int) bool {
	if st.inj == nil {
		return true
	}
	return st.inj.Health(id) == faults.Healthy && !st.nodeDerated(id)
}

// nodeDerated reports whether an excursion currently holds part of the
// node's budget in reserve.
func (st *schedState) nodeDerated(id int) bool { return st.derated != nil && st.derated[id] }

// freeHas reports whether id is in the (ascending) free list.
func (st *schedState) freeHas(id int) bool {
	lo, hi := 0, len(st.free)
	for lo < hi {
		mid := (lo + hi) / 2
		if st.free[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(st.free) && st.free[lo] == id
}

// syncNode reconciles one node's free-list membership with its health,
// derate and occupancy state.
func (st *schedState) syncNode(id int) {
	want := st.placeable(id) && st.runningOn[id] == nil
	has := st.freeHas(id)
	if want && !has {
		st.returnFree([]int{id})
	} else if !want && has {
		st.takeFree([]int{id})
	}
}

// releaseNodes clears a finished or killed job's node occupancy and
// returns the placeable subset to the free list (quarantined, drained
// and derated nodes stay out until their own recovery events).
func (st *schedState) releaseNodes(ids []int) {
	if st.inj == nil {
		st.returnFree(ids)
		return
	}
	ret := make([]int, 0, len(ids))
	for _, id := range ids {
		st.runningOn[id] = nil
		if st.placeable(id) {
			ret = append(ret, id)
		}
	}
	st.returnFree(ret)
}

// jobFactor returns the slowdown multiplier a job currently suffers:
// the worst straggler factor across its nodes (barrier-synchronised
// iterations run at the slowest node's pace).
func (st *schedState) jobFactor(rj *runningJob) float64 {
	if st.inj == nil {
		return 1
	}
	f := 1.0
	for _, g := range rj.globalIDs {
		if st.straggle[g] > f {
			f = st.straggle[g]
		}
	}
	return f
}

// --- crash / recovery ---------------------------------------------------

// scheduleNextCrash draws and schedules the node's next crash.
func (st *schedState) scheduleNextCrash(i int) {
	dt, ok := st.inj.NextCrash(i)
	if !ok {
		return
	}
	st.scheduleFault(dt, evkCrash, i)
}

// nodeCrash handles a node-crash event: the resident job (if any) is
// killed for retry with its power reclaimed, the node is quarantined —
// or drained when the circuit breaker trips — and recovery is
// scheduled.
func (st *schedState) nodeCrash(i int) {
	st.accountPower()
	st.m.faultsInjected.Inc()
	st.stats.Faults.Injected++
	st.stats.Faults.Crashes++
	h := st.inj.RecordCrash(i)
	st.logFault("crash", i, "", 0, fmt.Sprintf("crash #%d", st.inj.Crashes(i)))
	if h == faults.Drained {
		st.logFault("drain", i, "", 0, fmt.Sprintf("circuit breaker: %d crashes exceed limit", st.inj.Crashes(i)))
	}
	if rj := st.runningOn[i]; rj != nil {
		st.killJob(rj, i, fmt.Sprintf("node %d crashed", i))
	}
	st.syncNode(i)
	if h == faults.Drained {
		if st.inj.AllDrained() {
			st.failQueued("no nodes left: entire cluster drained")
		}
	} else {
		st.scheduleFault(st.inj.RecoveryDelay(i), evkRecover, i)
	}
	st.reconcile("crash", st.s.Config.Reallocate)
}

// nodeRecover returns a quarantined node to service.
func (st *schedState) nodeRecover(i int) {
	if !st.inj.Recover(i) {
		return
	}
	st.logFault("recover", i, "", 0, "")
	st.syncNode(i)
	st.scheduleNextCrash(i)
	st.reconcile("recover", false)
}

// killJob removes a running job from the cluster (crash or infeasible
// re-cap), reclaims its power, frees its surviving nodes and either
// schedules a backoff retry or reports the job failed once its retries
// are exhausted.
func (st *schedState) killJob(rj *runningJob, node int, cause string) {
	rec := &st.recs[rj.rec]
	id := st.ids[rec.idx]
	reclaimed := st.teardown(rj)
	st.stats.Faults.WattsReclaimed += reclaimed
	st.m.wattsReclaimed.Add(reclaimed)
	st.logFault("kill", node, id, reclaimed, cause)

	if int(rec.retries) >= st.inj.MaxRetries() {
		// The final kill is not re-tried; report only completed retries.
		st.failJob(rec, fmt.Sprintf("%s; %d retries exhausted", cause, rec.retries))
		return
	}
	rec.retries++
	st.m.jobsRetried.Inc()
	st.stats.Faults.Retries++
	backoff := st.inj.Backoff(id, int(rec.retries))
	ev, err := st.eng.After(backoff, st, evkRequeue, uint64(rec.idx))
	if err != nil {
		st.failure = err
		return
	}
	rec.state, st.backoff[rec.idx] = JobRetrying, ev
	rec.killed, rec.killedAt = true, st.eng.Now()
	st.logFault("retry", -1, id, 0, fmt.Sprintf("attempt %d in %.2fs", rec.retries, backoff))
}

// requeue re-enqueues a killed job after its backoff delay.
func (st *schedState) requeue(rec *jobRecord) {
	delete(st.backoff, rec.idx)
	if st.inj.AllDrained() {
		st.failJob(rec, "no nodes left: entire cluster drained")
		st.publishState()
		return
	}
	st.logFault("requeue", -1, st.ids[rec.idx], 0, fmt.Sprintf("attempt %d", rec.retries))
	st.enqueue(rec)
	st.dispatch()
	st.assertBound("requeue")
	st.publishState()
}

// failJob reports a job permanently failed and retires it.
func (st *schedState) failJob(rec *jobRecord, reason string) {
	id := st.ids[rec.idx]
	st.stats.Failed = append(st.stats.Failed, FailedJob{
		ID: id, Arrival: rec.arrival, FailedAt: st.eng.Now(),
		Retries: int(rec.retries), Reason: reason,
	})
	st.reasons[rec.idx] = reason
	st.logFault("fail", -1, id, 0, reason)
	st.retire(rec, JobFailed)
}

// failQueued fails every still-queued job, in enqueue order (the
// cluster has fully drained, or the session is draining; nothing can
// ever start again).
func (st *schedState) failQueued(reason string) {
	for _, e := range st.takeQueued() {
		st.failJob(&st.recs[e.rec], reason)
	}
}

// --- power excursions ---------------------------------------------------

// scheduleNextExcursion draws and schedules the node's next power-cap
// excursion.
func (st *schedState) scheduleNextExcursion(i int) {
	ex, ok := st.inj.NextExcursion(i)
	if !ok {
		return
	}
	st.excursion[i] = ex
	st.scheduleFault(ex.After, evkExcursion, i)
}

// excursionStart handles the transient power-cap excursion drawn for
// node i: the node's effective budget drops by its fraction for its
// duration. A resident job is emergency-re-capped (or killed for retry
// when the derated plan is infeasible); an idle node is withheld from
// placement for the duration.
func (st *schedState) excursionStart(i int) {
	frac, dur := st.excursion[i].Frac, st.excursion[i].Dur
	st.accountPower()
	st.m.faultsInjected.Inc()
	st.stats.Faults.Injected++
	st.stats.Faults.Excursions++
	st.derated[i] = true
	st.logFault("excursion", i, "", 0, fmt.Sprintf("budget derated %.0f%% for %.1fs", frac*100, dur))
	if rj := st.runningOn[i]; rj != nil {
		st.recapJob(rj, i, frac)
	} else {
		st.syncNode(i)
	}
	st.scheduleFault(dur, evkExcursionEnd, i)
	st.reconcile("excursion", st.s.Config.Reallocate)
}

// recapJob derates a running job's uniform per-node budget by frac
// (barrier-synchronised jobs run at the slowest node's pace, so the
// whole job steps down to the derated node's level). The derated node's
// cut is held in reserve — not grantable until the excursion ends — and
// the other nodes' cuts return to the free pool. An infeasible re-cap
// kills the job for retry elsewhere (migration).
func (st *schedState) recapJob(rj *runningJob, node int, frac float64) {
	old := rj.perNode
	b := power.DerateBudget(old, frac)
	feasible := b.CPU >= 1
	var newIter float64
	if feasible {
		e, err := st.previewRetune(rj, b)
		if err != nil {
			feasible = false
		} else {
			newIter = e.IterTime
		}
	}
	if !feasible {
		st.stats.Faults.Migrations++
		st.logFault("migrate", node, st.ids[rj.rec], 0, "re-cap infeasible on fixed configuration; killed for retry")
		st.killJob(rj, node, fmt.Sprintf("power excursion on node %d", node))
		return
	}
	rj.progressTo(st.eng.Now())
	n := float64(len(rj.globalIDs))
	cut := old.Total() - b.Total()
	released := cut * (n - 1)
	st.reserved[node] += cut
	st.freeW += released
	// Subtract the delta rather than assigning b.Total()*n: under
	// variability-aware coordination the per-node budgets differ, so
	// powerUsed (the plan's true total) is not PerNode[0].Total()*n and
	// an absolute rewrite would mint or destroy watts.
	rj.powerUsed -= cut * n
	rj.perNode = b
	rj.baseIterTime = newIter
	rj.iterTime = newIter
	if f := st.jobFactor(rj); f > 1 {
		rj.iterTime = newIter * f
	}
	st.scheduleCompletion(rj)
	st.stats.Faults.WattsReclaimed += released
	st.m.wattsReclaimed.Add(released)
	st.logFault("recap", node, st.ids[rj.rec], released,
		fmt.Sprintf("per-node %.1f→%.1f W, %.1f W reserved", old.Total(), b.Total(), cut))
}

// excursionEnd restores the node's effective budget: the reserved cut
// returns to the free pool and the node may receive placements again.
func (st *schedState) excursionEnd(i int) {
	st.accountPower()
	st.derated[i] = false
	st.freeW += st.reserved[i]
	st.reserved[i] = 0
	st.logFault("excursion-end", i, "", 0, "")
	st.syncNode(i)
	st.scheduleNextExcursion(i)
	st.reconcile("excursion-end", st.s.Config.Reallocate)
}

// --- stragglers ---------------------------------------------------------

// scheduleNextStraggler draws and schedules the node's next slowdown
// episode.
func (st *schedState) scheduleNextStraggler(i int) {
	sg, ok := st.inj.NextStraggler(i)
	if !ok {
		return
	}
	st.straggler[i] = sg
	st.scheduleFault(sg.After, evkStraggler, i)
}

// stragglerStart slows node i down by its drawn episode's factor for
// the episode's duration; a resident job's iteration time stretches to
// the worst factor across its nodes.
func (st *schedState) stragglerStart(i int) {
	factor, dur := st.straggler[i].Factor, st.straggler[i].Dur
	st.m.faultsInjected.Inc()
	st.stats.Faults.Injected++
	st.stats.Faults.Stragglers++
	st.straggle[i] = factor
	st.logFault("straggler", i, "", 0, fmt.Sprintf("slowdown ×%.2f for %.1fs", factor, dur))
	if rj := st.runningOn[i]; rj != nil {
		st.applyStraggle(rj)
	}
	st.scheduleFault(dur, evkStragglerEnd, i)
	st.assertBound("straggler")
	st.publishState()
}

// stragglerEnd restores the node's speed.
func (st *schedState) stragglerEnd(i int) {
	st.straggle[i] = 1
	st.logFault("straggler-end", i, "", 0, "")
	if rj := st.runningOn[i]; rj != nil {
		st.applyStraggle(rj)
	}
	st.scheduleNextStraggler(i)
	st.assertBound("straggler-end")
	st.publishState()
}

// applyStraggle re-times a running job after a straggler transition on
// one of its nodes.
func (st *schedState) applyStraggle(rj *runningJob) {
	rj.progressTo(st.eng.Now())
	rj.iterTime = rj.baseIterTime * st.jobFactor(rj)
	st.scheduleCompletion(rj)
}

// --- invariants and state gauges --------------------------------------

// allocatedW sums the power held by running jobs, in slot order.
func (st *schedState) allocatedW() float64 {
	var alloc float64
	for _, rj := range st.slots {
		if rj.live {
			alloc += rj.powerUsed
		}
	}
	return alloc
}

// reservedW sums the watts held back by active excursions.
func (st *schedState) reservedW() float64 {
	var resv float64
	for _, r := range st.reserved {
		resv += r
	}
	return resv
}

// assertBound verifies the core safety invariant after an event: the
// power allocated to running jobs plus the reserve held by active
// excursions never exceeds the cluster bound. A violation (a
// double-granted watt) fails the run. The peak allocation is tracked so
// callers can assert the invariant held at every event timestamp.
func (st *schedState) assertBound(where string) {
	alloc, resv := st.allocatedW(), st.reservedW()
	total := alloc + resv
	if total > st.stats.PeakAllocW {
		st.stats.PeakAllocW = total
	}
	if total > st.bound+boundSlack && st.bound >= 1 && st.failure == nil {
		st.failure = fmt.Errorf(
			"jobsched: power bound violated after %s at t=%.3f: %.3f W allocated + %.3f W reserved > %.3f W bound",
			where, st.eng.Now(), alloc, resv, st.bound)
	}
}

// publishState sets the queue-depth, free-watts and quarantined-node
// gauges to the scheduler's post-event state. The event ring does not
// carry this state: Online.Cluster returns the bound's decomposition
// atomically, and assertBound checks it at every state change.
func (st *schedState) publishState() {
	quar := 0
	if st.inj != nil {
		quar = st.inj.Unhealthy()
	}
	st.m.queueDepth.Set(float64(st.qlive))
	st.m.freeWatts.Set(st.freeW)
	st.m.quarantined.Set(float64(quar))
}
