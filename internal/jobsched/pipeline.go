package jobsched

// Scheduler pipeline stages beyond plain dispatch: the feasibility
// filter that shrinks the node pool offered to the coordinator,
// power-aware preemption (evict the cheapest set of
// strictly-lower-priority running jobs whose reclaimed watts and nodes
// admit a blocked higher-priority job), and the reconciler that
// converges desired-versus-actual placement after node-health or bound
// changes instead of patching event by event. Priority needs no stage
// of its own: the queue keeps one FIFO per priority level, so every
// stage reads the same dispatch order, and unconstrained jobs skip the
// feasibility filter.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/workload"
)

// constraintSatisfiable reports whether any cluster node satisfies the
// app's hard constraints, ignoring occupancy — a queued job may wait
// for busy nodes, but a constraint no node can ever satisfy fails the
// job at arrival instead of queueing it forever.
func (st *schedState) constraintSatisfiable(app *workload.Spec) bool {
	c := &app.Constraint
	for i, n := range st.s.Cluster.Nodes {
		if c.Allows(i, n.PowerEff) {
			return true
		}
	}
	return false
}

// feasible is the pipeline's feasibility stage: pool (node ids) shrunk
// to the app's hard constraints in st.feasIDs's storage, or pool itself
// when the app is unconstrained (the allocation-free common case). It
// keeps pool's order and drops no preferred node; which nodes a job
// prefers is the coordinator's to read (Place ranks them first). The
// result is a pure function of pool per application, so dispatch-cache
// entries keyed by the free set and free watts remain sound.
func (st *schedState) feasible(app *workload.Spec, pool []int) []int {
	c := &app.Constraint
	if c.Zero() {
		return pool
	}
	ids := st.feasIDs[:0]
	for _, id := range pool {
		if c.Allows(id, st.s.Cluster.Nodes[id].PowerEff) {
			ids = append(ids, id)
		}
	}
	st.feasIDs = ids
	return ids
}

// victimCmp is the preemption cost order: lowest priority first, then
// cheapest reclaimed watts, then job id — evicting in this order
// yields the minimal-cost victim set for a greedy prefix scan.
func (st *schedState) victimCmp(a, b *runningJob) int {
	return cmp.Or(cmp.Compare(st.recs[a.rec].pri, st.recs[b.rec].pri),
		cmp.Compare(a.powerUsed, b.powerUsed), cmp.Compare(st.ids[a.rec], st.ids[b.rec]))
}

// preemptPass runs once per dispatch fixpoint when preemption is
// enabled and nothing could start: it takes the dispatch head (the
// highest-priority blocked job), plans the smallest prefix of the
// cost-ordered victim set whose reclaimed watts and nodes make the job
// placeable, and commits the evictions. The freed resources are
// consumed by the dispatch rescan that follows (identical pool and
// watts, so the planned placement is reproduced deterministically).
// With no strictly-lower-priority job running — always the case when
// every job shares one priority — it returns false without evicting.
// Returns whether anything was evicted.
//
// A plan that evicts nothing leaves a stamp of its inputs (planStamp),
// and while the stamp holds the pass returns false without replanning.
func (st *schedState) preemptPass() bool {
	if st.qlive == 0 || st.nrunning == 0 {
		return false
	}
	head := st.topQueued()
	stamp := planStamp{st.freeVer, math.Float64bits(st.freeW), st.shadowEpoch, head.seq}
	if stamp == st.failedPlan {
		st.stamped++
		return false
	}
	st.failedPlan = stamp // an eviction bumps freeVer, voiding it
	top := head.rec
	pri := st.recs[top].pri
	victims := st.preVictims[:0]
	for _, rj := range st.slots {
		if rj.live && st.recs[rj.rec].pri < pri {
			victims = append(victims, rj)
		}
	}
	st.preVictims = victims
	if len(victims) == 0 {
		return false
	}
	// The full (priority, watts, id) key is a total order, so the sorted
	// order does not depend on slot order.
	slices.SortFunc(victims, st.victimCmp)
	k := st.planPreemption(st.apps[st.recs[top].app].spec, victims)
	if k == 0 {
		return false
	}
	for i := 0; i < k; i++ {
		st.preemptJob(victims[i], st.ids[top])
	}
	st.assertBound("preempt")
	return true
}

// planStamp keys a failed preemption plan on its inputs: the free set
// (by version, which every start and teardown bumps, so it covers the
// running set), the free watts (by bits), the running jobs' watts (by
// shadow epoch: a one-node job's excursion re-cap moves neither) and the
// head (by seq, never reused in a run: a promotion voids the stamp).
type planStamp struct {
	freeVer, wBits, shadowEpoch, head uint64
}

// planPreemption finds the smallest k such that evicting the first k
// cost-ordered victims makes the dispatch head, a job of app, placeable
// within the bound, probing hypothetical pools with the dispatch
// coordinator and scratch into the planner's own placement (never a
// dispatch-cache entry's) and publishing none of them. Returns 0 when
// no prefix suffices. The probe replicates tryStart's admission gates —
// constraint filter, placement, and the duty-cycling gate against the
// post-eviction running count — so a committed plan is guaranteed to
// start the job on the rescan.
func (st *schedState) planPreemption(app *workload.Spec, victims []*runningJob) int {
	adv, err := st.s.CLIP.Advisor(app)
	if err != nil {
		st.failure = err
		return 0
	}
	candW := st.freeW
	pool := append(st.preIDs[:0], st.free...)
	for k := 1; k <= len(victims); k++ {
		v := victims[k-1]
		candW += v.powerUsed
		for _, id := range v.nodeIDs {
			// Mirror releaseNodes: only placeable nodes rejoin the pool
			// under fault injection.
			if st.placeable(id) {
				pool = append(pool, id)
			}
		}
		st.preIDs = pool
		if candW <= 0 || len(pool) == 0 {
			continue
		}
		ids := st.feasible(app, pool)
		if len(ids) == 0 || st.coord.Place(app, adv, ids, candW, &st.csc, &st.prePl) != nil {
			continue
		}
		if dutyBlocked(&st.prePl, st.nrunning-k) {
			continue
		}
		if st.nrunning-k < 0 {
			st.failure = fmt.Errorf("jobsched: preemption plan evicts %d of %d running jobs", k, st.nrunning)
			return 0
		}
		return k
	}
	return 0
}

// preemptJob evicts one running job in favour of forID: its completion
// is withdrawn, its watts reclaimed and nodes released, and the job is
// re-enqueued at the tail exactly once — no backoff and no retry
// accounting, because eviction is a scheduling decision, not a fault.
// The caller must have verified the victim's priority is strictly
// below the preemptor's.
func (st *schedState) preemptJob(rj *runningJob, forID string) {
	st.accountPower()
	rec := &st.recs[rj.rec]
	reclaimed := st.teardown(rj)
	st.m.jobsPreempted.Inc()
	st.m.preemptWatts.Add(reclaimed)
	st.stats.Preemptions++
	rec.preempts++
	st.logFault("preempt", -1, st.ids[rec.idx], reclaimed, "evicted for higher-priority "+forID)
	st.enqueue(rec)
}

// reconcile converges placement after a disruptive state change (node
// crash or recovery, excursion, bound change, shard rejoin): it runs
// one dispatch to its fixpoint (preemption, when enabled, runs inside
// it), offers surplus to running jobs when reallocation is enabled, and
// audits desired-versus-actual coverage — a queued job the decision
// cache proves startable under the current free set must have been
// started (the SystemScheduler-style eventual-coverage property).
// dispatch is deterministic and ends only when nothing more can start,
// so a gap is a dispatch fault, and it fails the run at once. The
// Σ-bound invariant is asserted and the post-event state published
// exactly as the legacy per-handler sequences did.
func (st *schedState) reconcile(where string, realloc bool) {
	st.dispatch()
	if realloc {
		st.reallocate()
	}
	st.m.reconcilePasses.Inc()
	if id := st.uncovered(); id != "" && st.failure == nil {
		st.failure = fmt.Errorf(
			"jobsched: coverage violation after %s at t=%.3f: job %q is dispatchable but still queued",
			where, st.eng.Now(), id)
	}
	st.assertBound(where)
	st.publishState()
}

// uncovered returns the id of a queued job that the dispatch decision
// cache proves startable right now, or "". After a dispatch fixpoint
// the dispatch head must not be provably startable — its cache entry
// either went stale (fresh, the rule tryStart serves decisions by, says
// the free set or watts moved on), records infeasibility, or is held by
// the CapOK duty-cycling gate; anything else is a hole in dispatch.
func (st *schedState) uncovered() string {
	if st.qlive == 0 || st.failure != nil {
		return ""
	}
	top := st.topQueued()
	e := &st.apps[top.app].dc
	if !st.fresh(e) {
		return "" // no decision recorded for the current state
	}
	if e.state != entryEvaled {
		return "" // infeasible, or never reached evaluation
	}
	if dutyBlocked(&e.pl, st.nrunning) {
		return "" // waiting for more power
	}
	return st.ids[top.rec]
}
