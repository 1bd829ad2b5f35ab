package jobsched

// Scheduler pipeline stages beyond plain dispatch: the feasibility
// filter and affinity ranking that shrink and order the cluster view
// offered to the coordinator, power-aware preemption (evict the
// cheapest set of strictly-lower-priority running jobs whose reclaimed
// watts and nodes admit a blocked higher-priority job), and the
// bounded reconciler that converges desired-versus-actual placement
// after node-health or bound changes instead of patching event by
// event. Priority needs no stage of its own: the queue keeps one FIFO
// per priority level, so every stage reads the same dispatch order, and
// unconstrained jobs skip the feasibility filter.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/coordinator"
	"repro/internal/hw"
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

// rankCmp orders feasible node ids for an affinity-ranked view:
// preferred nodes first, then power efficiency ascending, node id as
// the total tiebreak.
func (st *schedState) rankCmp(c *workload.NodeConstraint, a, b int) int {
	if pa, pb := c.Prefers(a), c.Prefers(b); pa != pb {
		if pa {
			return -1
		}
		return 1
	}
	nodes := st.s.Cluster.Nodes
	return cmp.Or(cmp.Compare(nodes[a].PowerEff, nodes[b].PowerEff), cmp.Compare(a, b))
}

// feasibleIDs filters pool (global node ids) through the app's hard
// constraints into dst's storage and, when the app prefers nodes,
// ranks the survivors. Reports whether the result is ranked.
func (st *schedState) feasibleIDs(app *workload.Spec, pool, dst []int) ([]int, bool) {
	c := &app.Constraint
	ids := dst[:0]
	for _, id := range pool {
		if c.Allows(id, st.s.Cluster.Nodes[id].PowerEff) {
			ids = append(ids, id)
		}
	}
	ranked := len(c.PreferNodes) > 0
	if ranked {
		slices.SortFunc(ids, func(a, b int) int { return st.rankCmp(c, a, b) })
	}
	return ids, ranked
}

// feasibleView is the pipeline's feasibility stage: the cluster view
// and node pool offered to the coordinator for one job, which is the
// plain free view for unconstrained apps (the allocation-free common
// case) and the constraint-filtered, optionally affinity-ranked subset
// otherwise. The view is a pure function of the free set per
// application, so dispatch-cache entries keyed by the free set and free
// watts remain sound across repeated calls.
func (st *schedState) feasibleView(app *workload.Spec) (*hw.Cluster, []int, bool) {
	if app.Constraint.Zero() {
		return st.freeCluster(), st.free, false
	}
	ids, ranked := st.feasibleIDs(app, st.free, st.feasIDs)
	st.feasIDs = ids
	if len(ids) == 0 {
		return nil, ids, false
	}
	st.feasSub = fillSub(st.feasSub, st.s.Cluster, ids)
	return st.feasSub, ids, ranked
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
// every job shares one priority — it returns false without side
// effects. Returns whether anything was evicted.
func (st *schedState) preemptPass() bool {
	if st.qlive == 0 || st.nrunning == 0 {
		return false
	}
	top := st.topQueued().rec
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

// planPreemption finds the smallest k such that evicting the first k
// cost-ordered victims makes the dispatch head, a job of app, placeable
// within the bound, probing hypothetical pools with the planner's own
// scratch (never the shared dispatch scratch or cache) and a quiet
// coordinator. Returns 0 when no prefix suffices. The probe replicates
// tryStart's admission gates — constraint filter, placement, and the
// CapOK duty-cycling rule against the post-eviction running count — so
// a committed plan is guaranteed to start the job on the rescan.
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
		for _, id := range v.globalIDs {
			// Mirror releaseNodes: only placeable nodes rejoin the pool
			// under fault injection.
			if st.inj == nil || st.placeable(id) {
				pool = append(pool, id)
			}
		}
		slices.Sort(pool)
		st.preIDs = pool
		if candW <= 0 || len(pool) == 0 {
			continue
		}
		ids, ranked := st.feasibleIDs(app, pool, st.feasIDs)
		st.feasIDs = ids[:0]
		if len(ids) == 0 {
			continue
		}
		st.preSub = fillSub(st.preSub, st.s.Cluster, ids)
		st.preCoord = coordinator.Coordinator{Cluster: st.preSub, Ranked: ranked, Quiet: true, Metrics: st.m.coord}
		if err := st.preCoord.Place(app, adv, candW, &st.preSc, &st.prePl); err != nil {
			continue
		}
		if !st.prePl.NodeCfg.CapOK && st.nrunning-k > 0 {
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

// maxReconcilePasses bounds the reconciler's re-dispatch loop; a
// coverage gap that survives this many fixpoints is irreducible and
// fails the run instead of spinning.
const maxReconcilePasses = 8

// reconcile converges placement after a disruptive state change (node
// crash or recovery, excursion, bound change, shard rejoin): it
// re-runs the placement pipeline to a fixpoint, offers surplus to
// running jobs when reallocation is enabled, and audits desired-
// versus-actual coverage — a queued job the decision cache proves
// startable under the current free set must have been started (the
// SystemScheduler-style eventual-coverage property). A detected gap is
// retried with bounded re-dispatch; only an irreducible gap fails the
// run. The Σ-bound invariant is asserted and the post-event state
// published exactly as the legacy per-handler sequences did.
func (st *schedState) reconcile(where string, realloc bool) {
	passes := 1
	st.dispatch()
	for st.uncovered() != "" && passes < maxReconcilePasses {
		passes++
		st.dispatch()
	}
	if realloc {
		st.reallocate()
	}
	st.m.reconcilePasses.Add(uint64(passes))
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
	if !e.pl.capOK && st.nrunning > 0 {
		return "" // duty-cycling gate: waiting for more power
	}
	return st.ids[top.rec]
}
