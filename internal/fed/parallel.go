package fed

// Parallel federation runs. RunParallel has two regimes:
//
//   - Partitioned replay: with locality routing, an inert broker and no
//     fault stream the federation owns no interaction points, so every
//     shard's whole timeline is causally independent of every other
//     shard's. The arrival heap, sorted in place, is read once in
//     firing order and each shard receives the arena indices of its
//     own; each shard then replays start to finish on a bounded worker
//     pool, and one serial barrier merges the results (runPartitioned).
//   - Serial stepping: otherwise RunParallel steps exactly as Run does,
//     one event at a time with the per-event broker pass and audit.
//
// Either way the final drain fans out over the workers, since after the
// last lease is recalled the shards share nothing. Output is therefore
// byte-identical to Federation.Run for any worker count.
//
// Telemetry is the one thing the workers share: every shard publishes
// to telemetry.Default from whichever goroutine runs it. Its scheduler,
// engine and CLIP instance each write their own cell of the counter
// and histogram families (telemetry.Cells), so shards that run at once
// rarely write the same cache line; readers sum the cells, so counter
// totals and histogram counts equal Run's, and a scrape during the run
// sees shard work as it happens. Gauges are atomic and the event ring
// takes a lock per append; only the order of events in the ring
// depends on the interleaving.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Telemetry handles of the partitioned replay.
var (
	mWindows = telemetry.Default.Counter("clip_fed_windows_total",
		"partitioned replays executed by RunParallel")
	mWindowEvents = telemetry.Default.Counter("clip_fed_window_events_total",
		"shard events processed inside partitioned replays")
	hBarrier = telemetry.Default.Histogram("clip_fed_barrier_seconds",
		"wall-clock time spent in the partitioned replay's serial barrier",
		telemetry.DefSecondsBuckets)
)

// replayResult is one shard's contribution to a partitioned replay,
// written to the shard's own slot by the worker that owns the shard and
// merged serially at the barrier.
type replayResult struct {
	n    int     // events processed
	maxT float64 // shard clock after the replay (last fired event)
	err  error   // first scheduler error, if any
}

// lendingInert reports whether the broker can never act: lending is
// off, or there is nobody to lend to. RunParallel partitions exactly
// then (the -workers flag help states the same rule); a lending-on
// federation of two or more shards always steps serially, even when no
// shard could ever cover a quantum.
func (f *Federation) lendingInert() bool {
	return !f.cfg.Lending.Enabled || len(f.shards) < 2
}

// RunParallel processes events until the federation is quiescent, then
// drains every shard — semantically identical to Run (byte-identical
// jobs, leases, audit counters and telemetry totals for any worker
// count). When the run has no interaction points and has not been
// interrupted, every shard replays its timeline concurrently on up to
// workers goroutines; otherwise the federation steps serially as Run
// does and only the drain runs on the workers. workers < 1 means
// GOMAXPROCS.
func (f *Federation) RunParallel(workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	f.ensureHeap()
	if f.failure == nil && !f.interrupted.Load() && f.sf == nil &&
		f.cfg.Routing == Locality && f.lendingInert() {
		// Locality routing is a pure hash of the job key — arrivals
		// read no cross-shard state — and the broker can never act, so
		// the federation has no interaction points at all. A
		// shard-fault stream disables this path: health transitions
		// are interaction points.
		return f.runPartitioned(workers)
	}
	if err := f.stepAll(); err != nil {
		return err
	}
	return f.drainParallel(workers)
}

// runPartitioned executes the whole run as one replay per shard, for a
// federation that owns no interaction points: Locality routing places a
// job by a pure hash of its key (no cross-shard state read), the broker
// is provably inert and no fault stream can requeue work, so every
// shard's full timeline — its own events interleaved with the arrivals
// hashed to it — is causally independent of every other shard's.
//
// The arrival heap's array, sorted in place by (time, seq), is exactly
// the order the serial run would route the pending arrivals; one pass
// places each by the same pure pickShard and records its arena index in
// its shard's list. No arrival is stepped and no arrival is copied.
// Each worker then replays one shard start to
// finish: Advance + SubmitPri at each of its arrival times replicates
// routeArrival on the shard's own timeline, with the shard events
// between arrivals processed as ordinary steps. The serial run's
// per-event broker passes and audits are no-ops throughout (nothing
// they observe ever changes), so crediting the event and audit counters
// with the totals and running one physical check at the end reproduces
// Run's output byte for byte.
func (f *Federation) runPartitioned(workers int) error {
	// Only arrivals can be pending: no fault stream is armed, and a
	// settled lease cancels its expiry.
	if t, ok := f.eng.Next(); ok {
		return f.latch(fmt.Errorf("fed: partitioned replay found a pending federation event at %g", t))
	}
	// A trace scheduled in time order is already sorted as a heap
	// array, so the sort is one linear pass. Placement is a pure hash,
	// so it happens serially here; routing telemetry never sees the
	// workers.
	order := f.pending // arena indices, firing order
	f.pending = nil
	slices.SortFunc(order, f.arrivalOrder)
	nArr := len(order)
	sids := make([]int32, nArr) // their shards
	counts := make([]int, len(f.shards))
	for k, i := range order {
		sid := f.pickShard(f.arrival(i))
		sids[k] = int32(sid)
		counts[sid]++
	}

	// Each shard's arrivals are a slice of one backing array, in firing
	// order.
	perShard := make([][]int32, len(f.shards))
	backing := make([]int32, nArr)
	off := 0
	for sid, n := range counts {
		perShard[sid] = backing[off : off : off+n]
		off += n
		f.shards[sid].submitted += n
	}
	for i, idx := range order {
		perShard[sids[i]] = append(perShard[sids[i]], idx)
	}
	mFedJobsRouted.Add(uint64(nArr))

	// Replay every shard to quiescence concurrently (shards without
	// arrivals may still own pending events from earlier serial steps).
	results := make([]replayResult, len(f.shards))
	f.fanOut(workers, func(sh *Shard) { results[sh.ID] = f.replayShard(sh, perShard[sh.ID]) })

	// Single barrier: merge in shard order, reconstruct the serial
	// event/audit counts, one physical audit over the final state.
	barrierStart := time.Now()
	total := 0
	if nArr > 0 {
		f.now = max(f.now, f.arrival(order[nArr-1]).t)
	}
	for _, sh := range f.shards {
		res := &results[sh.ID]
		total += res.n
		if res.maxT > f.now {
			f.now = res.maxT
		}
		if res.err != nil {
			f.fail(res.err)
		}
		sh.queueGauge.Set(float64(sh.Online.QueueLen()))
		f.rekeyShard(sh.ID)
	}
	f.events += uint64(nArr + total)
	mFedEvents.Add(uint64(nArr + total))
	mWindowEvents.Add(uint64(total))
	f.audits += nArr + total
	f.auditCheck()
	mWindows.Inc()
	hBarrier.Observe(time.Since(barrierStart).Seconds())
	if f.failure != nil {
		return f.failure
	}
	return f.drainParallel(workers)
}

// replayShard runs one shard's full timeline, given the arena indices of
// its arrivals in firing order: events strictly before each arrival
// count as ordinary steps (exactly the events the serial run pops
// individually), then Advance + SubmitPri at the arrival time replicate
// routeArrival — events at exactly the arrival time fire inside
// Advance, uncounted, matching the serial fed-wins-ties rule. Workers
// only read the arrival arena.
func (f *Federation) replayShard(sh *Shard, idx []int32) replayResult {
	sh.Online.Grow(len(idx))
	n := 0
	var err error
	for _, i := range idx {
		a := f.arrival(i)
		var k int
		k, err = sh.Online.ProcessEventsUntil(a.t)
		n += k
		if err != nil {
			break
		}
		if err = sh.Online.Advance(a.t); err != nil {
			break
		}
		if _, err = sh.Online.SubmitPri(a.id, a.app, a.pri); err != nil {
			break
		}
	}
	if err == nil {
		var k int
		k, err = sh.Online.ProcessEventsUntil(math.Inf(1))
		n += k
	}
	return replayResult{n: n, maxT: sh.Online.Now(), err: err}
}

// drainParallel ends the run for Drain and RunParallel: after the serial
// fault-stream stop, orphan settlement, lease recalls and the final
// audit, shards share nothing, so each drains its resident and queued
// jobs on up to workers goroutines. Results merge in shard order, so
// the first failure in shard order is the one reported. The heap must
// exist (ensureHeap).
func (f *Federation) drainParallel(workers int) error {
	if f.sf != nil && !f.sfStopped {
		f.stopShardFaults()
	}
	for _, l := range append([]*Lease(nil), f.orphans...) {
		f.settleOrphan(l, true)
	}
	for _, l := range append([]*Lease(nil), f.active...) {
		f.settleLease(l, LeaseRecalled)
	}
	f.rekeyTouched()
	f.audit()
	errs := make([]error, len(f.shards))
	f.fanOut(workers, func(sh *Shard) { errs[sh.ID] = sh.Online.Drain() })
	for _, sh := range f.shards {
		if errs[sh.ID] != nil {
			f.fail(errs[sh.ID])
		}
		sh.queueGauge.Set(float64(sh.Online.QueueLen()))
		f.rekeyShard(sh.ID)
	}
	return f.failure
}

// fanOut calls fn for every shard on up to workers goroutines (inline,
// in shard order, when one would do) and returns once every call has.
// Each shard runs exactly once, so fn may write the shard's slot of a
// shared slice without locking.
func (f *Federation) fanOut(workers int, fn func(sh *Shard)) {
	n := len(f.shards)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for _, sh := range f.shards {
			fn(sh)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				fn(f.shards[k])
			}
		}()
	}
	wg.Wait()
}
