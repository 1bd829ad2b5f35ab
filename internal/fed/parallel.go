package fed

// Conservative-window parallel executor. The federation's premise —
// shards are independent schedulers that interact only through
// federation-owned events (arrival routing, lease grants/expiries/
// recalls) — is exactly the known-interaction-point structure of
// conservative parallel discrete-event simulation: between two points
// where the federation itself could act, every shard's events are
// causally independent of every other shard's, so they can execute
// concurrently without changing any outcome.
//
// The executor alternates two regimes:
//
//	              window                  barrier
//	shard 0  ──e──e────e──┐
//	shard 1  ────e──e─────┤  broker pass, audit,
//	shard 2  ──e────e──e──┤  fed events at T, re-key   ── next window
//	shard 3  ───────e─────┘
//	         t0            T = next federation event
//
//	- Safe window: no broker transition is possible before the next
//	  federation event at time T (windowSafe proves it), so every
//	  shard processes its events with timestamp < T concurrently in a
//	  bounded worker pool (Online.ProcessEventsUntil). Per-shard event
//	  counts, clocks and errors land in per-worker scratch slots and
//	  are merged in shard order at the barrier, so telemetry and audit
//	  accounting stay deterministic and race-free.
//	- Serial fallback: a federation event is due next, or a broker
//	  transition is possible (an active lease could settle, a grant
//	  could fire). The executor then processes exactly one event with
//	  the serial Step — same tie-breaks, same per-event broker pass
//	  and audit — before re-evaluating.
//
// Determinism argument: inside a safe window no bound moves, no lease
// changes state and no job crosses shards, so (a) each shard's event
// sequence is a pure function of its own state — any interleaving,
// including the serial one, produces the same per-shard outcome; and
// (b) the serial run's per-event broker passes and audits over the
// same span are provably no-ops observing unchanging aggregates. The
// barrier credits the audit counter with the window's event count and
// performs one physical check on the identical state. Output is
// therefore byte-identical to Federation.Run for any worker count.

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Telemetry handles of the parallel executor.
var (
	mWindows = telemetry.Default.Counter("clip_fed_windows_total",
		"conservative parallel windows executed by the federation")
	mWindowEvents = telemetry.Default.Counter("clip_fed_window_events_total",
		"shard events processed inside parallel windows")
	hBarrier = telemetry.Default.Histogram("clip_fed_barrier_seconds",
		"wall-clock time spent in the serial barrier section per window",
		telemetry.DefSecondsBuckets)
)

// windowResult is one shard's contribution to a window, written by the
// worker that owns the shard and merged serially at the barrier.
type windowResult struct {
	n    int     // events processed
	maxT float64 // shard clock after the window (last fired event)
	err  error   // first scheduler error, if any
}

// windowSafe reports whether no broker transition can occur before the
// next federation-owned event, i.e. whether the span up to that event
// may run without per-event coordination. The proof obligations, all
// conservative:
//
//   - Fault streams can re-enqueue killed jobs mid-window, creating
//     demand the broker would react to: any fault-injecting shard
//     forces serial stepping.
//   - An active lease can settle mid-window (the borrower's queue can
//     drain, its free watts can grow): any active lease is unsafe.
//   - A grant can fire mid-window only if some starved shard exists
//     and some shard could come to cover a quantum. Queues cannot grow
//     inside a window (arrivals and requeues are federation events or
//     fault events), so with every queue empty no borrower can appear.
//     Otherwise the span is safe only if no shard's envelope — even
//     with all its watts free — could reach the lending quantum.
//
// An armed shard-fault stream needs no extra clause: every health
// transition, evacuation, orphaning and reclaim probe is a
// federation-owned event, so windows end strictly before it; orphaned
// leases are out of f.active with their watts frozen in place, so
// nothing they hold can move mid-window.
func (f *Federation) windowSafe() bool {
	if f.anyFaults {
		return false
	}
	l := f.cfg.Lending
	if !l.Enabled || len(f.shards) < 2 {
		return true
	}
	if len(f.active) > 0 {
		return false
	}
	anyQueued := false
	for _, sh := range f.shards {
		if sh.Online.QueueLen() > 0 {
			anyQueued = true
			break
		}
	}
	if !anyQueued {
		return true
	}
	return f.noShardCoversQuantum()
}

// noShardCoversQuantum reports whether no shard's envelope — even with
// every one of its watts free — could reach the lending quantum, i.e.
// the grant pass can never find a lender. The bound depends only on
// effective bounds and entitlements, which only the broker itself
// moves, so while it holds it keeps holding.
func (f *Federation) noShardCoversQuantum() bool {
	l := f.cfg.Lending
	for _, sh := range f.shards {
		head := sh.eff - l.ReserveFrac*sh.entitlement
		if floorRoom := sh.eff - l.MinBoundFrac*sh.entitlement; floorRoom < head {
			head = floorRoom
		}
		if head >= l.QuantumW {
			return false
		}
	}
	return true
}

// lendingInert reports whether the broker can never act again for the
// rest of the run: lending is off (or there is nobody to lend to), or
// no lease is active and no shard could ever cover a quantum. Unlike
// windowSafe this cannot lean on empty queues — queues will form later
// — so it must hold independent of queue state.
func (f *Federation) lendingInert() bool {
	l := f.cfg.Lending
	if !l.Enabled || len(f.shards) < 2 {
		return true
	}
	if len(f.active) > 0 {
		return false
	}
	return f.noShardCoversQuantum()
}

// RunParallel processes events until the federation is quiescent, then
// drains every shard — semantically identical to Run (byte-identical
// jobs, leases, audit counters and telemetry totals for any worker
// count), but shard events inside safe windows execute concurrently on
// up to workers goroutines. workers < 1 means GOMAXPROCS; workers == 1
// runs the windowed executor inline (useful as the identity baseline).
func (f *Federation) RunParallel(workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	f.ensureHeap()
	if f.failure == nil && !f.anyFaults && f.sfaults == nil &&
		f.cfg.Routing == Locality && f.lendingInert() {
		// Locality routing is a pure hash of the job key — arrivals
		// read no cross-shard state — and the broker can never act, so
		// the federation has no interaction points at all: the run is
		// one infinite window per shard. A shard-fault stream disables
		// this path: health transitions are interaction points.
		return f.runPartitioned(workers)
	}
	for f.failure == nil && !f.interrupted.Load() {
		tFed, fedOk := f.eng.Next()
		_, tSh, shOk := f.heap.min()
		if !fedOk && !shOk {
			break
		}
		if (fedOk && (!shOk || tFed <= tSh)) || !f.windowSafe() {
			// A federation event is due first (fed wins ties), or a
			// broker transition is possible: serial per-event regime.
			ok, err := f.Step()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			continue
		}
		f.runWindow(tFed, fedOk, workers)
	}
	if f.failure != nil {
		return f.failure
	}
	return f.drainParallel(workers)
}

// runWindow advances every shard owning events before the barrier
// (the next federation event, or quiescence when none is pending)
// concurrently, then merges the per-shard results deterministically.
func (f *Federation) runWindow(tFed float64, fedOk bool, workers int) {
	bound := math.Inf(1)
	if fedOk {
		bound = tFed
	}
	f.winShards = f.heap.collectBefore(f.winShards[:0], bound)
	sort.Ints(f.winShards)
	if len(f.winShards) == 0 {
		return
	}
	fanOut(len(f.winShards), workers, func(k int) { f.windowShard(f.winShards[k], bound) })

	// Serial barrier: merge per-shard scratch in shard order, credit
	// the window's events to the shared counters, re-key the heap and
	// run one physical audit over the (unchanged-by-construction)
	// aggregates.
	barrierStart := time.Now()
	total := 0
	for _, id := range f.winShards {
		res := &f.winRes[id]
		total += res.n
		if res.maxT > f.now {
			f.now = res.maxT
		}
		if res.err != nil {
			f.fail(res.err)
		}
		shardQueueGauge(id).Set(float64(f.shards[id].Online.QueueLen()))
		f.rekeyShard(id)
	}
	f.events += uint64(total)
	mFedEvents.Add(uint64(total))
	mWindowEvents.Add(uint64(total))
	f.audits += total
	f.auditCheck()
	// The last routed job can turn terminal mid-window; the serial run
	// would have cancelled the fault-stream generators at that event.
	// Cancelling them here is equivalent: generator events are
	// federation events, so they live at or beyond this window's bound
	// and none can have fired yet.
	f.maybeStopShardFaults()
	mWindows.Inc()
	hBarrier.Observe(time.Since(barrierStart).Seconds())
}

// windowShard runs one shard's pre-barrier events; the result lands in
// the shard's own scratch slot, so workers never share memory.
func (f *Federation) windowShard(id int, bound float64) {
	sh := f.shards[id]
	n, err := sh.Online.ProcessEventsUntil(bound)
	f.winRes[id] = windowResult{n: n, maxT: sh.Online.Now(), err: err}
}

// runPartitioned executes the whole run as one window per shard — the
// degenerate case of the conservative executor when the federation owns
// no interaction points: Locality routing places a job by a pure hash
// of its key (no cross-shard state read), the broker is provably inert
// and no fault stream can requeue work, so every shard's full timeline
// — its own events interleaved with the arrivals hashed to it — is
// causally independent of every other shard's.
//
// The arrivals drain off the federation engine serially in (time, seq)
// order, exactly the order the serial run would route them, and are
// partitioned by the same pure pickShard. Each worker then replays one
// shard start to finish: Advance + SubmitPri at each of its arrival times
// replicates routeArrival on the shard's own timeline, with the shard
// events between arrivals processed as ordinary steps. The serial run's
// per-event broker passes and audits are no-ops throughout (nothing
// they observe ever changes), so crediting the event and audit counters
// with the totals and running one physical check at the end reproduces
// Run's output byte for byte.
func (f *Federation) runPartitioned(workers int) error {
	// Pop every pending arrival without routing it; engine pop order is
	// (time, seq), the serial processing order.
	f.collect = f.collect[:0]
	f.collecting = true
	for {
		if _, ok := f.eng.Next(); !ok {
			break
		}
		if _, err := f.eng.StepNext(); err != nil {
			f.collecting = false
			return f.latch(err)
		}
	}
	f.collecting = false

	// Placement is a pure hash, so it happens serially up front; the
	// shared jobShard map and routing telemetry never see the workers.
	perShard := make([][]fedArrival, len(f.shards))
	for _, a := range f.collect {
		sid := f.pickShard(a)
		f.jobShard[a.id] = sid
		f.shards[sid].submitted++
		perShard[sid] = append(perShard[sid], a)
	}
	nArr := len(f.collect)
	mFedJobsRouted.Add(uint64(nArr))

	// Replay every shard to quiescence concurrently (shards without
	// arrivals may still own pending events from earlier serial steps).
	fanOut(len(f.shards), workers, func(k int) { f.replayShard(f.shards[k], perShard[k]) })

	// Single barrier: merge in shard order, reconstruct the serial
	// event/audit counts, one physical audit over the final state.
	barrierStart := time.Now()
	total := 0
	if t := f.eng.Now(); t > f.now {
		f.now = t
	}
	for _, sh := range f.shards {
		res := &f.winRes[sh.ID]
		total += res.n
		if res.maxT > f.now {
			f.now = res.maxT
		}
		if res.err != nil {
			f.fail(res.err)
		}
		shardQueueGauge(sh.ID).Set(float64(sh.Online.QueueLen()))
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

// replayShard runs one shard's full timeline: events strictly before
// each of its arrivals count as ordinary steps (exactly the events the
// serial run pops individually), then Advance + SubmitPri at the arrival
// time replicate routeArrival — events at exactly the arrival time fire
// inside Advance, uncounted, matching the serial fed-wins-ties rule.
func (f *Federation) replayShard(sh *Shard, arrivals []fedArrival) {
	n := 0
	var err error
	for _, a := range arrivals {
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
	f.winRes[sh.ID] = windowResult{n: n, maxT: sh.Online.Now(), err: err}
}

// drainParallel ends the run for Drain and RunParallel: after the serial
// fault-stream stop, orphan settlement, lease recalls and the final
// audit, shards share nothing, so each drains its resident and queued
// jobs on up to workers goroutines. Results merge in shard order, so
// the first failure in shard order is the one reported. The heap must
// exist (ensureHeap).
func (f *Federation) drainParallel(workers int) error {
	if f.sfaults != nil && !f.sfStopped {
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
	fanOut(len(f.shards), workers, func(k int) { errs[k] = f.shards[k].Online.Drain() })
	for _, sh := range f.shards {
		if errs[sh.ID] != nil {
			f.fail(errs[sh.ID])
		}
		shardQueueGauge(sh.ID).Set(float64(sh.Online.QueueLen()))
		f.rekeyShard(sh.ID)
	}
	return f.failure
}

// fanOut calls fn(k) for every k in [0, n) on up to workers goroutines
// (inline, in order, when one would do) and returns once every call
// has. Each k runs exactly once, so fn may write slot k of a shared
// slice without locking.
func fanOut(n, workers int, fn func(k int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
				fn(k)
			}
		}()
	}
	wg.Wait()
}
