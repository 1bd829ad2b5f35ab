// Package des is a discrete-event simulation engine for power-bounded
// cluster execution. Where internal/sim computes steady-state behaviour
// analytically, des executes the run event by event: nodes advance
// through phase segments, a per-node RAPL-like feedback controller
// samples power on a control interval and steps the DVFS frequency, and
// iterations synchronise at barriers.
//
// The engine serves two purposes: it validates the analytic model (the
// cross-validation tests require both simulators to agree in steady
// state), and it exposes transient behaviour the analytic model cannot
// see — controller settling after phase changes, barrier jitter under
// manufacturing variability, and cap overshoot during the first control
// intervals.
//
// The event queue is a typed binary heap (no container/heap, no
// interface{} boxing) with a free list for Event structs, so steady
// simulation runs allocate next to nothing per event; cancelled events
// are compacted out of the queue once they outnumber the live ones.
package des

import (
	"fmt"
	"math"

	"repro/internal/telemetry"
)

// Telemetry handles. The event loop is single-goroutine, so the engine
// counts steps, compactions and the queue high-water mark in plain
// fields and flushes them to the shared registry once per Run — the
// per-event path stays free even of atomic operations.
var (
	mEvents = telemetry.Default.Counter("clip_des_events_total",
		"discrete events processed across all simulation runs")
	mCompactions = telemetry.Default.Counter("clip_des_compactions_total",
		"event-queue compactions (cancelled events purged)")
	mRuns = telemetry.Default.Counter("clip_des_runs_total",
		"Engine.Run invocations")
	gQueuePeak = telemetry.Default.Gauge("clip_des_queue_depth_peak",
		"highest event-queue depth observed by any engine")
)

// Handler receives indexed event dispatch. Scheduling a (handler,
// kind, arg) triple instead of a closure keeps the hot path
// allocation-free: converting a pointer that already implements the
// interface does not allocate, while every closure capturing loop
// state does.
type Handler interface {
	HandleEvent(kind uint16, arg uint64)
}

// Event is a scheduled callback in virtual time.
type Event struct {
	Time float64
	// Kind optionally labels the event for the layer above (jobsched
	// tags completions, fault injections and recoveries with its own
	// kind constants). The engine never interprets it; it is cleared
	// when the event fires or is reclaimed, so recycled events start
	// unlabelled. Handler events receive it as the dispatch kind.
	Kind uint16
	seq  uint64
	fn   func()
	// h/arg carry a handler-dispatched event (AtHandler); fn carries a
	// closure-dispatched one (At). Exactly one is set while pending.
	h   Handler
	arg uint64
	// cancelled events stay in the heap but do nothing when popped.
	cancelled bool
	// eng is the owning engine while the event is pending; nil once it
	// has fired or been reclaimed (events are recycled via a free list).
	eng *Engine
}

// Cancel marks the event so it is skipped when its time comes. It is
// only meaningful while the event is pending: cancelling an event that
// has already fired (or was already cancelled) is a no-op.
func (e *Event) Cancel() {
	if e.cancelled || e.eng == nil {
		return
	}
	e.cancelled = true
	e.eng.cancelled++
	e.eng.maybeCompact()
}

// Engine is a minimal discrete-event core: schedule closures in virtual
// time and run until the queue drains or a horizon is reached.
type Engine struct {
	now   float64
	seq   uint64
	queue []*Event // binary heap ordered by (Time, seq)
	free  []*Event // reclaimed events awaiting reuse
	// cancelled counts cancelled events still sitting in the queue.
	cancelled int
	// compactions counts queue rebuilds that purged cancelled events.
	compactions int
	// maxDepth is the queue-depth high-water mark of this engine.
	maxDepth int
	// Steps counts processed (non-cancelled) events.
	Steps int
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// alloc takes an Event from the free list or the heap (the Go one).
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return new(Event)
}

// reclaim returns a finished event to the free list.
func (e *Engine) reclaim(ev *Event) {
	ev.fn = nil
	ev.h = nil
	ev.arg = 0
	ev.eng = nil
	ev.cancelled = false
	ev.Kind = 0
	e.free = append(e.free, ev)
}

// At schedules fn at absolute time t (>= Now) and returns the event for
// cancellation. The returned pointer is only valid until the event
// fires; the engine recycles fired events.
func (e *Engine) At(t float64, fn func()) (*Event, error) {
	if t < e.now-1e-12 {
		return nil, fmt.Errorf("des: schedule at %g before now %g", t, e.now)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("des: invalid event time %g", t)
	}
	e.seq++
	ev := e.alloc()
	ev.Time = t
	ev.seq = e.seq
	ev.fn = fn
	ev.eng = e
	e.push(ev)
	return ev, nil
}

// After schedules fn dt seconds from now.
func (e *Engine) After(dt float64, fn func()) (*Event, error) {
	return e.At(e.now+dt, fn)
}

// AtHandler schedules h.HandleEvent(kind, arg) at absolute time t. It
// is the allocation-free sibling of At: the event is labelled with
// kind up front and carries arg to the handler, so callers index into
// their own arenas instead of capturing state in a closure.
func (e *Engine) AtHandler(t float64, h Handler, kind uint16, arg uint64) (*Event, error) {
	if t < e.now-1e-12 {
		return nil, fmt.Errorf("des: schedule at %g before now %g", t, e.now)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("des: invalid event time %g", t)
	}
	e.seq++
	ev := e.alloc()
	ev.Time = t
	ev.seq = e.seq
	ev.Kind = kind
	ev.h = h
	ev.arg = arg
	ev.eng = e
	e.push(ev)
	return ev, nil
}

// AfterHandler schedules h.HandleEvent(kind, arg) dt seconds from now.
func (e *Engine) AfterHandler(dt float64, h Handler, kind uint16, arg uint64) (*Event, error) {
	return e.AtHandler(e.now+dt, h, kind, arg)
}

// Reset rewinds the engine to time zero for reuse by a fresh run:
// pending events are reclaimed into the free list and the clock,
// sequence counter and step count restart so a replay schedules the
// exact event sequence a brand-new engine would. Cumulative telemetry
// (events processed, compactions) has already been flushed per Run.
func (e *Engine) Reset() {
	for _, ev := range e.queue {
		e.reclaim(ev)
	}
	clear(e.queue)
	e.queue = e.queue[:0]
	e.cancelled = 0
	e.now = 0
	e.seq = 0
	e.Steps = 0
	e.maxDepth = 0
	e.compactions = 0
}

// less orders events by (time, insertion sequence).
func less(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

// push inserts an event, restoring the heap property by sift-up.
func (e *Engine) push(ev *Event) {
	e.queue = append(e.queue, ev)
	if len(e.queue) > e.maxDepth {
		e.maxDepth = len(e.queue)
	}
	i := len(e.queue) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e.queue[i], e.queue[parent]) {
			break
		}
		e.queue[i], e.queue[parent] = e.queue[parent], e.queue[i]
		i = parent
	}
}

// pop removes and returns the earliest event.
func (e *Engine) pop() *Event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return top
}

// siftDown restores the heap property below index i.
func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && less(q[right], q[left]) {
			least = right
		}
		if !less(q[least], q[i]) {
			return
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}

// maybeCompact rebuilds the queue without its cancelled events once
// they outnumber the live ones, so long runs with heavy rescheduling
// (every controller tick cancels a phase completion) keep the heap
// small instead of dragging dead events to their pop time.
func (e *Engine) maybeCompact() {
	if e.cancelled*2 <= len(e.queue) || len(e.queue) < 16 {
		return
	}
	live := e.queue[:0]
	for _, ev := range e.queue {
		if ev.cancelled {
			e.reclaim(ev)
			continue
		}
		live = append(live, ev)
	}
	for i := len(live); i < len(e.queue); i++ {
		e.queue[i] = nil
	}
	e.queue = live
	e.cancelled = 0
	e.compactions++
	for i := len(live)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// Next returns the time of the earliest pending live event and whether
// one exists. Cancelled events sitting on top of the heap are reclaimed
// on the way (they were about to be discarded at pop time anyway), so
// the reported time is always that of an event that will actually fire.
func (e *Engine) Next() (float64, bool) {
	for len(e.queue) > 0 {
		top := e.queue[0]
		if !top.cancelled {
			return top.Time, true
		}
		e.pop()
		e.cancelled--
		e.reclaim(top)
	}
	return 0, false
}

// StepNext fires exactly the earliest pending live event and advances
// the clock to its timestamp, reporting whether an event fired. It is
// the single-step primitive of multi-engine orchestration: a layer
// driving several engines from one shared clock (internal/fed) peeks
// every member with Next and steps only the engine owning the earliest
// event, so cross-engine causality stays deterministic.
func (e *Engine) StepNext() (bool, error) {
	if _, ok := e.Next(); !ok {
		return false, nil
	}
	if err := e.step(e.Steps + 1); err != nil {
		return false, err
	}
	mEvents.Add(1)
	gQueuePeak.SetMax(float64(e.maxDepth))
	return true, nil
}

// Run processes events until the queue is empty or time exceeds
// horizon (0 = no horizon). It returns an error if the event count
// exceeds maxSteps (runaway guard; 0 = default 50 million). An event
// past the horizon stays in the queue — a later Run or RunUntil still
// fires it.
func (e *Engine) Run(horizon float64, maxSteps int) error {
	if maxSteps <= 0 {
		maxSteps = 50_000_000
	}
	mRuns.Inc()
	startSteps, startComp := e.Steps, e.compactions
	defer func() {
		mEvents.Add(uint64(e.Steps - startSteps))
		mCompactions.Add(uint64(e.compactions - startComp))
		gQueuePeak.SetMax(float64(e.maxDepth))
	}()
	for {
		next, ok := e.Next()
		if !ok {
			return nil
		}
		if horizon > 0 && next > horizon {
			// Peek before pop: the over-horizon event must survive for
			// a later Run/RunUntil, not be silently discarded.
			e.now = horizon
			return nil
		}
		if err := e.step(maxSteps); err != nil {
			return err
		}
	}
}

// RunUntil fires every pending event due at or before t (in order) and
// advances the virtual clock to exactly t. It is the driving primitive
// of the wall-clock bridge: the online scheduler maps wall time to
// virtual time and repeatedly asks the engine to catch up. maxSteps
// bounds the events fired by this call (0 = default 1 million), so a
// runaway cascade cannot wedge a live daemon.
func (e *Engine) RunUntil(t float64, maxSteps int) error {
	if t < e.now-1e-12 {
		return fmt.Errorf("des: RunUntil %g before now %g", t, e.now)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("des: invalid RunUntil time %g", t)
	}
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	startSteps, startComp := e.Steps, e.compactions
	defer func() {
		mEvents.Add(uint64(e.Steps - startSteps))
		mCompactions.Add(uint64(e.compactions - startComp))
		gQueuePeak.SetMax(float64(e.maxDepth))
	}()
	budget := e.Steps + maxSteps
	for {
		next, ok := e.Next()
		if !ok || next > t {
			break
		}
		if err := e.step(budget); err != nil {
			return err
		}
	}
	if t > e.now {
		e.now = t
	}
	return nil
}

// RunBefore fires every pending event with timestamp strictly before t
// (in order) and reports how many fired. Unlike RunUntil it neither
// fires events at exactly t nor advances the clock past the last fired
// event, so a layer that knows no interaction can occur before t (the
// federation's partitioned replay) can advance each member engine
// through its earlier events in isolation, and the member's clock
// afterwards reads exactly as if the events had been interleaved
// globally.
// t may be +Inf (drain every pending event); maxSteps bounds the events
// fired by this call (0 = default 50 million).
func (e *Engine) RunBefore(t float64, maxSteps int) (int, error) {
	if math.IsNaN(t) {
		return 0, fmt.Errorf("des: invalid RunBefore time %g", t)
	}
	if maxSteps <= 0 {
		maxSteps = 50_000_000
	}
	startSteps, startComp := e.Steps, e.compactions
	defer func() {
		mEvents.Add(uint64(e.Steps - startSteps))
		mCompactions.Add(uint64(e.compactions - startComp))
		gQueuePeak.SetMax(float64(e.maxDepth))
	}()
	budget := e.Steps + maxSteps
	for {
		next, ok := e.Next()
		if !ok || next >= t {
			break
		}
		if err := e.step(budget); err != nil {
			return e.Steps - startSteps, err
		}
	}
	return e.Steps - startSteps, nil
}

// step fires the earliest live event. Callers must have established via
// Next that one exists.
func (e *Engine) step(maxSteps int) error {
	ev := e.pop()
	if ev.Time < e.now-1e-9 {
		return fmt.Errorf("des: time went backwards: %g < %g", ev.Time, e.now)
	}
	e.now = ev.Time
	e.Steps++
	if e.Steps > maxSteps {
		return fmt.Errorf("des: exceeded %d events (runaway simulation?)", maxSteps)
	}
	fn, h, kind, arg := ev.fn, ev.h, ev.Kind, ev.arg
	ev.eng = nil // pending no more: Cancel becomes a no-op
	if h != nil {
		h.HandleEvent(kind, arg)
	} else {
		fn()
	}
	e.reclaim(ev)
	return nil
}
