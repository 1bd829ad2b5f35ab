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
// Every event is a (handler, kind, argument) triple: the engine calls
// Handler.HandleEvent(kind, arg) when the event's time comes, and the
// layer above indexes its own state with the argument. A layer that
// processes a whole pending trace elsewhere takes it off the queue with
// Engine.Skip instead: one pass in firing order that hands each event's
// kind and argument to a function, counts the events as processed and
// calls no handler.
//
// The event queue is a typed binary heap (no container/heap, no
// interface{} boxing) with a free list for Event structs, so steady
// simulation runs allocate next to nothing per event; cancelled events
// are compacted out of the queue once they outnumber the live ones.
// When the free list is empty, events are cut from slabs that double
// with the events an engine has cut, up to slabEvents: scheduling a
// long trace up front (the federation's arrivals) costs one allocation
// per slabEvents events, and an engine that never holds many events at
// once (a small shard's) never pays for a large slab.
package des

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/telemetry"
)

// Metrics is the engine's telemetry handle set, resolved once per
// registry cell. The event loop is single-goroutine, so the engine counts
// steps, compactions and the queue high-water mark in plain fields and
// flushes them to its handle set at the end of each Run, RunUntil and
// RunBefore call that changed them — the per-event path stays free even
// of atomic operations.
type Metrics struct {
	events, compactions, runs *telemetry.Counter
	queuePeak                 *telemetry.Gauge
}

// NewMetrics resolves the engine's handle set from a registry cell.
func NewMetrics(r telemetry.Cell) *Metrics {
	return &Metrics{
		events: r.Counter("clip_des_events_total",
			"discrete events processed across all simulation runs"),
		compactions: r.Counter("clip_des_compactions_total",
			"event-queue compactions (cancelled events purged)"),
		runs: r.Counter("clip_des_runs_total",
			"Engine.Run invocations"),
		queuePeak: r.Gauge("clip_des_queue_depth_peak",
			"highest event-queue depth observed by any engine"),
	}
}

// cellMetrics holds one handle set per cell of telemetry.Default; each
// engine publishes to the set of the cell it takes when it is built.
var cellMetrics = telemetry.PerCell(telemetry.Default, NewMetrics)

// Handler receives the engine's events: each fires as
// HandleEvent(kind, arg) with the kind and argument it was scheduled
// with. Converting a pointer that already implements the interface
// does not allocate, so scheduling stays allocation-free on the hot
// path.
type Handler interface {
	HandleEvent(kind uint16, arg uint64)
}

// Event is a scheduled handler call in virtual time. The small fields
// come last, which keeps an event, and a slab, an eighth smaller.
type Event struct {
	Time float64
	seq  uint64
	h    Handler
	arg  uint64
	// eng is the owning engine while the event is pending; nil once it
	// has fired or been reclaimed (events are recycled via a free list).
	eng *Engine
	// Kind is the dispatch kind the handler receives. The engine never
	// interprets it; it is cleared when the event fires or is
	// reclaimed, so recycled events start unlabelled.
	Kind uint16
	// cancelled events stay in the heap but do nothing when popped.
	cancelled bool
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

// Pending reports whether the event is still due: scheduled, not yet
// fired, and not cancelled.
func (e *Event) Pending() bool { return e.eng != nil && !e.cancelled }

// Engine is a minimal discrete-event core: schedule handler events in
// virtual time and fire them in (time, scheduling order) order.
type Engine struct {
	now   float64
	seq   uint64
	queue []*Event // binary heap ordered by (Time, seq)
	free  []*Event // reclaimed events awaiting reuse
	slab  []Event  // the uncut rest of the newest slab
	cut   int      // events cut from slabs so far
	// cancelled counts cancelled events still sitting in the queue.
	cancelled int
	// compactions counts queue rebuilds that purged cancelled events.
	compactions int
	// maxDepth is the queue-depth high-water mark of this engine.
	maxDepth int
	// Steps counts processed (non-cancelled) events.
	Steps int
	// pubDepth is the high-water mark last published.
	pubDepth int
	// m is the handle set of the engine's telemetry cell.
	m *Metrics
}

// NewEngine returns an engine at time zero, publishing to the next
// telemetry cell (telemetry.NextCell).
func NewEngine() *Engine { return &Engine{m: cellMetrics[telemetry.NextCell()]} }

// publish flushes the steps and compactions since a call began at
// (steps, comps), and a risen queue high-water mark, to the engine's
// handle set. A call that changed none of them publishes nothing, so
// the per-arrival catch-up of an online driver, which usually fires no
// event, costs no atomic operation.
func (e *Engine) publish(steps, comps int) {
	if e.Steps == steps && e.compactions == comps && e.maxDepth <= e.pubDepth {
		return
	}
	m := e.m
	if e.Steps != steps {
		m.events.Add(uint64(e.Steps - steps))
	}
	if e.compactions != comps {
		m.compactions.Add(uint64(e.compactions - comps))
	}
	if e.maxDepth > e.pubDepth {
		m.queuePeak.SetMax(float64(e.maxDepth))
		e.pubDepth = e.maxDepth
	}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// A slab holds as many events as the engine has cut before it, at
// least minSlab and at most slabEvents.
const (
	minSlab    = 16
	slabEvents = 256
)

// alloc takes an Event from the free list or, when the list is empty,
// cuts the next one from the current slab, allocating a new slab when
// that one is used up.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.slab) == 0 {
		n := min(slabEvents, max(minSlab, e.cut))
		e.slab = make([]Event, n)
		e.cut += n
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	return ev
}

// reclaim returns a finished event to the free list.
func (e *Engine) reclaim(ev *Event) {
	ev.h = nil
	ev.arg = 0
	ev.eng = nil
	ev.cancelled = false
	ev.Kind = 0
	e.free = append(e.free, ev)
}

// At schedules h.HandleEvent(kind, arg) at absolute time t (>= Now)
// and returns the event for cancellation. The returned pointer is only
// valid until the event fires; the engine recycles fired events.
func (e *Engine) At(t float64, h Handler, kind uint16, arg uint64) (*Event, error) {
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

// After schedules h.HandleEvent(kind, arg) dt seconds from now.
func (e *Engine) After(dt float64, h Handler, kind uint16, arg uint64) (*Event, error) {
	return e.At(e.now+dt, h, kind, arg)
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
	e.pubDepth = 0
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
	steps, comps := e.Steps, e.compactions
	if err := e.step(); err != nil {
		return false, err
	}
	e.publish(steps, comps)
	return true, nil
}

// Runaway guards: the most events one Run or RunBefore call, and one
// RunUntil call, may fire. A cascade past them is reported as an error,
// so it cannot wedge a batch run or a live daemon.
const (
	maxRunEvents   = 50_000_000
	maxUntilEvents = 1_000_000
)

// Run processes events until the queue is empty.
func (e *Engine) Run() error {
	e.m.runs.Inc()
	_, err := e.fire(math.Inf(1), maxRunEvents)
	return err
}

// RunUntil fires every pending event due at or before t (in order) and
// advances the virtual clock to exactly t. It is the driving primitive
// of the wall-clock bridge: the online scheduler maps wall time to
// virtual time and repeatedly asks the engine to catch up.
func (e *Engine) RunUntil(t float64) error {
	if t < e.now-1e-12 {
		return fmt.Errorf("des: RunUntil %g before now %g", t, e.now)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("des: invalid RunUntil time %g", t)
	}
	// No float lies between t and the next one up, so this fires every
	// event due at or before t.
	if _, err := e.fire(math.Nextafter(t, math.Inf(1)), maxUntilEvents); err != nil {
		return err
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
// globally. t may be +Inf (drain every pending event).
func (e *Engine) RunBefore(t float64) (int, error) {
	if math.IsNaN(t) {
		return 0, fmt.Errorf("des: invalid RunBefore time %g", t)
	}
	return e.fire(t, maxRunEvents)
}

// Skip takes every pending live event off the queue in firing order,
// (time, seq), and calls fn(kind, arg) for each instead of its handler.
// It hands a whole pending trace to a layer that processes it elsewhere
// (the federation's partitioned replay routes its arrivals to the
// shards this way). The skipped events count as processed, as if each
// had fired: Steps and the events counter rise by the returned count,
// and the clock ends at the last one's time. Cancelled events are
// dropped uncounted. No event is recycled onto the free list, so a
// trace handed off once leaves no free list as long as itself: the
// skipped events' slabs go to the collector once nothing else on them
// is referenced. fn must not schedule on the engine: Skip empties the
// queue it is reading.
//
// The queue array is sorted in place; a trace scheduled in time order
// is already sorted as a heap array, so that sort is one linear pass.
func (e *Engine) Skip(fn func(kind uint16, arg uint64)) int {
	q := e.queue
	slices.SortFunc(q, func(a, b *Event) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	steps := e.Steps
	for i, ev := range q {
		q[i] = nil
		ev.eng = nil // pending no more: Cancel becomes a no-op
		if ev.cancelled {
			continue
		}
		e.now = ev.Time
		e.Steps++
		fn(ev.Kind, ev.arg)
	}
	e.queue = q[:0]
	e.cancelled = 0
	e.publish(steps, e.compactions)
	return e.Steps - steps
}

// fire is the one event loop of Run, RunUntil and RunBefore: it fires,
// in order, every live event due before t, at most limit of them, and
// reports how many fired. A further due event past the limit is left
// unfired and reported as a runaway.
func (e *Engine) fire(t float64, limit int) (int, error) {
	steps, comps := e.Steps, e.compactions
	defer e.publish(steps, comps)
	for {
		next, ok := e.Next()
		if !ok || next >= t {
			return e.Steps - steps, nil
		}
		if e.Steps-steps == limit {
			return limit, fmt.Errorf("des: exceeded %d events (runaway simulation?)", limit)
		}
		if err := e.step(); err != nil {
			return e.Steps - steps, err
		}
	}
}

// step fires the earliest live event. Callers must have established via
// Next that one exists.
func (e *Engine) step() error {
	ev := e.pop()
	if ev.Time < e.now-1e-9 {
		return fmt.Errorf("des: time went backwards: %g < %g", ev.Time, e.now)
	}
	e.now = ev.Time
	e.Steps++
	h, kind, arg := ev.h, ev.Kind, ev.arg
	ev.eng = nil // pending no more: Cancel becomes a no-op
	h.HandleEvent(kind, arg)
	e.reclaim(ev)
	return nil
}
