package telemetry

import (
	"fmt"
	"sync"
)

// Event kinds recorded by the built-in instrumentation.
const (
	// KindSchedule is a cluster-level scheduling decision made by
	// core.CLIP (one per Schedule call, cache hits included).
	KindSchedule = "schedule"
	// KindRebalance is a variability-aware budget redistribution made by
	// the coordinator (§III-B2), carrying the per-node budgets.
	KindRebalance = "rebalance"
	// KindFault is a fault-injection or degraded-mode action of the
	// multi-job runtime (crash, recovery, job kill/retry, re-cap);
	// Detail carries the rendered description, or Render renders it
	// when the ring is read.
	KindFault = "fault"
)

// Event is one entry of the decision provenance log: enough context to
// trace a scheduling outcome back to the power budget and scalability
// class that produced it (the axes of the paper's Figs. 8–9 and
// Table I). Fields that do not apply to a kind are zero and omitted
// from JSON.
type Event struct {
	// Seq is the 1-based position of the event in the run's full stream
	// (it keeps counting even when the ring buffer drops old events).
	Seq uint64 `json:"seq"`
	// Kind discriminates the event (KindSchedule, KindRebalance,
	// KindFault).
	Kind string `json:"kind"`
	// App is the application the decision concerns.
	App string `json:"app,omitempty"`
	// BoundWatts is the cluster power bound the decision was made under.
	BoundWatts float64 `json:"bound_watts,omitempty"`
	// Class is the scalability class of the profiled application
	// (linear / logarithmic / parabolic — the paper's Table I axis).
	Class string `json:"class,omitempty"`
	// NP is the predicted concurrency inflection point.
	NP int `json:"np,omitempty"`
	// Nodes, Cores and Sockets describe the chosen configuration.
	Nodes   int `json:"nodes,omitempty"`
	Cores   int `json:"cores,omitempty"`
	Sockets int `json:"sockets,omitempty"`
	// Affinity is the thread↔socket placement (compact/scatter).
	Affinity string `json:"affinity,omitempty"`
	// CPUWatts / MemWatts are the recommended per-node budget split.
	CPUWatts float64 `json:"cpu_watts,omitempty"`
	MemWatts float64 `json:"mem_watts,omitempty"`
	// PredTimeS is the predicted cluster per-iteration time in seconds.
	PredTimeS float64 `json:"pred_time_s,omitempty"`
	// Coordinated is true when variability-aware re-balancing ran.
	Coordinated bool `json:"coordinated,omitempty"`
	// CacheHit is true when the decision was served from the memoized
	// decision cache rather than recomputed.
	CacheHit bool `json:"cache_hit,omitempty"`
	// PerNode carries the redistributed budgets of a rebalance event.
	PerNode []NodeBudget `json:"per_node,omitempty"`
	// TimeS is the simulated timestamp of a KindFault event.
	TimeS float64 `json:"time_s,omitempty"`
	// Detail is the rendered description of a KindFault event.
	Detail string `json:"detail,omitempty"`
	// Render, when set, renders Detail when the ring is read rather
	// than when the event is appended, so a producer logging on a hot
	// path pays for formatting only when the ring is exposed. Snapshots
	// carry the rendered Detail and a nil Render.
	Render fmt.Stringer `json:"-"`
}

// NodeBudget is one node's share in a rebalance event.
type NodeBudget struct {
	Node     int     `json:"node"`
	CPUWatts float64 `json:"cpu_watts"`
	MemWatts float64 `json:"mem_watts"`
}

// DefaultEventCapacity bounds the event ring buffer: long sweeps keep
// the most recent window instead of growing without bound. The total
// appended count is still exact (Total / Dropped).
const DefaultEventCapacity = 4096

// EventLog is a bounded, concurrency-safe ring buffer of Events. The
// zero value is ready to use with DefaultEventCapacity.
type EventLog struct {
	mu    sync.Mutex
	cap   int
	buf   []Event // ring storage, len(buf) <= cap
	start int     // index of the oldest event when the ring is full
	total uint64  // events ever appended
	// spare recycles the PerNode backings of evicted entries: events
	// with and without budgets interleave in the ring, so the slot an
	// append evicts rarely carries a buffer of its own to reuse.
	spare [][]NodeBudget
	// slab backs PerNode copies when no evicted buffer is spare, as in
	// a ring that has not wrapped yet: a ring can take thousands of
	// events to wrap, and carving each copy from a shared slab makes
	// that one allocation per slab rather than one per event.
	slab []NodeBudget
}

// maxSparePerNode bounds the recycled-buffer stack; beyond it evicted
// backings are simply dropped for the GC.
const maxSparePerNode = 64

// perNodeSlab is the capacity, in budgets, of one PerNode slab.
const perNodeSlab = 1024

// copyPerNode copies src into a recycled buffer or, failing that, the
// next stretch of the slab; callers must hold l.mu.
func (l *EventLog) copyPerNode(src []NodeBudget) []NodeBudget {
	if n := len(l.spare); n > 0 {
		dst := l.spare[n-1]
		l.spare[n-1] = nil
		l.spare = l.spare[:n-1]
		return append(dst, src...)
	}
	if cap(l.slab)-len(l.slab) < len(src) {
		l.slab = make([]NodeBudget, 0, max(perNodeSlab, len(src)))
	}
	lo := len(l.slab)
	l.slab = append(l.slab, src...)
	return l.slab[lo:len(l.slab):len(l.slab)]
}

// Append adds an event, stamping its Seq, evicting the oldest entry
// when the ring is full. The ring owns the stored event's PerNode
// slice: the incoming one is copied into a buffer recycled from an
// evicted entry or carved from a slab, so callers may pass a scratch
// slice they reuse, a wrapped ring appends per-node events without
// allocating, and one that has not wrapped allocates once per slab.
func (l *EventLog) Append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cap == 0 {
		l.cap = DefaultEventCapacity
	}
	if l.buf == nil {
		// The ring fills in any run long enough to matter, so its
		// storage is sized once rather than grown by doubling.
		l.buf = make([]Event, 0, l.cap)
	}
	l.total++
	e.Seq = l.total
	if e.PerNode != nil {
		e.PerNode = l.copyPerNode(e.PerNode)
	}
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, e)
		return
	}
	if evicted := l.buf[l.start].PerNode; evicted != nil && len(l.spare) < maxSparePerNode {
		l.spare = append(l.spare, evicted[:0])
	}
	l.buf[l.start] = e
	l.start = (l.start + 1) % len(l.buf)
}

// Snapshot returns the retained events, oldest first. PerNode slices
// are deep-copied: the ring recycles their backing arrays into future
// appends, so a snapshot must own its budgets. Lazily rendered details
// are rendered here.
func (l *EventLog) Snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.start:]...)
	out = append(out, l.buf[:l.start]...)
	for i := range out {
		if out[i].PerNode != nil {
			out[i].PerNode = append([]NodeBudget(nil), out[i].PerNode...)
		}
		if out[i].Render != nil {
			out[i].Detail, out[i].Render = out[i].Render.String(), nil
		}
	}
	return out
}

// Total returns the number of events ever appended.
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Dropped returns how many appended events have been evicted.
func (l *EventLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total - uint64(len(l.buf))
}
