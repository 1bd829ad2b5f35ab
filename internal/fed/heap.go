package fed

import "cmp"

// shardHeap indexes the shards' next-event times so the federation's
// run loop finds the earliest shard in O(log n) instead of scanning all
// of them per step (the O(shards) scan PR 7 shipped with). Entries are
// re-keyed lazily: the federation marks shards whose timelines it
// touched (stepped, routed to, bound-shifted) and re-peeks only those
// at the next decision point.
//
// Ordering matches the serial scan's tie-break exactly: earlier time
// first, then lower shard id.

// shardHeap is an indexed binary min-heap of shard next-event times.
type shardHeap struct {
	ids   []int     // heap slot -> shard id
	times []float64 // heap slot -> next-event time
	pos   []int     // shard id -> heap slot, -1 when absent
}

// newShardHeap returns an empty heap sized for n shards.
func newShardHeap(n int) *shardHeap {
	h := &shardHeap{pos: make([]int, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// less orders heap slots by (time, shard id).
func (h *shardHeap) less(i, j int) bool {
	if h.times[i] != h.times[j] {
		return h.times[i] < h.times[j]
	}
	return h.ids[i] < h.ids[j]
}

// swap exchanges two heap slots, keeping the position index current.
func (h *shardHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.times[i], h.times[j] = h.times[j], h.times[i]
	h.pos[h.ids[i]] = i
	h.pos[h.ids[j]] = j
}

// up restores the heap property from slot i towards the root.
func (h *shardHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down restores the heap property from slot i towards the leaves.
func (h *shardHeap) down(i int) {
	n := len(h.ids)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h.swap(i, least)
		i = least
	}
}

// update re-keys shard id to next-event time t; ok=false removes the
// shard (no pending events). Inserting, moving and removing are all the
// same call, so the federation re-keys a touched shard without caring
// whether it was in the heap before.
func (h *shardHeap) update(id int, t float64, ok bool) {
	i := h.pos[id]
	if !ok {
		if i < 0 {
			return
		}
		last := len(h.ids) - 1
		h.swap(i, last)
		h.ids = h.ids[:last]
		h.times = h.times[:last]
		h.pos[id] = -1
		if i < last {
			h.down(i)
			h.up(i)
		}
		return
	}
	if i < 0 {
		h.ids = append(h.ids, id)
		h.times = append(h.times, t)
		i = len(h.ids) - 1
		h.pos[id] = i
		h.up(i)
		return
	}
	h.times[i] = t
	h.down(i)
	h.up(i)
}

// min returns the shard owning the earliest pending event.
func (h *shardHeap) min() (id int, t float64, ok bool) {
	if len(h.ids) == 0 {
		return 0, 0, false
	}
	return h.ids[0], h.times[0], true
}

// size reports how many shards currently have pending events.
func (h *shardHeap) size() int { return len(h.ids) }

// The arrival heap (Federation.pending) is a binary min-heap of arena
// indices by (time, sequence), read through the arena.

// arrivalOrder compares arrivals i and j by (time, sequence): their
// firing order.
func (f *Federation) arrivalOrder(i, j int32) int {
	a, b := f.arrival(i), f.arrival(j)
	if a.t != b.t {
		return cmp.Compare(a.t, b.t)
	}
	return cmp.Compare(a.seq, b.seq)
}

// pushArrival adds arrival i to the arrival heap.
func (f *Federation) pushArrival(i int32) {
	h := append(f.pending, i)
	for k := len(h) - 1; k > 0; {
		parent := (k - 1) / 2
		if f.arrivalOrder(h[k], h[parent]) >= 0 {
			break
		}
		h[k], h[parent] = h[parent], h[k]
		k = parent
	}
	f.pending = h
}

// popArrival removes the earliest arrival from the arrival heap and
// returns its arena index.
func (f *Federation) popArrival() int32 {
	h := f.pending
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for k := 0; ; {
		least := 2*k + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && f.arrivalOrder(h[right], h[least]) < 0 {
			least = right
		}
		if f.arrivalOrder(h[least], h[k]) >= 0 {
			break
		}
		h[k], h[least] = h[least], h[k]
		k = least
	}
	f.pending = h
	return top
}
