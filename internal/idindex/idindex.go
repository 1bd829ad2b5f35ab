// Package idindex maps string ids to indices into an arena their owner
// keeps. The table stores no strings and no pointers: each slot is one
// uint64 holding 32 bits of the id's hash above the arena index + 1
// (zero marks an empty slot), so the garbage collector never scans it
// and growing it moves words, not keys. The owner reads an id back out
// of its arena through a key function, which runs only when a slot's
// hash bits match the id being looked for.
//
// Collisions resolve by linear probing from the home slot that the
// stored hash bits name, so growth and removal never hash or read an
// id. Removal shifts the rest of the probe chain back (there are no
// tombstones), so a table that churns through ids stays as short to
// probe as a fresh one.
//
// Hashes are seeded once per process (ids may come from clients), so
// slot order, and with it the order Each visits, differs from run to
// run: nothing a caller prints may depend on it.
package idindex

import "hash/maphash"

// seed keys every table of the process.
var seed = maphash.MakeSeed()

const (
	minSlots = 8
	idxBits  = 32
	idxMask  = 1<<idxBits - 1
)

// Index is a string id → arena index table. The zero value is an empty
// table ready for use. An Index is not safe for concurrent use.
type Index struct {
	// slots is empty or a power of two long; an occupied slot is
	// tag<<32 | idx+1, where tag is the high 32 bits of the id's hash.
	slots []uint64
	n     int
}

// Slot is where Find would place an absent id; Fill stores the id's
// arena index there. A Slot is valid until the next change to the
// table.
type Slot struct {
	pos int
	tag uint64 // the id's hash bits, shifted into place
}

func tagOf(id string) uint64 { return maphash.String(seed, id) >> idxBits << idxBits }

// home is the first slot a tag probes in a table of mask+1 slots.
func home(tag uint64, mask int) int { return int(tag>>idxBits) & mask }

// Len reports how many ids the table holds.
func (x *Index) Len() int { return x.n }

// Find looks id up. When it is present Find reports its arena index and
// true; otherwise it reports the slot where id would go, after growing
// the table if one more id would overfill it, so the matching Fill
// never allocates. Between Find and Fill the caller may reject the id
// or fail without undoing anything, as long as it leaves the table
// alone.
func (x *Index) Find(id string, key func(int32) string) (int32, Slot, bool) {
	tag := tagOf(id)
	if idx, pos, ok := x.probe(id, tag, key); ok {
		return idx, Slot{}, true
	} else if !overfull(x.n+1, len(x.slots)) {
		return 0, Slot{pos: pos, tag: tag}, false
	}
	x.resize(max(minSlots, 2*len(x.slots)))
	return 0, Slot{pos: x.empty(tag), tag: tag}, false
}

// Fill stores arena index idx (0 ≤ idx < 2³²−1) in the slot a Find of
// an absent id reported.
func (x *Index) Fill(s Slot, idx int32) {
	if x.slots[s.pos] != 0 || idx < 0 {
		panic("idindex: Fill of an occupied slot or a negative index")
	}
	x.slots[s.pos] = s.tag | (uint64(idx) + 1)
	x.n++
}

// Lookup reports id's arena index and whether id is present.
func (x *Index) Lookup(id string, key func(int32) string) (int32, bool) {
	idx, _, ok := x.probe(id, tagOf(id), key)
	return idx, ok
}

// probe walks id's probe chain. It reports id's arena index when
// present, else the first empty slot of the chain (0 in an empty
// table).
func (x *Index) probe(id string, tag uint64, key func(int32) string) (int32, int, bool) {
	if len(x.slots) == 0 {
		return 0, 0, false
	}
	mask := len(x.slots) - 1
	for i := home(tag, mask); ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return 0, i, false
		}
		if s&^idxMask == tag {
			if idx := int32(s&idxMask - 1); key(idx) == id {
				return idx, i, true
			}
		}
	}
}

// Remove drops id, which must be present at arena index idx. The slot
// is found by its index bits, so no id is read, and the entries after
// it in the probe chain shift back into the hole.
func (x *Index) Remove(id string, idx int32) {
	want := tagOf(id) | (uint64(idx) + 1)
	mask := len(x.slots) - 1
	i := -1
	if len(x.slots) > 0 {
		for j := home(want, mask); x.slots[j] != 0; j = (j + 1) & mask {
			if x.slots[j] == want {
				i = j
				break
			}
		}
	}
	if i < 0 {
		panic("idindex: Remove of an absent id")
	}
	// Each later entry of the chain moves into the hole unless its home
	// lies cyclically after the hole, where probing would not reach it.
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		if s := x.slots[j]; (j-home(s, mask))&mask >= (j-i)&mask {
			x.slots[i] = s
			i = j
		}
	}
	x.slots[i] = 0
	x.n--
}

// Reserve makes room for n more ids, so the next n Finds of absent ids
// allocate nothing.
func (x *Index) Reserve(n int) {
	if !overfull(x.n+n, len(x.slots)) {
		return
	}
	size := max(minSlots, len(x.slots))
	for overfull(x.n+n, size) {
		size *= 2
	}
	x.resize(size)
}

// Reset empties the table and keeps its slots for reuse.
func (x *Index) Reset() {
	clear(x.slots)
	x.n = 0
}

// Each calls fn with every present arena index, in slot order.
func (x *Index) Each(fn func(int32)) {
	for _, s := range x.slots {
		if s != 0 {
			fn(int32(s&idxMask - 1))
		}
	}
}

// overfull reports whether n ids exceed the load limit, 3/4, of a
// table of size slots.
func overfull(n, size int) bool { return 4*n > 3*size }

// resize moves every entry into a table of size slots, each from its
// home slot.
func (x *Index) resize(size int) {
	old := x.slots
	x.slots = make([]uint64, size)
	for _, s := range old {
		if s != 0 {
			x.slots[x.empty(s)] = s
		}
	}
}

// empty returns the first empty slot of tag's probe chain.
func (x *Index) empty(tag uint64) int {
	mask := len(x.slots) - 1
	i := home(tag, mask)
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}
