package idindex

import "testing"

// pool returns every id of one to three letters over "abcd", grouped by
// home slot in a minimum-size table. Fuzz inputs name an id by its home
// slot, so a chain that wraps round the table end or collides in the
// middle is spelled the same way under every hash seed.
func pool() (ids []string, byHome [minSlots][]string) {
	const alphabet = "abcd"
	var gen func(prefix string)
	gen = func(prefix string) {
		if prefix != "" {
			ids = append(ids, prefix)
		}
		if len(prefix) == 3 {
			return
		}
		for _, c := range alphabet {
			gen(prefix + string(c))
		}
	}
	gen("")
	for _, id := range ids {
		h := home(tagOf(id), minSlots-1)
		byHome[h] = append(byHome[h], id)
	}
	return ids, byHome
}

// pick names an id by one byte: the low three bits are a home slot in a
// minimum-size table, the rest choose among the ids that home there
// (the next home that has any, should that one have none).
func pick(byHome *[minSlots][]string, b byte) string {
	for h := int(b & 7); ; h = (h + 1) & 7 {
		if g := byHome[h]; len(g) > 0 {
			return g[int(b>>3)%len(g)]
		}
	}
}

// FuzzIndexMatchesMap runs an operation stream against an Index and a
// builtin map side by side. Each operation is two bytes, an opcode and
// an id (see pick); the arena hands out freed indices again, as the
// scheduler's record arena does. After every operation the index must
// agree with the map on Len, on every id's Lookup and on the set Each
// visits.
func FuzzIndexMatchesMap(f *testing.F) {
	// An opcode is the low three bits of its byte. Those below name the
	// rarer operations; every other value inserts (Find, then Fill when
	// absent), so tables fill up and grow.
	const (
		opInsert   = 0
		opFindOnly = 3 // Find with no Fill
		opRemove   = 4
		opReserve  = 6 // Reserve(id byte % 16)
		opReset    = 7
	)
	ins := func(b byte) []byte { return []byte{opInsert, b} }
	rm := func(b byte) []byte { return []byte{opRemove, b} }
	cat := func(ops ...[]byte) []byte {
		var out []byte
		for _, op := range ops {
			out = append(out, op...)
		}
		return out
	}
	// Home 7 is the last slot of a minimum table: 7|k<<3 is the k-th id
	// homed there, 0|k<<3 the k-th homed at slot 0.
	f.Add(cat(ins(7), ins(7|1<<3), ins(7|2<<3), ins(0), rm(7), rm(7|2<<3), rm(0)))
	f.Add(cat(ins(6), ins(7), ins(6|1<<3), ins(7|1<<3), ins(0|1<<3), rm(6), rm(7), ins(6|2<<3), rm(0|1<<3)))
	f.Add(cat(ins(1), ins(1|1<<3), ins(1|2<<3), ins(2), rm(1|1<<3), []byte{opFindOnly, 1 | 1<<3}, ins(1|1<<3)))
	f.Add(cat(ins(0), ins(1), ins(2), ins(3), ins(4), ins(5), ins(6), ins(7), rm(3), ins(3|1<<3)))
	f.Add(cat([]byte{opReserve, 13}, ins(7), ins(7|1<<3), ins(7|2<<3), ins(3), rm(7|1<<3), []byte{opReset, 0}, ins(5), ins(5|1<<3)))
	long := make([]byte, 600)
	for i, s := 0, uint32(1); i < len(long); i++ {
		s = s*1664525 + 1013904223
		long[i] = byte(s >> 24)
	}
	f.Add(long)

	ids, byHome := pool()
	f.Fuzz(func(t *testing.T, ops []byte) {
		var x Index
		var arena []string // arena index -> id ("" when free)
		var freed []int32
		model := map[string]int32{}
		key := func(i int32) string { return arena[i] }
		for n := 0; n+1 < len(ops); n += 2 {
			op, id := ops[n]&7, pick(&byHome, ops[n+1])
			switch op {
			case opFindOnly:
				idx, _, ok := x.Find(id, key)
				if want, present := model[id]; ok != present || ok && idx != want {
					t.Fatalf("op %d: Find(%q) = %d, %v; want %d, %v", n/2, id, idx, ok, want, present)
				}
			case opRemove:
				if idx, ok := model[id]; ok {
					x.Remove(id, idx)
					delete(model, id)
					arena[idx] = ""
					freed = append(freed, idx)
				}
			case opReserve:
				x.Reserve(int(ops[n+1] % 16))
			case opReset:
				x.Reset()
				clear(model)
				arena, freed = arena[:0], freed[:0]
			default:
				idx, slot, ok := x.Find(id, key)
				if want, present := model[id]; ok != present || ok && idx != want {
					t.Fatalf("op %d: Find(%q) = %d, %v; want %d, %v", n/2, id, idx, ok, want, present)
				}
				if ok {
					break
				}
				if k := len(freed); k > 0 {
					idx, freed = freed[k-1], freed[:k-1]
				} else {
					idx = int32(len(arena))
					arena = append(arena, "")
				}
				arena[idx] = id
				size := len(x.slots)
				x.Fill(slot, idx)
				if len(x.slots) != size {
					t.Fatalf("op %d: Fill resized the table", n/2)
				}
				model[id] = idx
			}
			check(t, n/2, &x, ids, model, key)
		}
	})
}

// check compares x with model: Len, every id's Lookup, and Each's set.
func check(t *testing.T, op int, x *Index, ids []string, model map[string]int32, key func(int32) string) {
	t.Helper()
	if x.Len() != len(model) {
		t.Fatalf("op %d: Len = %d, want %d", op, x.Len(), len(model))
	}
	for _, id := range ids {
		idx, ok := x.Lookup(id, key)
		if want, present := model[id]; ok != present || ok && idx != want {
			t.Fatalf("op %d: Lookup(%q) = %d, %v; want %d, %v", op, id, idx, ok, want, present)
		}
	}
	seen := map[int32]bool{}
	x.Each(func(idx int32) {
		if seen[idx] {
			t.Fatalf("op %d: Each visits %d twice", op, idx)
		}
		seen[idx] = true
	})
	if len(seen) != len(model) {
		t.Fatalf("op %d: Each visits %d indices, want %d", op, len(seen), len(model))
	}
	for id, idx := range model {
		if !seen[idx] {
			t.Fatalf("op %d: Each skips %q's index %d", op, id, idx)
		}
	}
}

// TestFillAfterReserveAllocatesNothing checks Reserve's promise: n
// inserts after Reserve(n) neither grow the table nor allocate.
func TestFillAfterReserveAllocatesNothing(t *testing.T) {
	ids, _ := pool()
	key := func(i int32) string { return ids[i] }
	var x Index
	x.Reserve(len(ids))
	allocs := testing.AllocsPerRun(1, func() {
		x.Reset()
		for i, id := range ids {
			_, slot, ok := x.Find(id, key)
			if ok {
				t.Fatalf("Find(%q) found an id never filled", id)
			}
			x.Fill(slot, int32(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("%d inserts after Reserve allocate %.0f times", len(ids), allocs)
	}
}
