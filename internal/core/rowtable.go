package core

import "tagmatch/internal/bitvec"

// rowTable maps a signature to its row in one layout: a flat
// open-addressing table of row+1 (0 marks an empty slot), probed linearly
// and keyed by the row's own signature in the index's sets, so it holds no
// pointers for the GC to scan. A signature owns one row for the life of a
// layout — an emptied row stays mapped, and a re-add refills it — so the
// table is filled once per full build and shared by every generation on
// that layout. The build does not hash its rows: listDatabase fills the
// table as it lists the database, keyed by list index, and the build
// rekeys it to the rows the sets landed in.
type rowTable []uint32

// rowTableSlots is the size of a table with room for reach rows at most
// half full.
func rowTableSlots(reach int) int {
	n := 16
	for n < 2*reach {
		n <<= 1
	}
	return n
}

// fillRowTable returns a table with room for reach rows, mapping every
// row of sets.
func fillRowTable(sets []bitvec.Vector, reach int) rowTable {
	t := make(rowTable, rowTableSlots(reach))
	for r := range sets {
		t.insert(sets, uint32(r))
	}
	return t
}

// rekey rewrites every mapping r to to[r], in place: a table keyed by
// positions in one list becomes keyed by positions in another holding the
// same signatures. Each signature keeps its slot, so probing is unchanged.
func (t rowTable) rekey(to []uint32) {
	for i, v := range t {
		if v != 0 {
			t[i] = to[v-1] + 1
		}
	}
}

// find returns the slot holding sig's row, or the empty slot where it
// would go.
func (t rowTable) find(sets []bitvec.Vector, sig bitvec.Vector) int {
	mask := len(t) - 1
	for i := int(sigHash(sig)) & mask; ; i = (i + 1) & mask {
		if v := t[i]; v == 0 || sets[v-1] == sig {
			return i
		}
	}
}

// lookup returns the row t maps sig to.
func (t rowTable) lookup(sets []bitvec.Vector, sig bitvec.Vector) (uint32, bool) {
	if len(t) == 0 {
		return 0, false
	}
	v := t[t.find(sets, sig)]
	return v - 1, v != 0
}

// insert maps sets[r] to row r.
func (t rowTable) insert(sets []bitvec.Vector, r uint32) {
	t[t.find(sets, sets[r])] = r + 1
}

// sigHash mixes a signature's three words into a table hash.
func sigHash(sig bitvec.Vector) uint64 {
	var h uint64
	for _, w := range sig {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// row returns row r's entries, its slice of the key CSR. It aliases the
// index; a caller that changes them copies first.
func (idx *index) row(r uint32) entryList {
	lo, hi := idx.keyOff[r], idx.keyOff[r+1]
	l := entryList{keys: idx.keys[lo:hi]}
	if idx.keyTags != nil {
		l.tags = idx.keyTags[lo:hi]
	}
	return l
}

// liveRow returns sig's row and its entries, or -1 when the index has no
// row for it. An emptied row is still sig's row: a re-add refills it.
func (idx *index) liveRow(sig bitvec.Vector) (int32, entryList) {
	r, ok := idx.rows.lookup(idx.sets, sig)
	if !ok {
		return -1, entryList{}
	}
	return int32(r), idx.row(r)
}
