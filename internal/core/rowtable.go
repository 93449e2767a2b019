package core

import (
	"slices"

	"tagmatch/internal/bitvec"
)

// rowTable maps a signature to its live row in one index generation: a
// flat open-addressing table of row+1 (0 marks an empty slot), probed
// linearly and keyed by the row's own signature in the index's sets, so
// it holds no pointers for the GC to scan. A signature can own several
// rows — a dud left by an incremental fold and the row a later re-add
// appended — and the table keeps the highest, the only one that can hold
// entries: a fold appends a new row for a signature only when its highest
// row is empty, and never writes an older one again.
type rowTable []uint32

// fillRowTable returns a table with room for reach rows at most half full,
// mapping every row of sets.
func fillRowTable(sets []bitvec.Vector, reach int) rowTable {
	n := 16
	for n < 2*reach {
		n <<= 1
	}
	t := make(rowTable, n)
	for r := range sets {
		t.insert(sets, uint32(r))
	}
	return t
}

// withRows returns a copy of t that also maps rows [from, len(sets)),
// refilled into a larger table once they would fill more than half of t.
// t itself is never written: the generation it belongs to keeps serving
// lookups while the next one is built.
func (t rowTable) withRows(sets []bitvec.Vector, from int) rowTable {
	if 2*len(sets) > len(t) {
		return fillRowTable(sets, len(sets)*5/4)
	}
	nt := slices.Clone(t)
	for r := from; r < len(sets); r++ {
		nt.insert(sets, uint32(r))
	}
	return nt
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

// insert maps sets[r] to row r, replacing the earlier row of the same
// signature if there is one.
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

// row returns row r's entries: its patch if an incremental fold changed
// it, else its slice of the key CSR. Both alias the index; a caller that
// changes them copies first.
func (idx *index) row(r uint32) entryList {
	if pe, ok := idx.patched[r]; ok {
		return pe
	}
	lo, hi := idx.keyOff[r], idx.keyOff[r+1]
	l := entryList{keys: idx.keys[lo:hi]}
	if idx.keyTags != nil {
		l.tags = idx.keyTags[lo:hi]
	}
	return l
}

// liveRow returns the row serving sig and its entries, or -1 when no row
// of the index holds any for it.
func (idx *index) liveRow(sig bitvec.Vector) (int32, entryList) {
	r, ok := idx.rows.lookup(idx.sets, sig)
	if !ok {
		return -1, entryList{}
	}
	l := idx.row(r)
	if len(l.keys) == 0 {
		return -1, entryList{}
	}
	return int32(r), l
}
