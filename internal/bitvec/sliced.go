package bitvec

import (
	"math/bits"
	"slices"
)

// Bit-sliced (column-transposed) storage for batched subset tests.
//
// A LaneBlock holds up to 64 vectors ("lanes") transposed: one uint64
// word per bit position p, whose bit L is set iff lane L's vector has
// bit p set. The batched subset test rests on the identity
//
//	m ⊆ q  ⇔  m &^ q == 0  ⇔  no bit of m sits at a zero bit of q,
//
// so OR-ing the column words at q's ZERO positions accumulates, in one
// word, the set of lanes that miss; the complement (within the
// populated lanes) is the set of lanes whose vector is a subset of q —
// 64 candidates tested per column word touched. Columns that are zero
// across all lanes can never contribute a miss, so a per-block
// used-position mask lets the scan visit only columns that are both
// populated and at a zero bit of q (the "zero-bit elimination" that
// makes the transposed scan beat 64 separate three-word tests).
type LaneBlock struct {
	// Cols[p] is the column word for bit position p (paper numbering:
	// position 0 is the MSB of block 0): bit L set iff lane L has bit p.
	Cols [W]uint64
	// Used[b] marks, in Vector's in-block bit convention, the positions
	// of block b with a nonzero column, so Used[b] &^ q[b] selects
	// exactly the columns that can veto a lane for query q.
	Used [Blocks]uint64
	// Valid marks the populated lanes.
	Valid uint64
}

// SetLane installs v as the given lane (0..63), overwriting nothing:
// lanes must be assigned at most once (rebuild the block to replace).
func (lb *LaneBlock) SetLane(lane int, v Vector) {
	m := uint64(1) << uint(lane)
	lb.Valid |= m
	for b := 0; b < Blocks; b++ {
		blk := v[b]
		for blk != 0 {
			w := bits.TrailingZeros64(blk)
			lb.Cols[b*64+63-w] |= m
			lb.Used[b] |= 1 << uint(w)
			blk &= blk - 1
		}
	}
}

// SubsetLanes returns the set of populated lanes whose vector is a
// subset of q, as a lane bitmask. It touches one column word per used
// bit position at which q is zero, clearing hit candidates as columns
// veto them. The per-column zero check matters: for a selective query
// most groups end with no surviving lane, and the survivor set usually
// empties within the first few columns — long before the ~100 relevant
// columns of a saturated group are exhausted.
func (lb *LaneBlock) SubsetLanes(q Vector) uint64 {
	hits, _ := lb.SubsetLanesCols(q)
	return hits
}

// SubsetLanesCols is SubsetLanes that additionally reports how many
// column words the scan touched before returning — the work metric the
// subset-match kernel's columns-walked telemetry accumulates.
func (lb *LaneBlock) SubsetLanesCols(q Vector) (uint64, int) {
	hits := lb.Valid
	cols := 0
	for b := 0; b < Blocks; b++ {
		rel := lb.Used[b] &^ q[b] // used columns at q's zero positions
		base := b * 64
		for rel != 0 {
			w := bits.TrailingZeros64(rel)
			cols++
			hits &^= lb.Cols[base+63-w]
			if hits == 0 {
				return 0, cols
			}
			rel &= rel - 1
		}
	}
	return hits, cols
}

// Lanes returns the number of populated lanes.
func (lb *LaneBlock) Lanes() int {
	return bits.OnesCount64(lb.Valid)
}

// SlicedGroup is the device-resident unit of the bit-sliced subset-match
// kernel: a LaneBlock of up to 64 column-transposed tag sets together
// with the group gate — the bitwise intersection of the member
// signatures. The gate is contained in every member, so if any member
// is a subset of a query q then so is the gate; contrapositively, a
// query that fails gate ⊆ q cannot contain any of the 64 members, and
// one three-word test discards the whole group — the role Algorithm 4's
// common-prefix block test plays for the scalar kernel. How selective
// the gate is depends on which 64 sets share a group: lexicographic
// neighbours share leading bits but little else, so the engine clusters
// a partition's sets by shared one-bits before transposing them
// (internal/core/partition.go: clusterer), which puts each cluster's
// pivot bits into the gates of its groups.
type SlicedGroup struct {
	LaneBlock
	Gate Vector
}

// BuildSlicedGroups transposes sets into ⌈n/64⌉ SlicedGroups: set i
// becomes lane i%64 of group i/64, so (group, lane) recovers the index
// into the original slice. Callers order sets beforehand so that the 64
// sharing a group have many one-bits in common, which is what makes the
// gates selective.
func BuildSlicedGroups(sets []Vector) []SlicedGroup {
	return AppendSlicedGroups(nil, sets)
}

// AppendSlicedGroups appends the groups BuildSlicedGroups would return
// for sets to dst, transposing in place rather than through a temporary.
// Each block of a group is one 64×64 bit matrix, lane L's word its row
// 63-L, transposed word-parallel into the group's 64 column words: the
// same group SetLane would build one bit at a time.
func AppendSlicedGroups(dst []SlicedGroup, sets []Vector) []SlicedGroup {
	n := len(dst)
	dst = slices.Grow(dst, (len(sets)+63)/64)[:n+(len(sets)+63)/64]
	groups := dst[n:]
	clear(groups)
	for g := range groups {
		grp := &groups[g]
		lanes := sets[g*64 : min(g*64+64, len(sets))]
		grp.Valid = ^uint64(0) >> (64 - len(lanes))
		grp.Gate = Vector{^uint64(0), ^uint64(0), ^uint64(0)}
		for _, v := range lanes {
			grp.Gate = grp.Gate.And(v)
		}
		for b := 0; b < Blocks; b++ {
			cols := (*[64]uint64)(grp.Cols[b*64 : b*64+64])
			var used uint64
			for lane, v := range lanes {
				cols[63-lane] = v[b]
				used |= v[b]
			}
			grp.Used[b] = used
			if used != 0 {
				transpose64(cols)
			}
		}
	}
	return dst
}

// transpose64 transposes a 64×64 bit matrix in place, row i being a[i]
// and column j its bit 63-j (the MSB is column 0): it swaps the
// off-diagonal 32×32 blocks, then within each quadrant the 16×16 blocks,
// down to single bits — six passes of 32 word pairs each (Hacker's
// Delight, §7-3). The passes are spelled out so each shifts by a
// constant.
func transpose64(a *[64]uint64) {
	swapBlocks(a, 32, 0x00000000ffffffff)
	swapBlocks(a, 16, 0x0000ffff0000ffff)
	swapBlocks(a, 8, 0x00ff00ff00ff00ff)
	swapBlocks(a, 4, 0x0f0f0f0f0f0f0f0f)
	swapBlocks(a, 2, 0x3333333333333333)
	swapBlocks(a, 1, 0x5555555555555555)
}

// swapBlocks is one pass of transpose64: in every pair of rows k and k+j
// with bit j of k clear, it swaps the bits m selects in row k with those
// m<<j selects in row k+j.
func swapBlocks(a *[64]uint64, j int, m uint64) {
	for base := 0; base < 64; base += 2 * j {
		lo := a[base : base+j]
		hi := a[base+j:][:len(lo)]
		for k := range lo {
			t := (lo[k] ^ hi[k]>>j) & m
			lo[k] ^= t
			hi[k] ^= t << j
		}
	}
}
