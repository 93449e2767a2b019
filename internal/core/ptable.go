package core

import (
	"math/bits"
	"slices"

	"tagmatch/internal/bitvec"
)

// partitionTable is the CPU-side index of Algorithm 2: an array of 192
// bins, where bin j holds the ids of all partitions whose mask's leftmost
// one-bit is at position j. Because a mask that is a subset of a query
// must have its leftmost one-bit among the query's one-bits, scanning only
// the bins of the query's one-bits visits every candidate exactly once.
//
// Each bin is stored twice: as the scalar mask/pid list the paper
// describes (one three-word SubsetOf per candidate), and as a bit-sliced
// transposed index (bitvec.LaneBlock groups of 64 masks) that tests 64
// candidates per column word by OR-ing the columns at the query's zero
// bits. The sliced form is the engine's only lookup path; the scalar
// form is the paper's algorithm, kept as the reference the sliced lookup
// is tested against (TestSlicedLookupEquivalence) and timed against
// (RoutingBenchmark), and costs only the original bin storage.
//
// The table is immutable after construction (Consolidate builds a fresh
// one), so lookups need no locking. The bins store masks inline next to
// the partition ids to keep the scan cache-friendly, as the paper's
// "compact data structure" remark prescribes.
type partitionTable struct {
	bins   [bitvec.W][]maskEntry
	sliced [bitvec.W]slicedBin
	n      int
}

type maskEntry struct {
	mask bitvec.Vector
	pid  uint32
}

// slicedBin is one bin's masks in column-transposed groups of 64. Lane
// L of group g corresponds to pids[g*64+L]. Bins are sorted
// lexicographically before grouping, so each group's members share
// their leading mask bits; ands[g] is the intersection of the group's
// masks — if any lane's mask is a subset of q then so is the
// intersection, so one three-word test (ands[g] ⊄ q) discards the
// whole group before any column is touched, and the sort makes that
// intersection as large (and the gate as selective) as possible.
type slicedBin struct {
	groups []bitvec.LaneBlock
	ands   []bitvec.Vector // per-group mask intersection (group gate)
	pids   []uint32
}

// buildPartitionTable indexes the given partitions by leftmost mask bit.
// Partitions with an empty mask (possible only for degenerate databases
// that exhausted all 192 pivot bits) are returned separately; the caller
// must route every query to them.
func buildPartitionTable(parts []partition) (*partitionTable, []uint32) {
	pt := &partitionTable{n: len(parts)}
	var maskless []uint32
	for i := range parts {
		j := parts[i].mask.LeftmostOne()
		if j < 0 {
			maskless = append(maskless, uint32(i))
			continue
		}
		pt.bins[j] = append(pt.bins[j], maskEntry{mask: parts[i].mask, pid: uint32(i)})
	}
	for j := range pt.bins {
		entries := pt.bins[j]
		if len(entries) == 0 {
			continue
		}
		// Lexicographic order clusters masks sharing leading bits into
		// the same group, maximizing each group's intersection gate.
		slices.SortFunc(entries, func(a, b maskEntry) int {
			return bitvec.Compare(a.mask, b.mask)
		})
		sb := &pt.sliced[j]
		sb.groups = make([]bitvec.LaneBlock, (len(entries)+63)/64)
		sb.ands = make([]bitvec.Vector, len(sb.groups))
		sb.pids = make([]uint32, len(entries))
		for g := range sb.ands {
			sb.ands[g] = bitvec.Vector{^uint64(0), ^uint64(0), ^uint64(0)}
		}
		for i, e := range entries {
			sb.groups[i/64].SetLane(i%64, e.mask)
			sb.ands[i/64] = sb.ands[i/64].And(e.mask)
			sb.pids[i] = e.pid
		}
	}
	return pt, maskless
}

// lookup appends to dst the ids of all partitions whose mask is a bitwise
// subset of q, visiting each candidate bin once per one-bit of q
// (Algorithm 2). Each subset check is three 64-bit block operations.
// qOnes must be q's one-bit positions in increasing order (q.Ones),
// computed once by the caller and shared with the sliced variant.
//
// This is the reference scalar scan; the engine routes through
// lookupSliced.
func (pt *partitionTable) lookup(q bitvec.Vector, qOnes []int, dst []uint32) []uint32 {
	for _, j := range qOnes {
		for _, e := range pt.bins[j] {
			if e.mask.SubsetOf(q) {
				dst = append(dst, e.pid)
			}
		}
	}
	return dst
}

// lookupSliced is the bit-sliced lookup: the same bin walk as lookup,
// but each bin is scanned 64 candidates at a time through its
// column-transposed groups. A group whose mask intersection is not a
// subset of q is discarded with that single three-word test; a
// surviving group's scan touches one column word per used mask-bit
// position at which q is zero (m &^ q == 0 ⇔ no column at a zero bit
// of q has the lane set), then emits the surviving lanes' pids from
// the set bits of the hit mask.
func (pt *partitionTable) lookupSliced(q bitvec.Vector, qOnes []int, dst []uint32) []uint32 {
	for _, j := range qOnes {
		sb := &pt.sliced[j]
		for gi := range sb.groups {
			if !bitvec.AndNotIsZero(sb.ands[gi], q) {
				continue // some bit shared by ALL group members is absent from q
			}
			hits := sb.groups[gi].SubsetLanes(q)
			if hits == 0 {
				continue
			}
			base := gi * 64
			for hits != 0 {
				l := bits.TrailingZeros64(hits)
				dst = append(dst, sb.pids[base+l])
				hits &= hits - 1
			}
		}
	}
	return dst
}

// entries returns the total number of indexed masks, for memory
// accounting and tests.
func (pt *partitionTable) entries() int {
	n := 0
	for j := range pt.bins {
		n += len(pt.bins[j])
	}
	return n
}

// slicedBytes returns the memory footprint of the transposed index
// (column words, used masks, lane validity, pid arrays), for the host
// memory accounting alongside entries().
func (pt *partitionTable) slicedBytes() int64 {
	var b int64
	for j := range pt.sliced {
		sb := &pt.sliced[j]
		b += int64(len(sb.groups))*int64((bitvec.W+bitvec.Blocks+1)*8) +
			int64(len(sb.ands))*int64(bitvec.Blocks*8) +
			int64(len(sb.pids))*4
	}
	return b
}
