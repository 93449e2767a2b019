package core

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tagmatch/internal/bitvec"
)

// partitionSpec is the output of the balanced partitioner: a mask, the
// indices (into the caller's set slice) of the partition members, and the
// members' bit-frequency table, which the in-partition clusterer starts
// from.
type partitionSpec struct {
	mask    bitvec.Vector
	members []int32
	freq    bitFreq
}

// bitFreq counts, per bit position, how many sets of a run carry the bit.
type bitFreq [bitvec.W]int32

// count adds the member sets' one-bits to f.
func (f *bitFreq) count(sets []bitvec.Vector, members []int32) {
	for _, idx := range members {
		v := sets[idx]
		for b := 0; b < bitvec.Blocks; b++ {
			for blk := v[b]; blk != 0; blk &= blk - 1 {
				// Position 0 is the MSB of block 0.
				f[b*64+63-bits.TrailingZeros64(blk)]++
			}
		}
	}
}

// split returns the tables of the two halves a run with table f was cut
// into: only the smaller half is counted, the other is f minus it.
func (f *bitFreq) split(sets []bitvec.Vector, a, b []int32) (fa, fb bitFreq) {
	if len(a) > len(b) {
		fb, fa = f.split(sets, b, a)
		return fa, fb
	}
	fa.count(sets, a)
	for p := range fb {
		fb[p] = f[p] - fa[p]
	}
	return fa, fb
}

// pivot returns the bit position not in used whose one-frequency over the
// n sets counted in f is closest to 50%, or -1 when every bit is used.
// Frequencies of exactly 0 or n are deprioritized (they do not split the
// partition) but remain legal: consuming such a bit still makes progress
// because used_bits grows.
func (f *bitFreq) pivot(n int32, used bitvec.Vector) int {
	half := n / 2
	best, bestDist := -1, int32(1<<30)
	fallback := -1
	for p := 0; p < bitvec.W; p++ {
		if used.Test(p) {
			continue
		}
		c := f[p]
		if c == 0 || c == n {
			if fallback < 0 {
				fallback = p
			}
			continue
		}
		if d := max(c-half, half-c); d < bestDist {
			best, bestDist = p, d
		}
	}
	if best >= 0 {
		return best
	}
	return fallback
}

// balancedPartition implements Algorithm 1 of the paper: recursively split
// the database on the unused bit whose one-frequency is closest to 50%
// until every partition has at most maxP members and a non-empty mask.
// A work item carries its bit-frequency table, so a split counts only its
// smaller child and derives the other by subtraction instead of recounting
// every member at every level.
//
// Splitting always consumes the pivot bit, so the recursion terminates
// even on pathological inputs; if every bit has been used and a partition
// is still oversized or mask-less (possible only with near-duplicate
// signatures), the partition is accepted as is.
func balancedPartition(sets []bitvec.Vector, maxP int) []partitionSpec {
	if len(sets) == 0 {
		return nil
	}
	maxP = max(maxP, 1)
	all := make([]int32, len(sets))
	for i := range all {
		all[i] = int32(i)
	}

	type work struct {
		mask    bitvec.Vector
		used    bitvec.Vector
		members []int32
		freq    bitFreq
	}
	root := work{members: all}
	root.freq.count(sets, all)
	queue := []work{root}
	var out []partitionSpec

	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]

		pivot := -1
		if len(w.members) > maxP || w.mask.IsZero() {
			pivot = w.freq.pivot(int32(len(w.members)), w.used)
		}
		if pivot < 0 {
			// Small enough with a mask, or all 192 bits consumed: accept.
			out = append(out, partitionSpec{mask: w.mask, members: w.members, freq: w.freq})
			continue
		}
		w.used.Set(pivot)

		// Stable split: the zero side compacts in place, the one side —
		// whose size the table already knows — moves out.
		p0, p1 := w.members[:0], make([]int32, 0, w.freq[pivot])
		for _, idx := range w.members {
			if sets[idx].Test(pivot) {
				p1 = append(p1, idx)
			} else {
				p0 = append(p0, idx)
			}
		}
		f0, f1 := w.freq.split(sets, p0, p1)
		if len(p0) > 0 {
			queue = append(queue, work{mask: w.mask, used: w.used, members: p0, freq: f0})
		}
		if len(p1) > 0 {
			m := w.mask
			m.Set(pivot)
			queue = append(queue, work{mask: m, used: w.used, members: p1, freq: f1})
		}
	}
	return out
}

// firstFitPartition is the naive alternative used by the partitioning
// ablation: sort all sets lexicographically and cut them into runs of at
// most maxP, with each run's mask being the bitwise intersection of its
// members. Unlike Algorithm 1 the masks are whatever the data happens to
// share — frequently empty — so the partition table prunes poorly.
func firstFitPartition(sets []bitvec.Vector, maxP int) []partitionSpec {
	if len(sets) == 0 {
		return nil
	}
	if maxP < 1 {
		maxP = 1
	}
	order := make([]int32, len(sets))
	for i := range order {
		order[i] = int32(i)
	}
	sortMembersLexicographically(sets, order)
	var out []partitionSpec
	for off := 0; off < len(order); off += maxP {
		end := off + maxP
		if end > len(order) {
			end = len(order)
		}
		members := order[off:end]
		mask := sets[members[0]]
		for _, m := range members[1:] {
			mask = mask.And(sets[m])
		}
		spec := partitionSpec{mask: mask, members: members}
		spec.freq.count(sets, members)
		out = append(out, spec)
	}
	return out
}

// sortMembersLexicographically orders a partition's members in the
// lexicographic bit order of their signatures so that consecutive sets —
// and therefore the sets of one GPU thread block — share long common
// prefixes, which is what makes the Algorithm 4 pre-filter of the scalar
// kernel effective (and correct: it reads only a block's first and last
// row). The bit-sliced kernel's rows are ordered by clusterer instead.
func sortMembersLexicographically(sets []bitvec.Vector, members []int32) {
	slices.SortFunc(members, func(a, b int32) int { return bitvec.Compare(sets[a], sets[b]) })
}

// clusterer continues Algorithm 1 inside a partition for the bit-sliced
// kernel. A sliced group's gate is the intersection of its 64 members, and
// 64 lexicographic neighbours share little beyond the partition mask the
// query already passed; splitting a run on a bit and laying the one-side
// out as whole 64-lane groups puts that bit into every one of those gates,
// so a query lacking it skips them in one three-word test each.
type clusterer struct {
	sets    []bitvec.Vector
	weight  *[bitvec.W]float32 // see clusterWeights
	scratch []int32
}

// clusterWeights returns the rarity weight of every bit as a pivot:
// (1 - f_p)^32, f_p the share of the total sets being indexed that carry
// bit p (global is their table). The bits nearest half a run are its most
// frequent ones, which queries mostly carry too and a gate gains little
// from; the weight has to be steep to turn the choice towards bits few
// queries carry. The exponent is where the measured scan count stops
// falling (EXPERIMENTS.md).
func clusterWeights(global *bitFreq, total int) *[bitvec.W]float32 {
	var weight [bitvec.W]float32
	for p := range weight {
		w := 1 - float32(global[p])/float32(total)
		for i := 0; i < 5; i++ {
			w *= w
		}
		weight[p] = w
	}
	return &weight
}

// pick returns the pivot bit for a run of n > 64 members with table f and
// the size k of its one-side in whole groups: the bit maximizing
// weight × min(k, n-k), one-side closest to half the run, rarity-weighted.
// It returns -1 when no bit has 64 carriers without being universal. Bits
// used higher up need no tracking: on their one-side they are universal,
// on their zero-side fewer than 64 carriers are left.
func (c *clusterer) pick(f *bitFreq, n int) (pivot, k int) {
	pivot = -1
	var best float32
	for p, cnt := range f {
		kp := int(cnt) &^ 63
		if kp == 0 || int(cnt) == n {
			continue
		}
		if s := c.weight[p] * float32(min(kp, n-kp)); pivot < 0 || s > best {
			pivot, k, best = p, kp, s
		}
	}
	return pivot, k
}

// order rearranges members (a run starting on a group boundary, with bit
// table f) in place: while the run exceeds one group, the pivot's one-side,
// rounded down to whole groups, moves to the front — every group there
// carries the pivot — the ≤ 63 left over spill into the zero-side, the
// one-side recurses and the loop continues on the zero-side. Leaves of at
// most 64 members, and runs no bit splits, are sorted lexicographically.
func (c *clusterer) order(members []int32, f *bitFreq) {
	for len(members) > 64 {
		pivot, k := c.pick(f, len(members))
		if pivot < 0 {
			break
		}
		// Stable split through the scratch buffer: the first k carriers
		// of the pivot to the front, everything else behind them.
		c.scratch = append(c.scratch[:0], members...)
		one, zero := members[:0:k], members[k:k]
		for _, m := range c.scratch {
			if len(one) < k && c.sets[m].Test(pivot) {
				one = append(one, m)
			} else {
				zero = append(zero, m)
			}
		}
		f1, f0 := f.split(c.sets, one, zero)
		c.order(one, &f1)
		members, f = zero, &f0
	}
	sortMembersLexicographically(c.sets, members)
}

// orderMembers puts every partition's members into the order its rows are
// laid out in: clustered for the bit-sliced kernel, lexicographic for the
// scalar one, whose block pre-filter (CommonPrefixLen of a block's first
// and last row) is only correct on sorted rows. Partitions are independent,
// so workers take them off a shared counter and the result does not depend
// on scheduling.
func orderMembers(sets []bitvec.Vector, specs []partitionSpec, clustered bool) {
	var global bitFreq
	total := 0
	for i := range specs {
		total += len(specs[i].members)
		for p, cnt := range specs[i].freq {
			global[p] += cnt
		}
	}
	weight := clusterWeights(&global, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(specs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := clusterer{sets: sets, weight: weight}
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				if clustered {
					c.order(specs[i].members, &specs[i].freq)
				} else {
					sortMembersLexicographically(sets, specs[i].members)
				}
			}
		}()
	}
	wg.Wait()
}
