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
// A run carries its bit-frequency table, so a split counts only its
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
	var freq bitFreq
	freq.count(sets, all)
	return splitRun(sets, maxP, nil, bitvec.Vector{}, bitvec.Vector{}, all, &freq)
}

// forkRun is the run size, in multiples of maxP, above which splitRun
// splits the one-side of a run on a goroutine of its own. Only runs that
// still hold more than forkRun partitions' worth of members fork, so the
// goroutines number a small fraction of the partitions, and a database
// of at most forkRun partitions is split on the caller's goroutine.
const forkRun = 16

// splitRun appends the partitions of one run — its mask, the bits used
// above it, its members and their table freq — to out: the one-side's
// subtree, then the zero-side's. That is the order of a depth-first walk
// whatever runs concurrently, so the output does not depend on
// scheduling. The zero side compacts in place within members and the one
// side moves to a fresh slice, so concurrent subtrees share no memory.
func splitRun(sets []bitvec.Vector, maxP int, out []partitionSpec, mask, used bitvec.Vector, members []int32, freq *bitFreq) []partitionSpec {
	pivot := -1
	if len(members) > maxP || mask.IsZero() {
		pivot = freq.pivot(int32(len(members)), used)
	}
	if pivot < 0 {
		// Small enough with a mask, or all 192 bits consumed: accept.
		return append(out, partitionSpec{mask: mask, members: members, freq: *freq})
	}
	used.Set(pivot)

	// Stable split: the zero side compacts in place, the one side — whose
	// size the table already knows — moves out.
	p0, p1 := members[:0], make([]int32, 0, freq[pivot])
	for _, idx := range members {
		if sets[idx].Test(pivot) {
			p1 = append(p1, idx)
		} else {
			p0 = append(p0, idx)
		}
	}
	f0, f1 := freq.split(sets, p0, p1)
	one := mask
	one.Set(pivot)
	switch {
	case len(p1) == 0:
		return splitRun(sets, maxP, out, mask, used, p0, &f0)
	case len(p0) == 0:
		return splitRun(sets, maxP, out, one, used, p1, &f1)
	case len(members) <= forkRun*maxP:
		out = splitRun(sets, maxP, out, one, used, p1, &f1)
		return splitRun(sets, maxP, out, mask, used, p0, &f0)
	}
	var ones []partitionSpec
	done := make(chan struct{})
	go func() {
		defer close(done)
		ones = splitRun(sets, maxP, nil, one, used, p1, &f1)
	}()
	zeros := splitRun(sets, maxP, nil, mask, used, p0, &f0)
	<-done
	return append(append(out, ones...), zeros...)
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

// sortMembersLexicographically orders members in the lexicographic bit
// order of their signatures, so that consecutive sets share long common
// prefixes — the paper's row order, which Algorithm 4's block pre-filter
// relies on. The engine's rows are ordered by clusterer, which sorts its
// leaves this way.
func sortMembersLexicographically(sets []bitvec.Vector, members []int32) {
	slices.SortFunc(members, func(a, b int32) int { return bitvec.Compare(sets[a], sets[b]) })
}

// clusterer continues Algorithm 1 inside a partition for the bit-sliced
// kernel. A group's gate is the intersection of its 64 members, and
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
// laid out in (clusterer.order). Partitions are independent, so workers
// take them off a shared counter and the result does not depend on
// scheduling.
func orderMembers(sets []bitvec.Vector, specs []partitionSpec) {
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
				c.order(specs[i].members, &specs[i].freq)
			}
		}()
	}
	wg.Wait()
}
