package core

import (
	"math/bits"
	"slices"

	"tagmatch/internal/bitvec"
)

// partitionSpec is the output of the partitioner: a mask, the indices
// (into the caller's set slice) of the partition members, their
// signatures in the same order, and the members' bit-frequency table,
// which the in-partition clusterer starts from. sets is a window of the
// partitioner's working copy, so a partition's signatures sit together
// whatever order the caller's slice holds them in. The table is held by
// pointer, so the partitioner's lists of specs stay small to grow.
type partitionSpec struct {
	mask    bitvec.Vector
	members []int32
	sets    []bitvec.Vector
	freq    *bitFreq
}

// bitFreq counts, per bit position, how many sets of a run carry the bit.
type bitFreq [bitvec.W]int32

// csaFlush is the number of sets the eight bit-planes of count hold before
// they overflow: 2⁸ − 1.
const csaFlush = 255

// count adds the one-bits of sets to f with a carry-save counter. Each
// word position keeps its running count in eight bit-planes, one bit of
// the count per plane, and a set's word is added to all 64 positions at
// once by a ripple of ANDs and XORs; every csaFlush sets the planes are
// added into f. A word costs a fixed fifteen operations, whatever its
// one-bits, where a per-bit count makes one dependent increment per one.
func (f *bitFreq) count(sets []bitvec.Vector) {
	for len(sets) > 0 {
		n := min(len(sets), csaFlush)
		var pl [bitvec.Blocks][8]uint64
		for i := range sets[:n] {
			v := &sets[i]
			for b := range pl {
				p, c := &pl[b], v[b]
				p[0], c = p[0]^c, p[0]&c
				p[1], c = p[1]^c, p[1]&c
				p[2], c = p[2]^c, p[2]&c
				p[3], c = p[3]^c, p[3]&c
				p[4], c = p[4]^c, p[4]&c
				p[5], c = p[5]^c, p[5]&c
				p[6], c = p[6]^c, p[6]&c
				p[7] ^= c
			}
		}
		for b := range pl {
			for k, w := range pl[b] {
				for ; w != 0; w &= w - 1 {
					// Position 0 is the MSB of block 0.
					f[b*64+63-bits.TrailingZeros64(w)] += 1 << k
				}
			}
		}
		sets = sets[n:]
	}
}

// countAt adds the one-bits of sets[at[i]], for every i, to f: count over
// the members gathered csaFlush at a time.
func (f *bitFreq) countAt(sets []bitvec.Vector, at []int32) {
	var buf [csaFlush]bitvec.Vector
	for len(at) > 0 {
		n := min(len(at), csaFlush)
		for i, m := range at[:n] {
			buf[i] = sets[m]
		}
		f.count(buf[:n])
		at = at[n:]
	}
}

// split returns the tables of the two halves a run with table f was cut
// into: only the smaller half is counted, the other is f minus it.
func (f *bitFreq) split(sets []bitvec.Vector, a, b []int32) (fa, fb bitFreq) {
	if len(a) > len(b) {
		fb, fa = f.split(sets, b, a)
		return fa, fb
	}
	fa.countAt(sets, a)
	fb.sub(f, &fa)
	return fa, fb
}

// sub sets f to a − b.
func (f *bitFreq) sub(a, b *bitFreq) {
	for p := range f {
		f[p] = a[p] - b[p]
	}
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
// It splits a working copy of the signatures in place, each run a
// contiguous window of it with the members' indices beside it, so the
// counting and the split read consecutive memory. A run carries its
// bit-frequency table, so a split counts only its smaller child and
// derives the other by subtraction instead of recounting every member at
// every level.
//
// Splitting always consumes the pivot bit, so the recursion terminates
// even on pathological inputs; if every bit has been used and a partition
// is still oversized or mask-less (possible only with near-duplicate
// signatures), the partition is accepted as is.
func balancedPartition(sets []bitvec.Vector, maxP int) []partitionSpec {
	return splitBalanced(slices.Clone(sets), maxP)
}

// splitBalanced is balancedPartition splitting work itself, which it
// reorders: the specs' windows are windows of work. A full build hands it
// the listing's signatures, which nothing reads in their listed order
// afterwards, and so copies no signature to partition.
func splitBalanced(work []bitvec.Vector, maxP int) []partitionSpec {
	if len(work) == 0 {
		return nil
	}
	ids := make([]int32, len(work))
	for i := range ids {
		ids[i] = int32(i)
	}
	var freq bitFreq
	freq.count(work)
	s := splitter{maxP: max(maxP, 1)}
	s.grow(scratchFor(len(work)) + forkSlack)
	return slices.Concat(s.run(nil, bitvec.Vector{}, bitvec.Vector{}, work, ids, &freq)...)
}

// forkRun is the run size, in multiples of maxP, above which a splitter
// splits the zero-side of a run on a goroutine of its own. Only runs that
// still hold more than forkRun partitions' worth of members fork, so the
// goroutines number a small fraction of the partitions, and a database
// of at most forkRun partitions is split on the caller's goroutine.
const forkRun = 16

// forkSlack is the room, in elements, the first splitter's scratch has
// beyond what the whole run needs, which splitter.fork hands down: halved
// at each fork, it lasts about ten nested forks, and one nested deeper
// grows scratch of its own.
const forkSlack = 1024

// scratchFor is the scratch a run of n needs: its smaller side and the
// spare slot.
func scratchFor(n int) int { return n/2 + 1 }

// splitter is one goroutine's share of Algorithm 1: the scratch its
// splits move the smaller side of a run through, and the slab its
// partitions' tables are kept in.
type splitter struct {
	maxP  int
	sets  []bitvec.Vector
	ids   []int32
	freqs []bitFreq
}

// freqSlab is how many partitions' tables a splitter allocates at once.
const freqSlab = 16

// run appends the partitions of one run — its mask, the bits used above
// it, its members' signatures and indices and their table freq — to out:
// the one-side's subtree, then the zero-side's. That is the order of a
// depth-first walk whatever runs concurrently, so the output does not
// depend on scheduling. A split moves the one side to the front of the
// run and the zero side behind it, so the partitions tile the working
// copy in output order, and concurrent subtrees share no memory. out is
// a list of lists, which balancedPartition joins once: a fork's lists
// follow the one side's by reference, so a partition is not copied at
// every fork above it.
func (s *splitter) run(out [][]partitionSpec, mask, used bitvec.Vector, sets []bitvec.Vector, ids []int32, freq *bitFreq) [][]partitionSpec {
	pivot := -1
	if len(sets) > s.maxP || mask.IsZero() {
		pivot = freq.pivot(int32(len(sets)), used)
	}
	if pivot < 0 {
		// Small enough with a mask, or all 192 bits consumed: accept.
		if len(s.freqs) == cap(s.freqs) {
			s.freqs = make([]bitFreq, 0, freqSlab)
		}
		s.freqs = append(s.freqs, *freq)
		spec := partitionSpec{mask: mask, members: ids, sets: sets, freq: &s.freqs[len(s.freqs)-1]}
		if len(out) == 0 {
			return append(out, []partitionSpec{spec})
		}
		out[len(out)-1] = append(out[len(out)-1], spec)
		return out
	}
	used.Set(pivot)
	k := int(freq[pivot])
	s.partition(sets, ids, pivot, k)
	var f0, f1 bitFreq
	if k <= len(sets)-k {
		f1.count(sets[:k])
		f0.sub(freq, &f1)
	} else {
		f0.count(sets[k:])
		f1.sub(freq, &f0)
	}
	one := mask
	one.Set(pivot)
	switch {
	case k == 0:
		return s.run(out, mask, used, sets, ids, &f0)
	case k == len(sets):
		return s.run(out, one, used, sets, ids, &f1)
	case len(sets) <= forkRun*s.maxP:
		out = s.run(out, one, used, sets[:k], ids[:k], &f1)
		return s.run(out, mask, used, sets[k:], ids[k:], &f0)
	}
	// The zero side splits on a goroutine of its own into a list of its
	// own, which follows the one side's.
	var zeros [][]partitionSpec
	done := make(chan struct{})
	fork, forkFreq := s.fork(k, len(sets)-k), f0
	go func() {
		defer close(done)
		zeros = fork.run(nil, mask, used, sets[k:], ids[k:], &forkFreq)
	}()
	out = s.run(out, one, used, sets[:k], ids[:k], &f1)
	<-done
	return append(out, zeros...)
}

// fork splits s's scratch between s, going on with a run of k, and the
// splitter it returns for a forked run of n: each gets what its run needs
// and half of what is left over, which pays for the forks below it (each
// nesting costs one element). A run's scratch is only used inside its
// split, so the two subtrees share no element of it. When s's scratch
// cannot cover both runs, the fork grows its own.
func (s *splitter) fork(k, n int) splitter {
	f := splitter{maxP: s.maxP}
	if spare := len(s.sets) - scratchFor(k) - scratchFor(n); spare >= 0 {
		cut := scratchFor(k) + spare/2
		f.sets, f.ids = s.sets[cut:], s.ids[cut:]
		s.sets, s.ids = s.sets[:cut], s.ids[:cut]
	}
	return f
}

// partition moves the k carriers of bit pivot to the front of the run and
// the rest behind them, each side in its order, through the scratch,
// which takes the smaller side. Every element is written to both sides'
// next slot and only its own side's cursor advances, so the loop has no
// branch on the bit; the write to the other side lands in a slot not yet
// filled, or in the scratch's one spare slot.
func (s *splitter) partition(sets []bitvec.Vector, ids []int32, pivot, k int) {
	n := len(sets)
	blk, sh := pivot/64, uint(63-pivot%64)
	if k <= n-k {
		// Backwards: the zeros compact towards the back, the ones fill
		// the scratch from its end down to slot 1; slot 0 is the spare.
		s.grow(k + 1)
		w, j := n-1, k
		for i := n - 1; i >= 0; i-- {
			v, id := sets[i], ids[i]
			one := int(v[blk] >> sh & 1)
			sets[w], ids[w] = v, id
			s.sets[j], s.ids[j] = v, id
			w -= 1 - one
			j -= one
		}
		copy(sets, s.sets[1:k+1])
		copy(ids, s.ids[1:k+1])
		return
	}
	// Forwards: the ones compact towards the front, the zeros fill the
	// scratch from slot 0; slot n-k is the spare.
	s.grow(n - k + 1)
	w, j := 0, 0
	for i := range sets {
		v, id := sets[i], ids[i]
		one := int(v[blk] >> sh & 1)
		sets[w], ids[w] = v, id
		s.sets[j], s.ids[j] = v, id
		w += one
		j += 1 - one
	}
	copy(sets[k:], s.sets[:n-k])
	copy(ids[k:], s.ids[:n-k])
}

// grow makes room for n elements in the scratch.
func (s *splitter) grow(n int) {
	if len(s.sets) < n {
		s.sets = make([]bitvec.Vector, n)
		s.ids = make([]int32, n)
	}
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
	maxP = max(maxP, 1)
	order := make([]int32, len(sets))
	for i := range order {
		order[i] = int32(i)
	}
	sortMembersLexicographically(sets, order)
	work := make([]bitvec.Vector, len(sets))
	for i, m := range order {
		work[i] = sets[m]
	}
	var out []partitionSpec
	for off := 0; off < len(order); off += maxP {
		end := min(off+maxP, len(order))
		spec := partitionSpec{members: order[off:end], sets: work[off:end], freq: new(bitFreq)}
		spec.mask = spec.sets[0]
		for _, v := range spec.sets[1:] {
			spec.mask = spec.mask.And(v)
		}
		spec.freq.count(spec.sets)
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
//
// A clusterer orders one partition at a time, on the positions of its
// members in the partition's window of signatures (partitionSpec.sets), so
// its counting and sorting read a few kilobytes of consecutive memory.
type clusterer struct {
	sets    []bitvec.Vector    // the partition's signatures
	weight  *[bitvec.W]float32 // see clusterWeights
	pos     []int32
	scratch []int32
}

// clusterWeights returns the rarity weight of every bit as a pivot:
// (1 - f_p)^32, f_p the share of the total sets being indexed that carry
// bit p (summed over the specs' tables). The bits nearest half a run are its most
// frequent ones, which queries mostly carry too and a gate gains little
// from; the weight has to be steep to turn the choice towards bits few
// queries carry. The exponent is where the measured scan count stops
// falling (EXPERIMENTS.md).
func clusterWeights(specs []partitionSpec) *[bitvec.W]float32 {
	var global bitFreq
	total := 0
	for i := range specs {
		total += len(specs[i].members)
		for p, cnt := range specs[i].freq {
			global[p] += cnt
		}
	}
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

// order rearranges members (positions in c.sets: a run starting on a
// group boundary, with bit table f) in place: while the run exceeds one group, the pivot's one-side,
// rounded down to whole groups, moves to the front — every group there
// carries the pivot — the ≤ 63 left over spill into the zero-side, the
// one-side recurses and the loop continues on the zero-side. Leaves of at
// most 64 members, and runs no bit splits, are sorted lexicographically.
func (c *clusterer) order(members []int32, f bitFreq) {
	for len(members) > 64 {
		pivot, k := c.pick(&f, len(members))
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
		c.order(one, f1)
		members, f = zero, f0
	}
	sortMembersLexicographically(c.sets, members)
}

// layOut puts spec's members into the order its rows are laid out in
// (order, on their positions in spec.sets), writes their signatures in
// that order to rows, reorders spec.members to match and points spec.sets
// at rows. spec.freq is left as it was.
func (c *clusterer) layOut(spec *partitionSpec, rows []bitvec.Vector) {
	c.sets = spec.sets
	c.pos = c.pos[:0]
	for i := range spec.members {
		c.pos = append(c.pos, int32(i))
	}
	c.order(c.pos, *spec.freq)
	c.scratch = c.scratch[:0]
	for r, i := range c.pos {
		rows[r] = spec.sets[i]
		c.scratch = append(c.scratch, spec.members[i])
	}
	copy(spec.members, c.scratch)
	spec.sets = rows
}
