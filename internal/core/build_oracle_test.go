package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
)

// This file keeps the full build as it was before Algorithm 1 split
// signatures in place and a worker laid out each partition it ordered:
// bit counting by per-bit scatter through member indices, runs of member
// indices split on the caller's signatures, the clusterer reading them
// through the same indices, a serial fill of rows, groups, run nodes and
// keys, and a row table hashed afresh from the rows. The differential
// tests (TestBalancedPartition*) hold the build to it byte for byte.

// countScatter adds the member sets' one-bits to f, one dependent
// increment per bit: the counter bitFreq.count replaces.
func (f *bitFreq) countScatter(sets []bitvec.Vector, members []int32) {
	for _, idx := range members {
		v := sets[idx]
		for b := 0; b < bitvec.Blocks; b++ {
			for blk := v[b]; blk != 0; blk &= blk - 1 {
				f[b*64+63-bits.TrailingZeros64(blk)]++
			}
		}
	}
}

// splitScatter is bitFreq's split by countScatter.
func (f *bitFreq) splitScatter(sets []bitvec.Vector, a, b []int32) (fa, fb bitFreq) {
	if len(a) > len(b) {
		fb, fa = f.splitScatter(sets, b, a)
		return fa, fb
	}
	fa.countScatter(sets, a)
	for p := range fb {
		fb[p] = f[p] - fa[p]
	}
	return fa, fb
}

// oracleBalancedPartition is Algorithm 1 on member indices.
func oracleBalancedPartition(sets []bitvec.Vector, maxP int) []partitionSpec {
	if len(sets) == 0 {
		return nil
	}
	maxP = max(maxP, 1)
	all := make([]int32, len(sets))
	for i := range all {
		all[i] = int32(i)
	}
	var freq bitFreq
	freq.countScatter(sets, all)
	return oracleSplitRun(sets, maxP, nil, bitvec.Vector{}, bitvec.Vector{}, all, &freq)
}

func oracleSplitRun(sets []bitvec.Vector, maxP int, out []partitionSpec, mask, used bitvec.Vector, members []int32, freq *bitFreq) []partitionSpec {
	pivot := -1
	if len(members) > maxP || mask.IsZero() {
		pivot = freq.pivot(int32(len(members)), used)
	}
	if pivot < 0 {
		return append(out, partitionSpec{mask: mask, members: members, freq: *freq})
	}
	used.Set(pivot)
	p0, p1 := members[:0], make([]int32, 0, freq[pivot])
	for _, idx := range members {
		if sets[idx].Test(pivot) {
			p1 = append(p1, idx)
		} else {
			p0 = append(p0, idx)
		}
	}
	f0, f1 := freq.splitScatter(sets, p0, p1)
	one := mask
	one.Set(pivot)
	switch {
	case len(p1) == 0:
		return oracleSplitRun(sets, maxP, out, mask, used, p0, &f0)
	case len(p0) == 0:
		return oracleSplitRun(sets, maxP, out, one, used, p1, &f1)
	case len(members) <= forkRun*maxP:
		out = oracleSplitRun(sets, maxP, out, one, used, p1, &f1)
		return oracleSplitRun(sets, maxP, out, mask, used, p0, &f0)
	}
	var ones []partitionSpec
	done := make(chan struct{})
	go func() {
		defer close(done)
		ones = oracleSplitRun(sets, maxP, nil, one, used, p1, &f1)
	}()
	zeros := oracleSplitRun(sets, maxP, nil, mask, used, p0, &f0)
	<-done
	return append(append(out, ones...), zeros...)
}

// oracleFirstFitPartition is the first-fit ablation on member indices.
func oracleFirstFitPartition(sets []bitvec.Vector, maxP int) []partitionSpec {
	if len(sets) == 0 {
		return nil
	}
	maxP = max(maxP, 1)
	order := make([]int32, len(sets))
	for i := range order {
		order[i] = int32(i)
	}
	sortMembersLexicographically(sets, order)
	var out []partitionSpec
	for off := 0; off < len(order); off += maxP {
		members := order[off:min(off+maxP, len(order))]
		mask := sets[members[0]]
		for _, m := range members[1:] {
			mask = mask.And(sets[m])
		}
		spec := partitionSpec{mask: mask, members: members}
		spec.freq.countScatter(sets, members)
		out = append(out, spec)
	}
	return out
}

// oracleClusterer is the clusterer reading the caller's signatures
// through member indices.
type oracleClusterer struct {
	sets    []bitvec.Vector
	weight  *[bitvec.W]float32
	scratch []int32
}

func (c *oracleClusterer) order(members []int32, f *bitFreq) {
	for len(members) > 64 {
		pivot, k := (&clusterer{weight: c.weight}).pick(f, len(members))
		if pivot < 0 {
			break
		}
		c.scratch = append(c.scratch[:0], members...)
		one, zero := members[:0:k], members[k:k]
		for _, m := range c.scratch {
			if len(one) < k && c.sets[m].Test(pivot) {
				one = append(one, m)
			} else {
				zero = append(zero, m)
			}
		}
		f1, f0 := f.splitScatter(c.sets, one, zero)
		c.order(one, &f1)
		members, f = zero, &f0
	}
	sortMembersLexicographically(c.sets, members)
}

func oracleOrderMembers(sets []bitvec.Vector, specs []partitionSpec) {
	weight := clusterWeights(specs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(specs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := oracleClusterer{sets: sets, weight: weight}
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				c.order(specs[i].members, &specs[i].freq)
			}
		}()
	}
	wg.Wait()
}

// oracleAppendPartitions orders every partition, then fills rows, groups,
// run nodes and partition descriptors serially, calling row for every
// member with its row id.
func (idx *layout) oracleAppendPartitions(sigs []bitvec.Vector, specs []partitionSpec, nDev int, row func(m int32, r uint32)) {
	oracleOrderMembers(sigs, specs)
	nG := 0
	for i := range specs {
		nG += (len(specs[i].members) + 63) / 64
	}
	flat := make([]bitvec.SlicedGroup, 0, nG)
	for i := range specs {
		spec := &specs[i]
		off := uint32(len(idx.sets))
		for _, m := range spec.members {
			idx.sets = append(idx.sets, sigs[m])
			if row != nil {
				row(m, uint32(len(idx.sets)-1))
			}
		}
		p := partition{mask: spec.mask, off: off, n: uint32(len(spec.members))}
		if nDev > 0 {
			p.dev = len(idx.parts) % nDev
		}
		g0 := len(flat)
		flat = bitvec.AppendSlicedGroups(flat, idx.sets[off:])
		g := flat[g0:]
		idx.groups = append(idx.groups, groupSlot{g: g})
		p.runOff = uint32(len(idx.runs))
		idx.runs = deriveRuns(idx.runs, g)
		p.nRuns = uint32(len(idx.runs)) - p.runOff
		idx.parts = append(idx.parts, p)
	}
}

// oracleBuildHostIndex is buildHostIndex before this file's successor: the
// specs of the configured partitioner laid out by oracleAppendPartitions,
// the key CSR appended row by row, the row table hashed from the rows.
func oracleBuildHostIndex(cfg Config, nDev int, db setList) *index {
	sigs := db.sigs
	var specs []partitionSpec
	if cfg.FirstFitPartitioning {
		specs = oracleFirstFitPartition(sigs, cfg.MaxPartitionSize)
	} else {
		specs = oracleBalancedPartition(sigs, cfg.MaxPartitionSize)
	}
	l := &layout{}
	l.sets = make([]bitvec.Vector, 0, len(sigs))
	l.parts = make([]partition, 0, len(specs))
	l.groups = make([]groupSlot, 0, len(specs))
	idx := &index{layout: l, keyOff: make([]uint32, 1, len(sigs)+1)}
	l.oracleAppendPartitions(sigs, specs, nDev, func(m int32, _ uint32) {
		idx.appendKeys(db.lists[m], cfg.ExactVerify)
	})
	l.rows = fillRowTable(l.sets, len(l.sets))
	l.pt, l.maskless = buildPartitionTable(l.parts)
	return idx
}

// TestBitFreqCarrySave holds the carry-save counter to the scatter count
// at the run lengths around its flush (255 sets fill the eight planes),
// on random runs and on runs of all-ones vectors, which carry every
// position into the top plane; countAt must agree through any member
// order.
func TestBitFreqCarrySave(t *testing.T) {
	ones := bitvec.Vector{^uint64(0), ^uint64(0), ^uint64(0)}
	for _, n := range []int{0, 1, 254, 255, 256, 510, 511, 1000} {
		rnd := randomSets(n, 4, int64(n)+5)
		full := make([]bitvec.Vector, n)
		for i := range full {
			full[i] = ones
		}
		for name, sets := range map[string][]bitvec.Vector{"random": rnd, "all-ones": full} {
			at := make([]int32, n)
			for i := range at {
				at[i] = int32(n - 1 - i)
			}
			var want, got, gotAt bitFreq
			want.countScatter(sets, at)
			got.count(sets)
			gotAt.countAt(sets, at)
			if got != want || gotAt != want {
				t.Errorf("%s run of %d: count and countAt differ from the scatter count", name, n)
			}
		}
	}
}

// duplicateSets returns n signatures drawn from only distinct different
// ones, each sharing the ten-bit base: runs of them exhaust all 192 pivot
// bits and are accepted oversized.
func duplicateSets(n, distinct int) []bitvec.Vector {
	out := make([]bitvec.Vector, n)
	for i := range out {
		out[i] = bitvec.FromOnes(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
		out[i].Set(40 + (i*7)%distinct)
	}
	return out
}

// requireSameLayout fails unless the two layouts hold the same rows,
// groups per partition, run nodes and partition descriptors.
func requireSameLayout(t *testing.T, got, want *layout) {
	t.Helper()
	if !slices.Equal(got.sets, want.sets) {
		t.Fatal("rows differ")
	}
	if !slices.Equal(got.parts, want.parts) {
		t.Fatal("partition descriptors differ")
	}
	if len(got.groups) != len(want.groups) {
		t.Fatalf("%d group slots, want %d", len(got.groups), len(want.groups))
	}
	for i := range got.groups {
		if !slices.Equal(got.groups[i].g, want.groups[i].g) {
			t.Fatalf("partition %d: groups differ", i)
		}
	}
	if !slices.Equal(got.runs, want.runs) {
		t.Fatal("run nodes differ")
	}
}

// requireSameSpecs fails unless the specs hold the same masks, members in
// the same order, and tables, and each spec's sets are its members'
// signatures.
func requireSameSpecs(t *testing.T, sigs []bitvec.Vector, got, want []partitionSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d partitions, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.mask != w.mask || !slices.Equal(g.members, w.members) || g.freq != w.freq {
			t.Fatalf("partition %d differs", i)
		}
		if !slices.Equal(g.sets, gather(sigs, g.members)) {
			t.Fatalf("partition %d: sets are not its members' signatures", i)
		}
	}
}

// TestBalancedPartitionLayoutMatchesOracle holds the full build to the
// build it replaced (this file's oracle) byte for byte: the specs of both
// partitioners, then the layout — rows, groups, run nodes, partition
// descriptors with their devices — and, through buildHostIndex, the key
// CSR and the row table, whose lookups must agree for every listed
// signature and for absent ones. Inputs: a generated workload database at
// five MAX_P, a duplicate-heavy input and near-duplicates that exhaust
// all 192 pivot bits, at one and two OS threads.
func TestBalancedPartitionLayoutMatchesOracle(t *testing.T) {
	_, gen, _ := generatedSets(t, 3000, 9)
	nearDup := make([]bitvec.Vector, 300)
	for i := range nearDup {
		nearDup[i] = bitvec.FromOnes(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
		nearDup[i].Set(20 + i%150)
		nearDup[i].Set(180 - i/150)
	}
	type input struct {
		name string
		sigs []bitvec.Vector
		maxP int
	}
	var cases []input
	for _, maxP := range []int{1, 7, 64, len(gen) / 1000, len(gen) / 16} {
		cases = append(cases, input{fmt.Sprintf("workload/maxP=%d", maxP), gen, maxP})
	}
	cases = append(cases,
		input{"duplicates", duplicateSets(2000, 13), 7},
		input{"near-duplicates", nearDup, 1},
	)
	absent := randomSets(500, 6, 77)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					for _, firstFit := range []bool{false, true} {
						partition, oracle := balancedPartition, oracleBalancedPartition
						if firstFit {
							partition, oracle = firstFitPartition, oracleFirstFitPartition
						}
						got, want := partition(tc.sigs, tc.maxP), oracle(tc.sigs, tc.maxP)
						requireSameSpecs(t, tc.sigs, got, want)
						if tc.name == "duplicates" && !firstFit && !slices.ContainsFunc(got, func(s partitionSpec) bool { return len(s.members) > tc.maxP }) {
							t.Fatal("no partition was accepted oversized: the input did not exhaust the pivot bits")
						}
						gl := newLayout(got, 2, nil)
						wl := &layout{}
						wl.oracleAppendPartitions(tc.sigs, want, 2, nil)
						requireSameLayout(t, gl, wl)
						requireSameSpecs(t, tc.sigs, got, want)
						requireSameHostIndex(t, tc.sigs, tc.maxP, firstFit, absent)
					}
				})
			}
		})
	}
}

// requireSameHostIndex builds the host index of a bulk load of sigs — each
// set one to three keys, a duplicated signature listed once with the
// entries of all its records — with buildHostIndex and with the oracle,
// in ExactVerify mode so the CSR carries tags too, and compares them.
func requireSameHostIndex(t *testing.T, sigs []bitvec.Vector, maxP int, firstFit bool, absent []bitvec.Vector) {
	t.Helper()
	cfg := Config{MaxPartitionSize: maxP, FirstFitPartitioning: firstFit, ExactVerify: true}
	bulk := setList{sigs: sigs, lists: make([]entryList, len(sigs))}
	for i := range sigs {
		for k := 0; k <= i%3; k++ {
			bulk.lists[i].keys = append(bulk.lists[i].keys, Key(i*3+k))
			bulk.lists[i].tags = append(bulk.lists[i].tags, []string{fmt.Sprint(i, k)})
		}
	}
	e := &Engine{cfg: cfg, devices: make([]*gpu.Device, 2)}
	got := e.buildHostIndex(listDatabase(emptyIndex(), nil, bulk))
	want := oracleBuildHostIndex(cfg, 2, listDatabase(emptyIndex(), nil, bulk))
	requireSameLayout(t, got.layout, want.layout)
	if !slices.Equal(got.keyOff, want.keyOff) || !slices.Equal(got.keys, want.keys) {
		t.Fatal("key CSR differs")
	}
	if !slices.EqualFunc(got.keyTags, want.keyTags, slices.Equal[[]string]) {
		t.Fatal("key tags differ")
	}
	if len(got.rows) > len(want.rows) {
		t.Fatalf("row table of %d slots, the oracle's has %d", len(got.rows), len(want.rows))
	}
	for _, sig := range slices.Concat(got.sets, absent) {
		gr, gok := got.rows.lookup(got.sets, sig)
		wr, wok := want.rows.lookup(want.sets, sig)
		if gok != wok || gr != wr {
			t.Fatalf("row lookup = (%d, %v), the oracle's (%d, %v)", gr, gok, wr, wok)
		}
	}
}
