package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/obs"
	"tagmatch/internal/workload"
)

// vocabSets draws n distinct signatures the way real tag sets produce
// them: each is the OR of 1..maxTags seven-bit "tags" from a skewed
// vocabulary, so some bits are common, some rare, and sets sharing a rare
// tag share all of its bits — the structure the clusterer feeds on.
func vocabSets(n, vocab, maxTags int, seed int64) []bitvec.Vector {
	rng := rand.New(rand.NewSource(seed))
	tags := randomSets(vocab, 1, seed+1)
	seen := make(map[bitvec.Vector]bool, n)
	out := make([]bitvec.Vector, 0, n)
	for tries := 0; len(out) < n && tries < 50*n; tries++ {
		var v bitvec.Vector
		for t := 1 + rng.Intn(maxTags); t > 0; t-- {
			// Squaring the uniform draw skews popularity towards low ranks.
			r := rng.Float64()
			v = v.Or(tags[int(r*r*float64(vocab))])
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// onePartition wraps all of sets into a single spec, as an oversized or
// maskless partition would reach the clusterer.
func onePartition(sets []bitvec.Vector) []partitionSpec {
	spec := partitionSpec{members: make([]int32, len(sets)), sets: sets, freq: new(bitFreq)}
	for i := range spec.members {
		spec.members[i] = int32(i)
	}
	spec.freq.count(sets)
	return []partitionSpec{spec}
}

// recount is the oracle for the clusterer's count-smaller-and-subtract
// tables: a plain bit-by-bit recount of a run.
func recount(sets []bitvec.Vector, run []int32) (f bitFreq) {
	for _, m := range run {
		for p := range f {
			if sets[m].Test(p) {
				f[p]++
			}
		}
	}
	return f
}

// checkClusterTree walks run the way clusterer.order built it, re-deriving
// every pivot from a fresh recount: the one-side must be whole groups whose
// gates all hold the pivot, at most 63 carriers may have spilled, and a run
// that no bit splits must be in lexicographic order.
func checkClusterTree(t *testing.T, c *clusterer, run []int32) {
	t.Helper()
	for len(run) > 64 {
		f := recount(c.sets, run)
		pivot, k := c.pick(&f, len(run))
		if pivot < 0 {
			break
		}
		if k%64 != 0 || k < 64 || k >= len(run) {
			t.Fatalf("run of %d: one-side of bit %d has %d members", len(run), pivot, k)
		}
		if spilled := int(f[pivot]) - k; spilled < 0 || spilled > 63 {
			t.Fatalf("run of %d: %d carriers of bit %d spilled", len(run), spilled, pivot)
		}
		rows := make([]bitvec.Vector, k)
		for i, m := range run[:k] {
			rows[i] = c.sets[m]
		}
		for g, grp := range bitvec.BuildSlicedGroups(rows) {
			if !grp.Gate.Test(pivot) {
				t.Fatalf("run of %d: group %d of the one-side lacks pivot bit %d in its gate", len(run), g, pivot)
			}
		}
		checkClusterTree(t, c, run[:k])
		run = run[k:]
	}
	if !slices.IsSortedFunc(run, func(a, b int32) int { return bitvec.Compare(c.sets[a], c.sets[b]) }) {
		t.Fatalf("leaf of %d members is not in lexicographic order", len(run))
	}
}

// checkClustered lays specs out (newLayout) and checks every partition: a
// permutation of what went in, laid out as checkClusterTree requires, its
// rows its members' signatures in that order.
func checkClustered(t *testing.T, sets []bitvec.Vector, specs []partitionSpec) {
	t.Helper()
	before := make([][]int32, len(specs))
	for i := range specs {
		before[i] = slices.Sorted(slices.Values(specs[i].members))
	}
	// The same weights newLayout derives, for re-deriving its pivots.
	c := &clusterer{sets: sets, weight: clusterWeights(specs)}
	idx := newLayout(specs, 0, nil)
	for i := range specs {
		if got := slices.Sorted(slices.Values(specs[i].members)); !slices.Equal(got, before[i]) {
			t.Fatalf("partition %d: clustered members are not a permutation of the input", i)
		}
		checkClusterTree(t, c, specs[i].members)
		p := &idx.parts[i]
		for r, m := range specs[i].members {
			if idx.sets[p.off+uint32(r)] != sets[m] {
				t.Fatalf("partition %d: row %d does not hold its member's signature", i, r)
			}
		}
	}
}

func TestClusterTreeOverPartitionSizes(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 500, 4096, 5000} {
		sets := vocabSets(n, 300, 4, int64(n))
		checkClustered(t, sets, onePartition(sets))
	}
	// Real partitioner output: many partitions, each with its mask bits
	// universal, handed to the workers together.
	sets := vocabSets(30000, 2000, 5, 7)
	checkClustered(t, sets, balancedPartition(sets, 700))
	checkClustered(t, sets, firstFitPartition(sets, 1000))
	uniform := randomSets(3000, 5, 8)
	checkClustered(t, uniform, balancedPartition(uniform, 400))
}

func TestClusterSeededProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		sets := vocabSets(1+rng.Intn(1500), 5+rng.Intn(400), 1+rng.Intn(6), rng.Int63())
		if rng.Intn(2) == 0 {
			checkClustered(t, sets, onePartition(sets))
		} else {
			checkClustered(t, sets, balancedPartition(sets, 65+rng.Intn(600)))
		}
	}
}

func FuzzClusterOrder(f *testing.F) {
	f.Add(int64(1), uint16(65), uint8(3), uint16(40))
	f.Add(int64(2), uint16(129), uint8(1), uint16(3))
	f.Add(int64(3), uint16(1000), uint8(6), uint16(500))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, maxTags uint8, vocab uint16) {
		sets := vocabSets(1+int(n%3000), 1+int(vocab%1000), 1+int(maxTags%8), seed)
		checkClustered(t, sets, onePartition(sets))
	})
}

func TestClusterSmallPartitionIsLexicographic(t *testing.T) {
	for _, n := range []int{1, 2, 37, 64} {
		sets := vocabSets(n, 100, 4, int64(n))
		specs, want := onePartition(sets), onePartition(sets)
		newLayout(specs, 0, nil)
		sortMembersLexicographically(sets, want[0].members)
		if !slices.Equal(specs[0].members, want[0].members) {
			t.Fatalf("%d members: clustered order differs from the lexicographic one", n)
		}
	}
}

// TestClusterDegenerateRuns covers the runs no bit can split: they must
// terminate and come out in lexicographic order.
func TestClusterDegenerateRuns(t *testing.T) {
	// The engine deduplicates signatures, but the clusterer must not rely
	// on it: every bit of an all-duplicates run is universal or absent.
	dup := make([]bitvec.Vector, 200)
	for i := range dup {
		dup[i] = bitvec.FromOnes(3, 70, 150)
	}
	// Two bits halve the run; every other non-universal bit has at most
	// two carriers, so nothing below the first two splits reaches a group.
	thin := make([]bitvec.Vector, 300)
	for i := range thin {
		thin[i] = bitvec.FromOnes(1, 2, 3, 20+i%150)
		if i >= 150 {
			thin[i].Set(190)
			thin[i].Clear(3)
		}
	}
	thin = thin[:290] // bit 3 has 150 carriers, bit 190 the other 140
	// A maskless partition: the all-zero signature among sets sharing nothing.
	maskless := append(randomSets(400, 1, 5), bitvec.Vector{})
	for name, sets := range map[string][]bitvec.Vector{"duplicates": dup, "maskless": maskless} {
		t.Run(name, func(t *testing.T) { checkClustered(t, sets, onePartition(sets)) })
	}
	t.Run("thin", func(t *testing.T) {
		specs := onePartition(thin)
		checkClustered(t, thin, specs)
		// Bits 3 and 190 each give up 128 carriers as two whole groups;
		// after that nothing has 64 carriers left.
		if first := thin[specs[0].members[0]]; first.Test(3) == first.Test(190) {
			t.Fatal("the first group carries both or neither of the two splittable bits")
		}
	})
}

func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	sets := vocabSets(20000, 1500, 5, 17)
	var orders [][][]int32
	for _, procs := range []int{1, 4, 4} {
		prev := runtime.GOMAXPROCS(procs)
		specs := balancedPartition(sets, 500)
		newLayout(specs, 0, nil)
		runtime.GOMAXPROCS(prev)
		order := make([][]int32, len(specs))
		for i := range specs {
			order[i] = specs[i].members
		}
		orders = append(orders, order)
	}
	for i, o := range orders[1:] {
		if !slices.EqualFunc(orders[0], o, slices.Equal[[]int32]) {
			t.Fatalf("layout %d differs from the single-worker layout", i+1)
		}
	}
}

// generatedSets draws the interests of the workload generator's first
// users and returns the generator, the distinct signatures and the tags
// behind each, the pool queries are built on.
func generatedSets(t *testing.T, users int, seed int64) (gen *workload.Generator, sigs []bitvec.Vector, pool [][]string) {
	t.Helper()
	gen, err := workload.New(workload.NewConfig(users, seed))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[bitvec.Vector]bool{}
	gen.Generate(users, func(in workload.Interest) {
		if sig := bloom.Signature(in.Tags); !seen[sig] {
			seen[sig] = true
			sigs = append(sigs, sig)
			pool = append(pool, in.Tags)
		}
	})
	return gen, sigs, pool
}

// appendLexicographic lays specs out into idx the way the paper orders
// rows — every partition's members sorted lexicographically — and
// transposes each partition into groups by hand, with no run nodes: the
// comparison layout for what the clusterer and the run nodes buy.
func appendLexicographic(idx *layout, sigs []bitvec.Vector, specs []partitionSpec) {
	for i := range specs {
		members := specs[i].members
		sortMembersLexicographically(sigs, members)
		p := partition{mask: specs[i].mask, off: uint32(len(idx.sets)), n: uint32(len(members))}
		for _, m := range members {
			idx.sets = append(idx.sets, sigs[m])
		}
		idx.groups = append(idx.groups, groupSlot{g: bitvec.BuildSlicedGroups(idx.sets[p.off:])})
		idx.parts = append(idx.parts, p)
	}
}

// TestClusterGatePruneOnWorkload is the mechanism's counter test on a small
// seeded dataset of the benchmark's generator: on the same partitions, the
// clustered layout's group gate must reject at least twice the share of
// (query, group) pairs the lexicographic layout rejects, and both must emit
// exactly the brute-force (query, set) pairs.
func TestClusterGatePruneOnWorkload(t *testing.T) {
	gen, sigs, pool := generatedSets(t, 6000, 3)
	rng := rand.New(rand.NewSource(4))
	queries := make([]bitvec.Vector, 400)
	for i := range queries {
		queries[i] = bloom.Signature(gen.Query(rng, pool[rng.Intn(len(pool))], -1))
	}
	type sigPair struct {
		q   int
		set bitvec.Vector
	}
	cmp := func(a, b sigPair) int {
		if a.q != b.q {
			return a.q - b.q
		}
		return bitvec.Compare(a.set, b.set)
	}
	var want []sigPair
	for qi, q := range queries {
		for _, s := range sigs {
			if s.SubsetOf(q) {
				want = append(want, sigPair{qi, s})
			}
		}
	}
	slices.SortFunc(want, cmp)

	specs := balancedPartition(sigs, 800)
	var prune [2]float64
	for f, clustered := range []bool{false, true} {
		idx := &layout{}
		if clustered {
			idx = newLayout(specs, 0, nil)
		} else {
			appendLexicographic(idx, sigs, specs)
		}
		pt, maskless := buildPartitionTable(idx.parts)
		var kc obs.KernelCounters
		var sc spanScratch
		var got []sigPair
		var pids []uint32
		for qi, q := range queries {
			pids = append(pt.lookupSliced(q, q.Ones(nil), pids[:0]), maskless...)
			for _, pid := range pids {
				p := &idx.parts[pid]
				groups, runs := idx.slicedPart(pid)
				cpuMatchBatchSliced(groups, runs, int(p.off), []bitvec.Vector{q}, 0, true, &sc, nil, &kc, func(_ uint8, s uint32) {
					got = append(got, sigPair{qi, idx.sets[s]})
				})
			}
		}
		slices.SortFunc(got, cmp)
		if !slices.Equal(got, want) {
			t.Fatalf("clustered=%v: %d pairs, brute force finds %d", clustered, len(got), len(want))
		}
		prune[f] = float64(kc.GatePruned.Load()) / float64(kc.GateChecks.Load())
	}
	t.Logf("gate prune rate: lexicographic %.3f, clustered %.3f", prune[0], prune[1])
	if prune[1] < 2*prune[0] || prune[0] == 0 {
		t.Fatalf("clustered gate prunes %.3f of (query, group) pairs, lexicographic %.3f: want at least twice", prune[1], prune[0])
	}
}
