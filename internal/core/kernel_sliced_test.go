package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/obs"
)

func TestSlicedGroupBytesMatchesLayout(t *testing.T) {
	// hostBytes and the device-memory accounting both assume this
	// constant; keep it locked to the real struct layout.
	if got := int64(unsafe.Sizeof(bitvec.SlicedGroup{})); got != slicedGroupBytes {
		t.Fatalf("unsafe.Sizeof(SlicedGroup) = %d, slicedGroupBytes = %d", got, slicedGroupBytes)
	}
}

func TestRunNodeBytesMatchesLayout(t *testing.T) {
	if got := int64(unsafe.Sizeof(runNode{})); got != runNodeBytes {
		t.Fatalf("unsafe.Sizeof(runNode) = %d, runNodeBytes = %d", got, runNodeBytes)
	}
}

// TestSlicedSegBlocks pins the sliced block geometry: one thread per
// group, blockDim threads per block, so every group is covered exactly
// once and a partition of up to 64 × blockDim sets is a single block.
func TestSlicedSegBlocks(t *testing.T) {
	for _, tc := range []struct {
		nGroups, blockDim, blocks int
	}{
		{1, 256, 1},
		{5, 256, 1},
		{256, 256, 1},
		{257, 256, 2},
		{7, 4, 2}, // the 7-group partition that was two blocks at blockDim 256
		{7, 3, 3},
		{5, 1, 5},
		{0, 256, 0},
	} {
		nSets := tc.nGroups*64 - 63*min(tc.nGroups, 1) // the last group holds one set
		if blocks := segBlocks(nSets, tc.blockDim); blocks != tc.blocks {
			t.Fatalf("%d groups at blockDim %d: %d blocks, want %d", tc.nGroups, tc.blockDim, blocks, tc.blocks)
		}
		// The spans the kernel derives from (block, blockDim) tile the groups.
		covered := 0
		for blk := 0; blk < tc.blocks; blk++ {
			g0 := blk * tc.blockDim
			if g0 != covered || g0 >= tc.nGroups {
				t.Fatalf("%d groups at blockDim %d: block %d starts at group %d, %d covered", tc.nGroups, tc.blockDim, blk, g0, covered)
			}
			covered = min(g0+tc.blockDim, tc.nGroups)
		}
		if covered != tc.nGroups {
			t.Fatalf("%d groups at blockDim %d: %d covered", tc.nGroups, tc.blockDim, covered)
		}
	}
}

func TestSlicedKernelMatchesBruteForce(t *testing.T) {
	sets, queries := batchFixture(3000, 64, 21)
	want := bruteForcePairs(sets, 0, queries)
	if len(want) == 0 {
		t.Fatal("fixture produced no matches; test is vacuous")
	}
	for _, gate := range []bool{true, false} {
		var kc obs.KernelCounters
		got, overflow := runGPUKernel(t, sets, queries, 100000, 256, gate, &kc)
		if overflow {
			t.Fatal("unexpected overflow")
		}
		if len(got) != len(want) {
			t.Fatalf("gate=%v: %d pairs, want %d", gate, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gate=%v: pair %d = %+v, want %+v", gate, i, got[i], want[i])
			}
		}
		if kc.GroupScans.Load() == 0 || kc.ColumnsWalked.Load() == 0 {
			t.Fatalf("gate=%v: telemetry not recorded: %d group scans, %d column words", gate, kc.GroupScans.Load(), kc.ColumnsWalked.Load())
		}
		if gate && kc.GateChecks.Load() == 0 {
			t.Fatal("gate enabled but no gate checks recorded")
		}
		if !gate && kc.GateChecks.Load() != 0 {
			t.Fatal("gate disabled but gate checks recorded")
		}
	}
}

func TestSlicedKernelOddBlockDims(t *testing.T) {
	// Sets deliberately not a multiple of 64, so the last group has
	// invalid lanes; those must never emit.
	sets, queries := batchFixture(777, 31, 22)
	want := bruteForcePairs(sets, 0, queries)
	for _, bd := range []int{1, 7, 64, 129, 256, 1024} {
		got, overflow := runGPUKernel(t, sets, queries, 100000, bd, true, nil)
		if overflow {
			t.Fatalf("blockDim=%d overflow", bd)
		}
		if len(got) != len(want) {
			t.Fatalf("blockDim=%d: %d pairs, want %d", bd, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("blockDim=%d: pair %d mismatch", bd, i)
			}
		}
	}
}

func TestSlicedKernelOverflow(t *testing.T) {
	sets, queries := batchFixture(2000, 64, 23)
	if len(bruteForcePairs(sets, 0, queries)) < 5 {
		t.Skip("fixture too selective")
	}
	_, overflow := runGPUKernel(t, sets, queries, 2, 256, true, nil)
	if !overflow {
		t.Fatal("expected overflow with maxPairs=2")
	}
}

func TestSlicedKernelEmptyBatch(t *testing.T) {
	sets, _ := batchFixture(500, 1, 26)
	got, overflow := runGPUKernel(t, sets, nil, 16, 256, true, nil)
	if overflow || len(got) != 0 {
		t.Fatalf("empty batch emitted %d pairs (overflow=%v)", len(got), overflow)
	}
	// And an empty partition against a non-empty batch.
	got, overflow = runGPUKernel(t, nil, []bitvec.Vector{bitvec.FromOnes(1)}, 16, 256, true, nil)
	if overflow || len(got) != 0 {
		t.Fatalf("empty partition emitted %d pairs (overflow=%v)", len(got), overflow)
	}
}

// TestCPUMatchBatchSlicedMatchesScalar holds the host path to brute force
// and to the paper's scalar Algorithms 3/4 (the cpuMatchBatch oracle).
func TestCPUMatchBatchSlicedMatchesScalar(t *testing.T) {
	sets, queries := batchFixture(2500, 48, 24)
	want := bruteForcePairs(sets, 1000, queries)
	for _, gate := range []bool{true, false} {
		var got []pair
		hostSliced(sets, 1000, queries, 0, gate, nil, func(q uint8, s uint32) {
			got = append(got, pair{q, s})
		})
		sortPairs(got)
		label := fmt.Sprintf("gate=%v", gate)
		equalPairs(t, label+" vs brute force", got, want)
		seg := []testSeg{{sets: sets, base: 1000, queries: queries}}
		equalPairs(t, label+" vs cpuMatchBatch", got, oracleSegPairs(seg, gate))
	}
}

// TestEngineClusteredRowsOnGPU runs a workload through a GPU engine and
// requires the brute-force answer on the clustered row order — which,
// with partitions of several groups, is not the lexicographic one — plus
// the kernel's batch and work counters.
func TestEngineClusteredRowsOnGPU(t *testing.T) {
	sets, queries := sharedVocabWorkload(8000, 80, 71)
	// Queries built on stored sets as well, so multi-tag sets deep inside
	// the partitions are matched too.
	for i := 0; i < 200; i++ {
		queries = append(queries, slices.Concat(sets[i*19%len(sets)], sets[i*7%len(sets)]))
	}
	keyOf := func(i int) Key { return Key(i + 1) }

	e, err := New(Config{
		MaxPartitionSize: 400, BatchSize: 32, Threads: 2,
		GPUs: 1, GPUWorkers: 4, StreamsPerGPU: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i, s := range sets {
		e.AddSet(s, keyOf(i))
	}
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	idx := e.idx.Load()
	sorted := true
	for _, p := range idx.parts {
		sorted = sorted && slices.IsSortedFunc(idx.sets[p.off:p.off+p.n], bitvec.Compare)
	}
	if sorted {
		t.Fatal("fixture too small: the clustered order equals the lexicographic one")
	}

	sigs := make([]bitvec.Vector, len(sets))
	for i, s := range sets {
		sigs[i] = bloom.Signature(s)
	}
	for _, q := range queries {
		qsig := bloom.Signature(q)
		var want []Key
		for i, sig := range sigs {
			if sig.SubsetOf(qsig) {
				want = append(want, keyOf(i))
			}
		}
		got, err := match(e, tagReq(q, false))
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%d keys for query %s, brute force finds %d", len(got), q, len(want))
		}
	}

	if st := e.Stats(); st.KernelSliced == 0 || st.KernelGateChecks == 0 || st.KernelColumnsWalked == 0 {
		t.Fatalf("kernel counters not recorded: %+v", st)
	}
}

// TestEngineMasklessPartitionSliced covers the degenerate all-zero
// signature: it lands in a maskless partition whose group gate is the
// zero vector (passes every query), and must match everything.
func TestEngineMasklessPartitionSliced(t *testing.T) {
	e, err := New(Config{MaxPartitionSize: 64, BatchSize: 8, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSignature(bitvec.Vector{}, 99) // empty signature → empty partition mask
	sigs := randomSets(200, 4, 31)
	for i, s := range sigs {
		e.AddSignature(s, Key(i+1))
	}
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	for qi, q := range randomSets(30, 9, 32) {
		got, err := match(e, Request{Sig: q})
		if err != nil {
			t.Fatal(err)
		}
		// The empty set must match, and the full answer equal brute force.
		want := map[Key]bool{99: true}
		for i, s := range sigs {
			if s.SubsetOf(q) {
				want[Key(i+1)] = true
			}
		}
		gotSet := map[Key]bool{}
		for _, k := range got {
			gotSet[k] = true
		}
		if !gotSet[99] {
			t.Fatalf("query %d: empty set missing from %d keys", qi, len(got))
		}
		if len(gotSet) != len(want) {
			t.Fatalf("query %d: %d keys, want %d", qi, len(gotSet), len(want))
		}
		for k := range want {
			if !gotSet[k] {
				t.Fatalf("query %d: key %d missing", qi, k)
			}
		}
	}
}

func TestKernelBenchmarkSmoke(t *testing.T) {
	sigs := randomSets(4000, 5, 41)
	queries := make([]bitvec.Vector, 200)
	for i := range queries {
		queries[i] = sigs[(i*13)%len(sigs)].Or(randomSets(1, 4, int64(i)+500)[0])
	}
	res := KernelBenchmark(sigs, 500, queries, 64, 256, 1, 4)
	if !res.Parity {
		t.Fatal("the kernel disagrees with brute force")
	}
	if res.Partitions == 0 || res.Batches == 0 {
		t.Fatalf("benchmark ran no work: %+v", res)
	}
	if res.SlicedNs <= 0 {
		t.Fatalf("non-positive timings: %+v", res)
	}
	if res.GateChecks == 0 || res.GroupScans == 0 || res.ColumnsWalked == 0 {
		t.Fatalf("telemetry not recorded: %+v", res)
	}
	// The header reset is fused into the launch: exactly the one query
	// upload per batch, never a separate reset copy.
	if res.H2DCopiesPerBatch != 1 {
		t.Fatalf("H2D copies per batch = %v, want exactly 1 (fused header reset)", res.H2DCopiesPerBatch)
	}
}

func TestKernelBenchmarkEmptyInputs(t *testing.T) {
	res := KernelBenchmark(nil, 500, randomSets(5, 3, 42), 64, 256, 1, 2)
	if !res.Parity {
		t.Fatal("empty database must report parity")
	}
	res = KernelBenchmark(randomSets(100, 3, 43), 500, nil, 64, 256, 1, 2)
	if !res.Parity {
		t.Fatal("empty query set must report parity")
	}
}

// FuzzSlicedMatch differentially fuzzes the subset matcher over random
// segment tables: the sets are cut into partitions (sorted, some in
// extent buffers), the queries dealt over segments — empty ones,
// one-entry ones, a partition's entries split over two — and the kernel,
// on the device and on the host, and the cpuMatchBatch oracle must all
// produce the brute-force pair multiset, with and without the
// pre-filter.
func FuzzSlicedMatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 9, 9, 9, 200, 201}, []byte{1, 2, 3, 9}, true)
	f.Add([]byte{}, []byte{7}, false)
	f.Add([]byte{0, 0, 0, 0}, []byte{}, true)
	f.Add([]byte{4, 8, 12, 5, 9, 13, 6, 10, 14, 7, 11, 15, 4, 9, 14, 5, 10, 15, 8, 8, 8},
		[]byte{4, 8, 12, 5, 9, 13, 0, 0, 0, 0, 0, 0, 7, 11, 15, 4, 9, 14, 6, 10, 14, 7, 11, 15, 1, 2, 3, 4, 5, 6}, true)
	f.Fuzz(func(t *testing.T, setBytes, qBytes []byte, gate bool) {
		// Partitions: a new one starts wherever a set's first byte is a
		// multiple of 4; its extent comes from that byte too.
		var segs []testSeg
		base := uint32(7)
		for i, n := 0, 0; i < len(setBytes) && n < 400; i, n = i+3, n+1 {
			var v bitvec.Vector
			for _, x := range setBytes[i:min(i+3, len(setBytes))] {
				v.Set(int(x) % bitvec.W)
			}
			if len(segs) == 0 || setBytes[i]%4 == 0 {
				if k := len(segs); k > 0 {
					base += uint32(len(segs[k-1].sets))
				}
				segs = append(segs, testSeg{base: base, ext: int(setBytes[i]/4) % 3})
			}
			sg := &segs[len(segs)-1]
			sg.sets = append(sg.sets, v)
		}
		if len(segs) == 0 {
			segs = []testSeg{{base: base}}
		}
		for i := range segs {
			sets := segs[i].sets
			sort.Slice(sets, func(a, b int) bool { return bitvec.Less(sets[a], sets[b]) })
		}
		// Entries: a query goes to the partition its first byte names; a
		// run of queries naming the same partition is one segment, so a
		// partition revisited later is split over two segments. A zero
		// first byte leaves an empty segment behind.
		nParts := len(segs)
		var table []testSeg
		for i, n := 0, 0; i < len(qBytes) && n < maxBatchSize; i, n = i+6, n+1 {
			var v bitvec.Vector
			for _, x := range qBytes[i:min(i+6, len(qBytes))] {
				v.Set(int(x) % bitvec.W)
			}
			part := segs[int(qBytes[i])%nParts]
			if k := len(table); k == 0 || table[k-1].base != part.base || qBytes[i] == 0 {
				if qBytes[i] == 0 {
					table = append(table, part) // no entries
				}
				table = append(table, part)
			}
			table[len(table)-1].queries = append(table[len(table)-1].queries, v)
		}
		if len(table) == 0 {
			table = segs[:1]
		}

		want := wantSegPairs(table)
		got, overflow := runSegKernel(t, table, len(want)+1, 256, gate, nil)
		if overflow {
			t.Fatal("overflow with room for every pair")
		}
		equalPairs(t, fmt.Sprintf("device gate=%v", gate), got, want)
		var host []pair
		first := 0
		for _, sg := range table {
			hostSliced(sg.sets, int(sg.base), sg.queries, uint8(first), gate, nil, func(q uint8, s uint32) {
				host = append(host, pair{q, s})
			})
			first += len(sg.queries)
		}
		sortPairs(host)
		equalPairs(t, fmt.Sprintf("host gate=%v", gate), host, want)
		equalPairs(t, fmt.Sprintf("cpuMatchBatch gate=%v", gate), oracleSegPairs(table, gate), want)
	})
}
