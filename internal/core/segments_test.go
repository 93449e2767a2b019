package core

import (
	"testing"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// testSeg is one segment of a kernel-test launch: a partition — its
// sets in row order (sorted for the cpuMatchBatch oracle; in any order
// for the kernel) and the global id of the first — and the entries routed
// to it.
type testSeg struct {
	sets    []bitvec.Vector
	base    uint32
	queries []bitvec.Vector
}

// wantSegPairs is the brute-force reference of a launch over segs: the
// query id of a pair is the entry's index in the whole batch.
func wantSegPairs(segs []testSeg) []pair {
	var out []pair
	first := 0
	for _, sg := range segs {
		for _, p := range bruteForcePairs(sg.sets, int(sg.base), sg.queries) {
			out = append(out, pair{p.q + uint8(first), p.s})
		}
		first += len(sg.queries)
	}
	sortPairs(out)
	return out
}

// hostSliced runs the host path of the sliced kernel over one partition:
// its groups, the run nodes derived from them, one matchSpan.
func hostSliced(sets []bitvec.Vector, base int, queries []bitvec.Vector, qbase uint8, gate bool, kc *obs.KernelCounters, visit func(q uint8, s uint32)) {
	groups := bitvec.BuildSlicedGroups(sets)
	cpuMatchBatchSliced(groups, deriveRuns(nil, groups), base, queries, qbase, gate, &spanScratch{}, nil, kc, visit)
}

// runSegKernel lays the segments' partitions out in one shard (each
// partition's run nodes beside its groups), stages the entries'
// signatures in entry order and the segment table, as gpuDispatchAttempt
// does, and runs one launch of the kernel.
func runSegKernel(t testing.TB, segs []testSeg, maxPairs, blockDim int, prefilter bool, kc *obs.KernelCounters) ([]pair, bool) {
	t.Helper()
	dev := gpu.New(gpu.Config{Workers: 4})
	defer dev.Close()
	s, err := dev.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var staged []bitvec.Vector
	tab := make([]uint32, len(segs)*segWords)
	var groups []bitvec.SlicedGroup
	var runs []runNode
	blocks := 0
	for si, sg := range segs {
		row := tab[si*segWords:][:segWords]
		g := bitvec.BuildSlicedGroups(sg.sets)
		row[segOff], row[segLen] = uint32(len(groups)), uint32(len(g))
		groups = append(groups, g...)
		row[segRunOff] = uint32(len(runs))
		runs = deriveRuns(runs, g)
		row[segRunLen] = uint32(len(runs)) - row[segRunOff]
		blocks += segBlocks(len(sg.sets), blockDim)
		row[segBlockEnd] = uint32(blocks)
		row[segFirst], row[segCount] = uint32(len(staged)), uint32(len(sg.queries))
		row[segBase] = sg.base
		staged = append(staged, sg.queries...)
	}

	upload := func(n int) *gpu.Buffer[uint32] { return gpu.MustAlloc[uint32](dev, n) }
	args := &batchArgs{
		sigs: gpu.MustAlloc[bitvec.Vector](dev, max(1, len(staged))), tab: upload(len(tab) + 1), nSeg: len(segs),
		hdr: upload(resHeaderWords), pairs: gpu.MustAlloc[byte](dev, pairBufBytes(maxPairs)),
		maxPairs: maxPairs, prefilter: prefilter, kc: kc,
	}
	defer func() { args.sigs.Free(); args.tab.Free(); args.hdr.Free(); args.pairs.Free() }()
	if err := args.sigs.CopyToDevice(0, staged); err != nil {
		t.Fatal(err)
	}
	if err := args.tab.CopyToDevice(0, tab); err != nil {
		t.Fatal(err)
	}
	grid := gpu.Grid{Blocks: blocks, BlockDim: blockDim}
	sh, err := uploadShard(dev, groups, runs)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.free()
	s.LaunchZeroedAsync(grid, args.hdr, resHeaderWords, slicedMatchKernel(args, sh))
	hdrHost := make([]uint32, resHeaderWords)
	gpu.CopyFromDeviceAsync(s, args.hdr, hdrHost, 0)
	if err := s.SynchronizeErr(); err != nil {
		t.Fatal(err)
	}

	count, overflow := clampCount(hdrHost[0], hdrHost[1], maxPairs)
	if overflow {
		return nil, true
	}
	packed := make([]byte, pairBufBytes(count))
	if count > 0 {
		if err := args.pairs.CopyFromDevice(packed, 0); err != nil {
			t.Fatal(err)
		}
	}
	var got []pair
	decodePacked(packed, count, func(q uint8, sid uint32) { got = append(got, pair{q, sid}) })
	sortPairs(got)
	return got, false
}

func equalPairs(t testing.TB, label string, got, want []pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestSegmentedKernelsMatchBruteForce runs the kernel, and the
// cpuMatchBatch oracle segment by segment, over segment tables with the
// shapes dispatch produces and a kernel must survive: many partitions in
// one launch, one-entry segments, a segment with no entries, an empty
// partition, and one partition's entries split over two segments.
func TestSegmentedKernelsMatchBruteForce(t *testing.T) {
	a, qa := batchFixture(700, 40, 61)
	b, qb := batchFixture(130, 9, 62)
	c, qc := batchFixture(64, 5, 63)
	d, qd := batchFixture(300, 20, 64)
	segs := []testSeg{
		{sets: a, base: 0, queries: qa[:25]},
		{sets: b, base: 700, queries: qb[:1]},
		{sets: c, base: 830, queries: qc},
		{sets: b, base: 700, queries: nil},
		{sets: nil, base: 894, queries: qb[1:3]},
		{sets: d, base: 894, queries: qd},
		{sets: a, base: 0, queries: qa[25:]}, // the rest of partition a's entries
		{sets: b, base: 700, queries: qb[3:4]},
	}
	want := wantSegPairs(segs)
	if len(want) == 0 {
		t.Fatal("fixture produced no matches; test is vacuous")
	}
	for _, blockDim := range []int{256, 64, 100, 1} {
		for _, prefilter := range []bool{true, false} {
			got, overflow := runSegKernel(t, segs, 1<<16, blockDim, prefilter, nil)
			if overflow {
				t.Fatal("unexpected overflow")
			}
			equalPairs(t, "segmented launch", got, want)
		}
	}
	equalPairs(t, "cpuMatchBatch oracle", oracleSegPairs(segs, true), want)
}

// oracleSegPairs runs the cpuMatchBatch oracle over every segment (whose
// sets must be sorted) and returns the pairs with batch-wide query ids.
func oracleSegPairs(segs []testSeg, prefilter bool) []pair {
	var out []pair
	first := 0
	for _, sg := range segs {
		cpuMatchBatch(sg.sets, int(sg.base), sg.queries, uint8(first), 256, prefilter, nil, nil, func(q uint8, s uint32) {
			out = append(out, pair{q, s})
		})
		first += len(sg.queries)
	}
	sortPairs(out)
	return out
}
