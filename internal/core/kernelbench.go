package core

import (
	"slices"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// KernelBenchResult is the outcome of KernelBenchmark: the isolated
// subset-match kernel cost per submitted query for each flavor, exact
// result parity between them, and the sliced kernel's work telemetry.
type KernelBenchResult struct {
	ScalarNs   float64 // scalar kernel ns per submitted query
	SlicedNs   float64 // sliced kernel ns per submitted query
	Parity     bool    // both flavors emitted exactly the reference pair multiset
	Partitions int
	Batches    int // (partition, batch) kernel launches per iteration

	// Sliced-kernel telemetry accumulated over the parity pass: gate
	// tests vs groups discarded, and column words walked vs scans run.
	GateChecks    int64
	GatePruned    int64
	GroupScans    int64
	ColumnsWalked int64

	// H2DCopiesPerBatch is the mean H2D copy operations issued per
	// kernel launch over the timed passes. With the result-header reset
	// fused into the launch (LaunchZeroedAsync), exactly one copy — the
	// batch's entry indices and segment table — remains here (the query
	// signatures are uploaded once, before the timed passes; the engine
	// uploads each batch's with it, a second copy); the kernel bench test
	// asserts this stays 1 so the separate header-reset transfer cannot
	// silently come back.
	H2DCopiesPerBatch float64
}

// KernelBenchmark measures the subset-match kernel in isolation: it
// partitions sigs and lays each flavor's rows out exactly as Consolidate
// does (Algorithm 1, then appendPartitions: lexicographic rows for the
// scalar kernel, 64-aligned clusters for the sliced one), routes every
// query through the partition table to form per-partition batches of at
// most batchSize, and times iters passes of the whole batch set through
// the scalar per-thread kernel and through the bit-sliced kernel on one
// simulated zero-cost device — so the comparison isolates the matching
// work itself from bus and driver overheads, which are identical for the
// two flavors. Before timing, an untimed pass checks each flavor against
// the brute-force reference pair multiset of its own layout (Parity).
func KernelBenchmark(sigs []bitvec.Vector, maxP int, queries []bitvec.Vector, batchSize, blockDim, iters, workers int) KernelBenchResult {
	if batchSize <= 0 || batchSize > maxBatchSize {
		batchSize = maxBatchSize
	}
	if blockDim <= 0 {
		blockDim = 256
	}
	if iters < 1 {
		iters = 1
	}

	// Build the index the way Consolidate does, once per flavor: balanced
	// partitions laid out by appendPartitions — lexicographic rows for the
	// scalar kernel, clustered rows and their column-transposed mirror for
	// the sliced one. The partitions (masks, offsets, sizes) are the same
	// in both; only the order of rows inside them differs. Sliced first:
	// the clusterer's stable splits start from the partitioner's order.
	specs := balancedPartition(sigs, maxP)
	var layout [2]index // 0 scalar, 1 sliced
	for _, f := range []int{1, 0} {
		layout[f].appendPartitions(sigs, specs, f == 1, 0, nil)
	}
	parts, sets, groups := layout[1].parts, layout[1].sets, layout[1].groups
	pt, maskless := buildPartitionTable(parts)

	// Route queries and pack them into per-partition batches, the work
	// units the pipeline would dispatch when partitions fill: one-segment
	// batches. The queries sit in one device buffer, uploaded once; a
	// batch carries their indices.
	type workItem struct {
		pid uint32
		qs  []uint32 // indices into queries

		// Per flavor (0 scalar, 1 sliced): the batch's entry indices +
		// segment table, its kernel and its grid.
		tab    [2][]uint32
		kernel [2]gpu.KernelFunc
		grid   [2]gpu.Grid
	}
	perPart := make([][]uint32, len(parts))
	var pids []uint32
	for qi, q := range queries {
		pids = pt.lookupSliced(q, q.Ones(nil), pids[:0])
		pids = append(pids, maskless...)
		for _, pid := range pids {
			perPart[pid] = append(perPart[pid], uint32(qi))
		}
	}
	var items []workItem
	for pid, qs := range perPart {
		for len(qs) > 0 {
			n := min(len(qs), batchSize)
			items = append(items, workItem{pid: uint32(pid), qs: qs[:n]})
			qs = qs[n:]
		}
	}

	res := KernelBenchResult{Partitions: len(parts), Batches: len(items)}
	if len(items) == 0 || len(sets) == 0 {
		res.Parity = true
		return res
	}

	// Reference pair multisets and the result-buffer bound: the exact
	// pair count per batch, so the timed runs can never overflow.
	type pair struct {
		q uint8
		s uint32
	}
	cmpPair := func(a, b pair) int {
		if a.q != b.q {
			return int(a.q) - int(b.q)
		}
		if a.s != b.s {
			if a.s < b.s {
				return -1
			}
			return 1
		}
		return 0
	}
	var ref [2][][]pair // per flavor: set ids name rows of that flavor's layout
	maxPairs := 1
	for f := range ref {
		ref[f] = make([][]pair, len(items))
		for i, it := range items {
			p := &parts[it.pid]
			for si, set := range layout[f].sets[p.off : p.off+p.n] {
				for qi := range it.qs {
					if set.SubsetOf(queries[it.qs[qi]]) {
						ref[f][i] = append(ref[f][i], pair{uint8(qi), p.off + uint32(si)})
					}
				}
			}
			slices.SortFunc(ref[f][i], cmpPair)
			maxPairs = max(maxPairs, len(ref[f][i]))
		}
	}

	dev := gpu.New(gpu.Config{Workers: workers}) // zero cost model: kernel work only
	defer dev.Close()
	stream, err := dev.OpenStream()
	if err != nil {
		panic(err)
	}
	defer stream.Close()
	setsBuf := gpu.MustAlloc[bitvec.Vector](dev, len(sets))
	sh, err := uploadShard(dev, groups, layout[1].runs)
	if err != nil {
		panic(err)
	}
	qsBuf := gpu.MustAlloc[bitvec.Vector](dev, len(queries))
	tab := gpu.MustAlloc[uint32](dev, batchSize+segWords)
	hdr := gpu.MustAlloc[uint32](dev, resHeaderWords)
	pairs := gpu.MustAlloc[byte](dev, pairBufBytes(maxPairs))
	if err := setsBuf.CopyToDevice(0, layout[0].sets); err != nil {
		panic(err)
	}
	if err := qsBuf.CopyToDevice(0, queries); err != nil {
		panic(err)
	}

	var kc obs.KernelCounters
	for i := range items {
		it := &items[i]
		p := &parts[it.pid]
		for f := range it.kernel {
			sliced := f == 1
			off, n := p.off, p.n
			grid := gpu.Grid{Blocks: segBlocks(int(p.n), blockDim, sliced), BlockDim: blockDim}
			row := make([]uint32, segWords)
			if sliced {
				off, n = p.grpOff, (p.n+63)/64
				row[segRunOff], row[segRunLen] = p.runOff, p.nRuns
			}
			row[segBlockEnd], row[segCount] = uint32(grid.Blocks), uint32(len(it.qs))
			row[segOff], row[segLen], row[segBase] = off, n, p.off
			it.tab[f] = append(slices.Clone(it.qs), row...)
			args := &batchArgs{
				sigs: qsBuf, tab: tab, nQ: len(it.qs), nSeg: 1,
				hdr: hdr, pairs: pairs, maxPairs: maxPairs, prefilter: true, kc: &kc,
			}
			it.grid[f] = grid
			if sliced {
				it.kernel[f] = slicedMatchKernel(args, sh, nil)
			} else {
				it.kernel[f] = matchKernel(args, setsBuf, nil)
			}
		}
	}
	launch := func(it *workItem, f int) {
		gpu.CopyToDeviceAsync(stream, tab, 0, it.tab[f])
		// Header reset fused into the launch: no separate tiny H2D copy.
		stream.LaunchZeroedAsync(it.grid[f], hdr, resHeaderWords, it.kernel[f])
	}

	// Untimed parity pass: both flavors must emit exactly the reference
	// pair multiset for every batch.
	res.Parity = true
	hdrHost := make([]uint32, resHeaderWords)
	packed := make([]byte, pairBufBytes(maxPairs))
	for i := range items {
		for f := range items[i].kernel {
			launch(&items[i], f)
			if err := stream.SynchronizeErr(); err != nil {
				panic(err)
			}
			if err := hdr.CopyFromDevice(hdrHost, 0); err != nil {
				panic(err)
			}
			if err := pairs.CopyFromDevice(packed, 0); err != nil {
				panic(err)
			}
			count, overflow := clampCount(hdrHost[0], hdrHost[1], maxPairs)
			got := make([]pair, 0, count)
			decodePacked(packed, count, func(q uint8, s uint32) {
				got = append(got, pair{q, s})
			})
			slices.SortFunc(got, cmpPair)
			if overflow || !slices.Equal(got, ref[f][i]) {
				res.Parity = false
			}
		}
	}
	res.GateChecks = kc.GateChecks.Load()
	res.GatePruned = kc.GatePruned.Load()
	res.GroupScans = kc.GroupScans.Load()
	res.ColumnsWalked = kc.ColumnsWalked.Load()

	// Timed passes: enqueue a full iteration's batches back to back and
	// synchronize once, so host-side bookkeeping stays off the clock.
	// The H2D op count is measured across the passes: fused header
	// resets mean exactly one copy (indices + segment table) per launch.
	n := float64(iters * len(queries))
	copies0 := dev.Stats().CopiesHtoD
	launches := 0
	for f, out := range []*float64{&res.ScalarNs, &res.SlicedNs} {
		t0 := time.Now()
		for it := 0; it < iters; it++ {
			for i := range items {
				launch(&items[i], f)
				launches++
			}
			if err := stream.SynchronizeErr(); err != nil {
				panic(err)
			}
		}
		*out = float64(time.Since(t0)) / n
	}
	if launches > 0 {
		res.H2DCopiesPerBatch = float64(dev.Stats().CopiesHtoD-copies0) / float64(launches)
	}
	return res
}
