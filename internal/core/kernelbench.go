package core

import (
	"slices"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// KernelBenchResult is the outcome of KernelBenchmark: the isolated
// subset-match kernel cost per submitted query, exact result parity with
// brute force, and the kernel's work telemetry.
type KernelBenchResult struct {
	SlicedNs   float64 // kernel ns per submitted query
	Parity     bool    // the kernel emitted exactly the reference pair multiset
	Partitions int
	Batches    int // (partition, batch) kernel launches per iteration

	// Kernel telemetry accumulated over the parity pass: gate tests vs
	// groups discarded, and column words walked vs scans run.
	GateChecks    int64
	GatePruned    int64
	GroupScans    int64
	ColumnsWalked int64

	// H2DCopiesPerBatch is the mean H2D copy operations issued per
	// kernel launch over the timed passes. With the result-header reset
	// fused into the launch (LaunchZeroedAsync), exactly two copies — the
	// batch's signatures and its segment table, as the engine stages
	// them — remain; the kernel bench test asserts this stays 2 so the
	// separate header-reset transfer cannot silently come back.
	H2DCopiesPerBatch float64
}

// KernelBenchmark measures the subset-match kernel in isolation: it
// partitions sigs and lays the rows out exactly as Consolidate does
// (Algorithm 1, then newLayout: 64-aligned clusters, transposed
// groups and their run nodes, uploaded as the one stretch they lie in),
// routes every query through the partition table to form per-partition
// batches of at most batchSize, and times iters passes of the whole batch
// set — each batch's signatures and segment table staged as the engine
// stages them, then the launch — through the bit-sliced kernel on one
// simulated zero-cost device, so the figure is the matching work itself,
// without bus and driver overheads. Before timing, an untimed
// pass checks the kernel against the brute-force reference pair multiset
// (Parity).
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

	idx := newLayout(balancedPartition(sigs, maxP), 0, nil)
	parts := idx.parts
	pt, maskless := buildPartitionTable(parts)

	// Route queries and pack them into per-partition batches, the work
	// units the pipeline would dispatch when partitions fill: one-segment
	// batches.
	type workItem struct {
		pid    uint32
		qs     []uint32        // indices into queries
		sigs   []bitvec.Vector // the entries' signatures, in entry order
		tab    []uint32        // the segment table
		kernel gpu.KernelFunc
		grid   gpu.Grid
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
	if len(items) == 0 || len(idx.sets) == 0 {
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
	ref := make([][]pair, len(items))
	maxPairs := 1
	for i, it := range items {
		p := &parts[it.pid]
		for si, set := range idx.sets[p.off : p.off+p.n] {
			for qi := range it.qs {
				if set.SubsetOf(queries[it.qs[qi]]) {
					ref[i] = append(ref[i], pair{uint8(qi), p.off + uint32(si)})
				}
			}
		}
		slices.SortFunc(ref[i], cmpPair)
		maxPairs = max(maxPairs, len(ref[i]))
	}

	dev := gpu.New(gpu.Config{Workers: workers}) // zero cost model: kernel work only
	defer dev.Close()
	stream, err := dev.OpenStream()
	if err != nil {
		panic(err)
	}
	defer stream.Close()
	groups, runs := idx.stretchOf(0)
	sh, err := uploadShard(dev, groups, runs)
	if err != nil {
		panic(err)
	}
	qsBuf := gpu.MustAlloc[bitvec.Vector](dev, batchSize)
	tab := gpu.MustAlloc[uint32](dev, segWords)
	hdr := gpu.MustAlloc[uint32](dev, resHeaderWords)
	pairs := gpu.MustAlloc[byte](dev, pairBufBytes(maxPairs))

	var kc obs.KernelCounters
	for i := range items {
		it := &items[i]
		p := &parts[it.pid]
		it.grid = gpu.Grid{Blocks: segBlocks(int(p.n), blockDim), BlockDim: blockDim}
		row := make([]uint32, segWords)
		row[segBlockEnd], row[segCount] = uint32(it.grid.Blocks), uint32(len(it.qs))
		row[segOff], row[segLen], row[segBase] = p.devOff, p.nGroups(), p.off
		row[segRunOff], row[segRunLen] = p.devRunOff, p.nRuns
		it.tab = row
		for _, qi := range it.qs {
			it.sigs = append(it.sigs, queries[qi])
		}
		it.kernel = slicedMatchKernel(&batchArgs{
			sigs: qsBuf, tab: tab, nSeg: 1,
			hdr: hdr, pairs: pairs, maxPairs: maxPairs, prefilter: true, kc: &kc,
		}, sh)
	}
	launch := func(it *workItem) {
		gpu.CopyToDeviceAsync(stream, qsBuf, 0, it.sigs)
		gpu.CopyToDeviceAsync(stream, tab, 0, it.tab)
		// Header reset fused into the launch: no separate tiny H2D copy.
		stream.LaunchZeroedAsync(it.grid, hdr, resHeaderWords, it.kernel)
	}

	// Untimed parity pass: the kernel must emit exactly the reference
	// pair multiset for every batch.
	res.Parity = true
	hdrHost := make([]uint32, resHeaderWords)
	packed := make([]byte, pairBufBytes(maxPairs))
	for i := range items {
		launch(&items[i])
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
		if overflow || !slices.Equal(got, ref[i]) {
			res.Parity = false
		}
	}
	res.GateChecks = kc.GateChecks.Load()
	res.GatePruned = kc.GatePruned.Load()
	res.GroupScans = kc.GroupScans.Load()
	res.ColumnsWalked = kc.ColumnsWalked.Load()

	// Timed passes: enqueue a full iteration's batches back to back and
	// synchronize once, so host-side bookkeeping stays off the clock.
	// The H2D op count is measured across the passes: fused header
	// resets mean exactly two copies (signatures, segment table) per
	// launch.
	copies0 := dev.Stats().CopiesHtoD
	t0 := time.Now()
	for it := 0; it < iters; it++ {
		for i := range items {
			launch(&items[i])
		}
		if err := stream.SynchronizeErr(); err != nil {
			panic(err)
		}
	}
	res.SlicedNs = float64(time.Since(t0)) / float64(iters*len(queries))
	res.H2DCopiesPerBatch = float64(dev.Stats().CopiesHtoD-copies0) / float64(iters*len(items))
	return res
}
