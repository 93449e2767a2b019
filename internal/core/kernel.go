package core

import (
	"encoding/binary"
	"sync/atomic"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// Result layout (§3.3.1). A (query, set) pair uses an 8-bit query id (the
// index of the routed entry within the dispatched batch) and a 32-bit set
// id. A naive struct would pad
// each pair to 64 bits, wasting 38% of memory and bus bandwidth; storing
// ids in two separate arrays would avoid the waste but require two result
// copies. TagMatch instead packs results in groups of four pairs — four
// query-id bytes followed by four little-endian 32-bit set ids:
//
//	| q1 q2 q3 q4 | s1 s1 s1 s1 | s2 .. | s3 .. | s4 .. |   (20 bytes)
//
// which is byte-dense (worst-case loss: the unused lanes of the final
// group) and needs a single copy.
//
// The pair counter and the overflow flag live in a separate two-word
// header buffer so the kernel's atomic append has a stable address and
// the host can reset it with one tiny H2D transfer per batch.
const (
	resHeaderWords = 2  // header buffer: [pair counter, overflow flag]
	bytesPerGroup  = 20 // 4 query-id bytes + 4×4 set-id bytes

	// maxBatchSize bounds Config.BatchSize: query ids within a batch are
	// uint8 throughout the kernels and the reduce stage, so a larger
	// batch would alias query indices. Config validation enforces it.
	maxBatchSize = 256
)

// pairBufBytes returns the byte size of a packed pair buffer holding up
// to maxPairs pairs.
func pairBufBytes(maxPairs int) int {
	return ((maxPairs + 3) / 4) * bytesPerGroup
}

// emitPacked appends one (query, set) pair to the packed result buffer.
// Each pair writes to byte addresses owned exclusively by its slot, so
// concurrent emits from different threads never touch the same byte.
func emitPacked(b *gpu.BlockCtx, hdr []uint32, pairs []byte, maxPairs int, q uint8, setID uint32) {
	idx := int(b.AtomicAddU32(&hdr[0], 1))
	if idx >= maxPairs {
		atomic.StoreUint32(&hdr[1], 1) // overflow: host re-runs the batch on CPU
		return
	}
	base := (idx / 4) * bytesPerGroup
	lane := idx % 4
	pairs[base+lane] = q
	binary.LittleEndian.PutUint32(pairs[base+4+4*lane:], setID)
}

// decodePacked yields the first count pairs of a packed result buffer.
func decodePacked(packed []byte, count int, visit func(q uint8, s uint32)) {
	for idx := 0; idx < count; idx++ {
		base := (idx / 4) * bytesPerGroup
		lane := idx % 4
		visit(packed[base+lane], binary.LittleEndian.Uint32(packed[base+4+4*lane:]))
	}
}

// Segment table. The unit a device sees is a dispatched batch: up to
// BatchSize routed (query, partition) entries, grouped into segments of
// consecutive entries bound for the same partition. One launch serves
// the whole batch — its grid is the sum of the segments' thread blocks —
// and every block finds its segment, and through it its partition's
// slice of the device index and its entries' signatures, in a small
// table uploaded with the batch. A (query, set) pair carries the entry's
// index in the batch, so the result format, the 8-bit query id and the
// reduce stage are the same for one segment or many.
//
// The table rides in the same device buffer, and the same H2D copy, as
// the entries' signature indices: words [0, nQ) hold one index per entry
// into the signature buffer (the engine uploads the batch's signatures
// in entry order, so there the indices are the identity), followed by
// segWords words per segment.
const (
	segBlockEnd = iota // thread blocks of the launch up to and including this segment
	segFirst           // the segment's first entry in the batch
	segCount           // its number of entries
	segExt             // device buffer holding the partition: 0 base shard, e the e-th extent
	segOff             // offset of the partition's first group (sliced) or set (scalar) in it
	segLen             // the partition's groups (sliced) or sets (scalar)
	segBase            // global set id of the partition's first set
	segRunOff          // offset of the partition's first run node beside that buffer (sliced)
	segRunLen          // the partition's run nodes
	segWords
)

// segment is one partition's run of entries in a dispatched batch.
type segment struct {
	pid      uint32
	first, n int
}

// batchArgs are the kernel arguments of one dispatched batch.
type batchArgs struct {
	sigs      *gpu.Buffer[bitvec.Vector] // signatures the entry indices point into
	tab       *gpu.Buffer[uint32]        // entry indices, then the segment table
	nQ, nSeg  int
	hdr       *gpu.Buffer[uint32]
	pairs     *gpu.Buffer[byte]
	maxPairs  int
	prefilter bool
	// pfs holds the per-partition observability counters of each segment
	// (nil entries, or a nil slice, when observability is off): the
	// kernels report prefilter and gate effectiveness through them.
	pfs []*obs.PartitionCounters
	kc  *obs.KernelCounters
}

func (a *batchArgs) pf(seg int) *obs.PartitionCounters {
	if a.pfs == nil {
		return nil
	}
	return a.pfs[seg]
}

// blockScratch is what the kernels keep in an SM's shared memory across
// blocks: the block's gathered query signatures, the scalar kernel's
// surviving-query list and the sliced kernel's stack of them.
type blockScratch struct {
	qs   []bitvec.Vector
	surv []uint8
	span spanScratch
}

// block resolves the segment a thread block serves: the segment's table
// row and index, the block's index within the segment, and the segment's
// query signatures gathered through the entry indices into shared memory
// — the CUDA idiom — so the per-set inner loop reads a dense array. The
// signature buffer is not written while a kernel reading it runs: the
// engine's is filled by the batch's own stream ahead of the launch.
func (a *batchArgs) block(b *gpu.BlockCtx) (row []uint32, seg, local int, sh *blockScratch) {
	tab := a.tab.Data()
	rows := tab[a.nQ : a.nQ+a.nSeg*segWords]
	lo, hi := 0, a.nSeg-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int(rows[mid*segWords+segBlockEnd]) > b.BlockIdx {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	seg, local = lo, b.BlockIdx
	if seg > 0 {
		local -= int(rows[(seg-1)*segWords+segBlockEnd])
	}
	row = rows[seg*segWords : (seg+1)*segWords]

	p := b.Shared()
	sh, _ = (*p).(*blockScratch)
	if sh == nil {
		sh = &blockScratch{}
		*p = sh
	}
	entries := tab[row[segFirst] : row[segFirst]+row[segCount]]
	sigs := a.sigs.Data()
	sh.qs = sh.qs[:0]
	for _, j := range entries {
		sh.qs = append(sh.qs, sigs[j])
	}
	return row, seg, local, sh
}

// segBlocks returns the thread blocks a partition of n sets occupies in
// a launch: one thread per 64-lane group for the sliced kernel, one thread
// per set for the scalar kernel, blockDim threads per block.
func segBlocks(n, blockDim int, sliced bool) int {
	if sliced {
		n = (n + 63) / 64
	}
	return (n + blockDim - 1) / blockDim
}

// blockPrefilter implements Algorithm 4: compute the block's common
// signature prefix length — one XOR between the block's first and last
// set, valid because the tagset table is lexicographically sorted — and
// collect into block-shared memory the indices of the queries that
// contain that prefix. The prefix-containment test runs fused
// (PrefixSubsetOf), so no prefix vector is materialized on the
// per-block hot path. Returns an empty list when no query survives.
func blockPrefilter(b *gpu.BlockCtx, blockSets []bitvec.Vector, qs []bitvec.Vector, shared []uint8) []uint8 {
	prefixLen := bitvec.CommonPrefixLen(blockSets[0], blockSets[len(blockSets)-1])
	first := blockSets[0]
	shared = shared[:0]
	b.Threads(func(tid int) {
		// Threads stride through the original batch in parallel
		// (Algorithm 4's while loop); block-sequential execution in the
		// simulator keeps the appends well-ordered without the atomic.
		for i := tid; i < len(qs); i += b.Grid.BlockDim {
			if first.PrefixSubsetOf(prefixLen, qs[i]) {
				shared = append(shared, uint8(i))
			}
		}
	})
	return shared
}

// matchKernel returns the scalar subset-match kernel (Algorithms 3 and
// 4) for one dispatched batch. base is the device-resident tagset table
// (full table in replicated mode, the device's shard otherwise) and exts
// the device's extent buffers; each segment names the one holding its
// partition. Each thread owns one tag set (the paper's thread_id); the
// block-level pre-filter prunes the segment's queries before the per-set
// subset checks.
func matchKernel(a *batchArgs, base *gpu.Buffer[bitvec.Vector], exts []*gpu.Buffer[bitvec.Vector]) gpu.KernelFunc {
	return func(b *gpu.BlockCtx) {
		row, seg, local, sh := a.block(b)
		buf := base
		if e := row[segExt]; e > 0 {
			buf = exts[e-1]
		}
		sets := buf.Data()[row[segOff] : row[segOff]+row[segLen]]
		qs := sh.qs
		h, out := a.hdr.Data(), a.pairs.Data()
		qbase := uint8(row[segFirst])

		first := local * b.Grid.BlockDim
		blockSets := sets[first:min(first+b.Grid.BlockDim, len(sets))]

		pf := a.pf(seg)
		if a.prefilter {
			if pf != nil {
				pf.PrefilterBlocks.Add(1)
			}
			sh.surv = blockPrefilter(b, blockSets, qs, sh.surv)
			if len(sh.surv) == 0 {
				if pf != nil {
					pf.PrefilterPruned.Add(1)
				}
				return
			}
		}
		shared := sh.surv

		// Main subset match (Algorithm 3): one thread per tag set, three
		// block operations per subset check, atomic append of results.
		b.Threads(func(tid int) {
			if tid >= len(blockSets) {
				return
			}
			set := blockSets[tid]
			setID := row[segBase] + uint32(first+tid)
			if a.prefilter {
				for _, qi := range shared {
					if set.SubsetOf(qs[qi]) {
						emitPacked(b, h, out, a.maxPairs, qbase+qi, setID)
					}
				}
			} else {
				for i := range qs {
					if set.SubsetOf(qs[i]) {
						emitPacked(b, h, out, a.maxPairs, qbase+uint8(i), setID)
					}
				}
			}
		})
	}
}

// cpuMatchBatch runs the subset match for a whole batch on the CPU: the
// execution path of CPU-only TagMatch, and the correctness fallback when
// a GPU result buffer overflows. It applies the same block-prefix
// shortcut over runs of blockDim lexicographically sorted sets, and
// reports prefilter effectiveness through pf (may be nil) with one
// atomic update per batch. qScratch is an optional reusable buffer for
// the per-block surviving-query list (pass nil to allocate); the
// possibly-grown buffer is returned for the caller to keep. queries are
// one segment's signatures; visit receives their index in the batch,
// qbase plus the index in queries.
func cpuMatchBatch(
	sets []bitvec.Vector, // the partition's slice of the tagset table
	globalBase int, // global set id of sets[0]
	queries []bitvec.Vector,
	qbase uint8,
	blockDim int,
	prefilter bool,
	pf *obs.PartitionCounters,
	qScratch []uint8,
	visit func(q uint8, s uint32),
) []uint8 {
	if blockDim <= 0 {
		blockDim = 256
	}
	var pfBlocks, pfPruned int64
	if prefilter && pf != nil {
		defer func() {
			pf.PrefilterBlocks.Add(pfBlocks)
			pf.PrefilterPruned.Add(pfPruned)
		}()
	}
	qIdx := qScratch[:0]
	if cap(qIdx) < len(queries) {
		qIdx = make([]uint8, 0, max(len(queries), maxBatchSize))
	}
	for blk := 0; blk < len(sets); blk += blockDim {
		end := min(blk+blockDim, len(sets))
		block := sets[blk:end]
		qIdx = qIdx[:0]
		if prefilter {
			pfBlocks++
			prefixLen := bitvec.CommonPrefixLen(block[0], block[len(block)-1])
			for i := range queries {
				if block[0].PrefixSubsetOf(prefixLen, queries[i]) {
					qIdx = append(qIdx, uint8(i))
				}
			}
			if len(qIdx) == 0 {
				pfPruned++
				continue
			}
		} else {
			for i := range queries {
				qIdx = append(qIdx, uint8(i))
			}
		}
		for t := range block {
			setID := uint32(globalBase + blk + t)
			for _, qi := range qIdx {
				if bitvec.AndNotIsZero(block[t], queries[qi]) {
					visit(qbase+qi, setID)
				}
			}
		}
	}
	return qIdx
}
